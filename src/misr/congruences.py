"""Congruences of finite semirings: principal closures and monoliths.

A congruence is a partition compatible with both Cayley tables, kept as the
least element of each element's block: a canonical form, so equal partitions
compare and hash equal.  One union-find closure answers every question: it
merges its seed pairs, then closes under translates in rounds of whole rows
of each table and its transpose (see _sides: a commutative table once).
Cg(a,b) is seeded with (a,b) and every (c*a+d, c*b+d), pairs of Cg(a,b) by
Mal'cev's lemma.  In a commutative semiring with x*x = x each unary
polynomial is some c*x+d (its monomials are constants times x^j = x), so the
seeds generate Cg(a,b) and the first round merges nothing.  A partition is a
congruence when closing its spanning pairs merges nothing more.  The
monolith is the meet M of all Cg(a,b) with a != b, when M is non-discrete.

Few closures run to the end.  The SI test takes the pairs a < b in order,
meets into M each closure that runs to the end, and stops Cg(a,b) once it
joins roots lo < hi with (lo, hi) before (a, b).  Sound: each earlier (c, d)
has Cg(c,d) containing M, as its closure was met into M or stopped holding
M, and M only shrinks; (lo, hi) lies in Cg(a,b), so Cg(a,b) contains
Cg(lo,hi) and so M.  (R. Freese, "Computing congruences efficiently",
Algebra Universalis 59 (2008), labels partitions so too, closes with
union-find and reuses work across pairs.)
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from itertools import combinations

from .algebras import FiniteSemiring
from .terms import Record


class Partition(Record):
    """A partition of {0..size-1}: least[x] is the least element of x's block.

    >>> p = Partition.from_blocks(4, [[3, 1], [0], [2]])
    >>> p.least, p.blocks
    ((0, 1, 2, 1), ((0,), (1, 3), (2,)))
    """

    __match_args__ = ("least",)
    least: tuple[int, ...]

    def __init__(self, least: Iterable[int]) -> None:
        least = tuple(least)  # so that no caller's list can change it after its checks
        if any(type(m) is not int for m in least):
            raise TypeError("least must hold ints")  # 1.0 and True pass the checks below
        if not all(0 <= m <= x and least[m] == m for x, m in enumerate(least)):
            raise ValueError("least[x] must be the least element of x's block")
        object.__setattr__(self, "least", least)

    @staticmethod
    def from_blocks(size: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        least: dict[int, int] = {}
        for block in map(set, blocks):
            if not block:
                raise ValueError("a block is empty")
            if not block.isdisjoint(least):
                raise ValueError("blocks overlap")
            least.update(dict.fromkeys(block, min(block)))
        if least.keys() != set(range(size)):
            raise ValueError("blocks do not partition the carrier")
        return Partition(tuple(least[x] for x in range(size)))

    @staticmethod
    def full(size: int) -> "Partition":
        return Partition((0,) * size)

    @property
    def size(self) -> int:
        return len(self.least)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as increasing tuples, ordered by their least element."""
        members: dict[int, list[int]] = {}
        for x, m in enumerate(self.least):
            members.setdefault(m, []).append(x)
        return tuple(map(tuple, members.values()))

    def same(self, x: int, y: int) -> bool:
        return self.least[x] == self.least[y]

    def meet(self, other: "Partition") -> "Partition":
        """Common refinement of two partitions of one size: x ~ y iff both do."""
        return Partition(_least(zip(self.least, other.least, strict=True)))

    @property
    def is_discrete(self) -> bool:
        return all(m == x for x, m in enumerate(self.least))

    def render(self, labels: Sequence[str]) -> str:
        """Blocks as "{0},{a,1}" using the given element labels."""
        return ",".join(
            "{" + ",".join(labels[x] for x in block) + "}" for block in self.blocks
        )


def _least(labels: Iterable[Hashable]) -> tuple[int, ...]:
    """Each x's least element with x's label: equal labels, one block."""
    first: dict[Hashable, int] = {}
    return tuple(first.setdefault(label, x) for x, label in enumerate(labels))


def _closure(
    sides: tuple[tuple[tuple[int, ...], ...], ...],
    pairs: Iterable[tuple[int, int]],
    before: tuple[int, int] = (0, 0),
) -> tuple[int, ...] | None:
    """The congruence generated by the seed pairs: each element's least block
    element (a merge hangs root hi under root lo < hi), or None right after a
    merge whose (lo, hi) < before; no pair lo < hi precedes the default.
    After the seeds, each round merges the rows x and least[x] of each table
    in sides (a commutative one once) cell by cell where they differ once
    mapped to blocks; a round that finds none ends, its blocks compatible.
    """
    parent = list(range(len(sides[0])))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while True:
        for x, y in pairs:
            rx, ry = find(x), find(y)
            if rx != ry:
                lo, hi = (rx, ry) if rx < ry else (ry, rx)
                parent[hi] = lo
                if (lo, hi) < before:
                    return None
        least = tuple(map(find, range(len(parent))))
        pairs = [pair for table in sides for x, m in enumerate(least)
                 if m != x and [least[v] for v in table[x]] != [least[v] for v in table[m]]
                 for pair in zip(table[x], table[m])]
        if not pairs:
            return least


def _seeds(alg: FiniteSemiring, a: int, b: int) -> Iterator[tuple[int, int]]:
    """(a, b), then (c*a+d, c*b+d) for each distinct (c*a, c*b) with c*a != c*b and every d."""
    yield a, b
    seen = set()
    for row in alg.mul:
        if row[a] != row[b] and (row[a], row[b]) not in seen:
            seen.add((row[a], row[b]))
            yield from zip(alg.add[row[a]], alg.add[row[b]])


def principal_congruence(alg: FiniteSemiring, a: int, b: int) -> Partition:
    """The least congruence of alg merging a and b.

    >>> from misr import builtin
    >>> principal_congruence(builtin("t3"), 1, 2).render(("0", "a", "1"))
    '{0},{a,1}'
    """
    if not (0 <= a < alg.size and 0 <= b < alg.size):
        raise ValueError("element index out of range")
    return Partition(_closure(alg._sides, _seeds(alg, a, b)))


def is_congruence(alg: FiniteSemiring, part: Partition) -> bool:
    """Compatible with both tables (reading a commutative one once)?  Iff
    closing its spanning pairs (x, least[x]) merges nothing more.

    >>> from misr import builtin
    >>> is_congruence(builtin("t3"), Partition.from_blocks(3, [[0, 1], [2]]))
    False
    """
    if part.size != alg.size:
        raise ValueError("partition size does not match the carrier")
    return _closure(alg._sides, enumerate(part.least)) == part.least


def is_subdirectly_irreducible(alg: FiniteSemiring) -> tuple[bool, Partition | None]:
    """Does alg have a least non-trivial congruence (its monolith)?  Only
    closures that run to the end shrink the meet M.  Raises on a one-element
    carrier.
    """
    n = alg.size
    if n < 2:
        raise ValueError("subdirect irreducibility needs at least two elements")
    least = (0,) * n  # the least element of x's block of M
    for a, b in combinations(range(n), 2):
        roots = _closure(alg._sides, _seeds(alg, a, b), (a, b))
        if roots is not None:
            least = _least(zip(least, roots))
            if len(set(least)) == n:
                return False, None
    return True, Partition(least)
