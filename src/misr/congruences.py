"""Congruences of finite semirings: principal closures and monoliths.

A congruence is a partition compatible with both Cayley tables, kept as the
least element of each element's block: a canonical form, so equal partitions
compare and hash equal.  One union-find closure under both sides of both
tables answers every question: Cg(a,b) closes (a,b), and a partition is a
congruence when closing its spanning pairs merges nothing more.  The
monolith is the meet M of all Cg(a,b) with a != b, when M is non-discrete.

Few closures run to the end: each stops once it merges every spanning pair
of the running meet M, or a pair already shown to generate a congruence
containing M, as Cg(a,b) then contains M.  Every pair is such a proof once
its closure stops or ends, and stays one while M shrinks.  (R. Freese,
"Computing congruences efficiently", Algebra Universalis 59 (2008), labels
partitions so too, closes with union-find and reuses work across pairs.)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Container, Hashable, Iterable, Sequence

from .algebras import FiniteSemiring, _sides


@dataclass(frozen=True)
class Partition:
    """A partition of {0..size-1}: least[x] is the least element of x's block.

    >>> p = Partition.from_blocks(4, [[3, 1], [0], [2]])
    >>> p.least, p.blocks
    ((0, 1, 2, 1), ((0,), (1, 3), (2,)))
    """

    least: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(0 <= m <= x and self.least[m] == m for x, m in enumerate(self.least)):
            raise ValueError("least[x] must be the least element of x's block")

    @staticmethod
    def from_blocks(size: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        least: dict[int, int] = {}
        for block in map(set, blocks):
            if not block.isdisjoint(least):
                raise ValueError("blocks overlap")
            least.update(dict.fromkeys(block, min(block, default=0)))
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
    span: Sequence[tuple[int, int]] = (),
    proven: Container[tuple[int, int]] = (),
) -> tuple[int, ...] | None:
    """Union-find closure of the seed pairs: each element's least block
    element (a merge hangs the larger root under the smaller), or None right
    after a merge that hits a pair in proven or completes span, if given.
    Every merged pair (x, y) forces its translates (x+c, y+c), (c+x, c+y),
    (x*c, y*c) and (c*x, c*y); spanning pairs suffice because union-find
    keeps the relation transitively closed.
    """
    parent = list(range(len(sides[0])))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = list(pairs)
    merged = 0  # span[:merged] are merged
    while pending:
        x, y = pending.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        if span:
            if (x, y) in proven:
                return None
            while find(span[merged][0]) == find(span[merged][1]):
                merged += 1
                if merged == len(span):
                    return None
        for table in sides:
            pending += zip(table[x], table[y])
    return tuple(map(find, range(len(parent))))


def principal_congruence(alg: FiniteSemiring, a: int, b: int) -> Partition:
    """The least congruence of alg merging a and b.

    >>> from misr import builtin
    >>> principal_congruence(builtin("t3"), 1, 2).render(("0", "a", "1"))
    '{0},{a,1}'
    """
    if not (0 <= a < alg.size and 0 <= b < alg.size):
        raise ValueError("element index out of range")
    return Partition(_closure(_sides(alg), [(a, b)]))


def is_congruence(alg: FiniteSemiring, part: Partition) -> bool:
    """Is the partition compatible with both tables?  Exactly when closing
    its spanning pairs (x, least[x]) merges nothing more.

    >>> from misr import builtin
    >>> is_congruence(builtin("t3"), Partition.from_blocks(3, [[0, 1], [2]]))
    False
    """
    if part.size != alg.size:
        raise ValueError("partition size does not match the carrier")
    return _closure(_sides(alg), enumerate(part.least)) == part.least


def is_subdirectly_irreducible(alg: FiniteSemiring) -> tuple[bool, Partition | None]:
    """Does alg have a least non-trivial congruence (its monolith)?  Only
    closures that run to the end shrink the meet M.  Raises on a one-element
    carrier.
    """
    n = alg.size
    if n < 2:
        raise ValueError("subdirect irreducibility needs at least two elements")
    sides = _sides(alg)
    least = (0,) * n  # the least element of x's block of M
    span = [(0, x) for x in range(1, n)]
    proven: set[tuple[int, int]] = set()  # pairs whose Cg contains M, both orders
    for a, b in combinations(range(n), 2):
        roots = _closure(sides, [(a, b)], span, proven)
        proven.update(((a, b), (b, a)))
        if roots is not None:
            least = _least(zip(least, roots))
            span = [(m, x) for x, m in enumerate(least) if m != x]
            if not span:
                return False, None
    return True, Partition(least)
