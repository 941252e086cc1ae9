"""Congruences of finite semirings: principal closures and monoliths.

A congruence is a partition compatible with both Cayley tables, kept as the
least element of each element's block: a canonical form, so equal partitions
compare and hash equal.  The principal congruence Cg(a,b) is the least
congruence merging a and b, found by one union-find closure under both sides
of both tables.  An algebra is subdirectly irreducible when the meet M of
its principal congruences over distinct pairs is still non-discrete, and M
is then its monolith (the least non-trivial congruence).

The test finishes few closures.  A closure stops as soon as it merges every
spanning pair of the running meet M, or a pair already shown to generate a
congruence containing M: Cg(a,b) then contains M and the meet is unchanged.
Every pair is such a proof once its closure stops or ends, and stays one
while M shrinks.  (R. Freese, "Computing congruences efficiently", Algebra
Universalis 59 (2008), labels partitions so too, closes with union-find and
reuses work across pairs.)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Hashable, Iterable, Sequence

from .algebras import FiniteSemiring, _sides


@dataclass(frozen=True)
class Partition:
    """A partition of {0..size-1}: least[x] is the least element of x's block.

    >>> p = Partition.from_blocks(4, [[3, 1], [0], [2]])
    >>> p.least, p.blocks
    ((0, 1, 2, 1), ((0,), (1, 3), (2,)))
    """

    least: tuple[int, ...]

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
    a: int,
    b: int,
    stop: Callable[[Callable[[int], int], int, int], bool] | None = None,
) -> list[int] | None:
    """Union-find closure of Cg(a,b): the root of each element's block, or
    None as soon as stop(find, x, y) holds right after x and y are merged.

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

    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        if stop is not None and stop(find, x, y):
            return None
        for table in sides:
            pending += zip(table[x], table[y])
    return [find(x) for x in range(len(parent))]


def principal_congruence(alg: FiniteSemiring, a: int, b: int) -> Partition:
    """The least congruence of alg merging a and b."""
    n = alg.size
    if not 0 <= a < n or not 0 <= b < n:
        raise ValueError("element index out of range")
    return Partition(_least(_closure(_sides(alg), a, b)))


def is_congruence(alg: FiniteSemiring, part: Partition) -> bool:
    """Is the partition compatible with both tables?"""
    if part.size != alg.size:
        raise ValueError("partition size does not match the carrier")
    sides, least = _sides(alg), part.least
    return all(
        least[u] == least[v]
        for x, m in enumerate(least)
        if m != x
        for rows in sides
        for u, v in zip(rows[m], rows[x])
    )


def is_subdirectly_irreducible(
    alg: FiniteSemiring,
) -> tuple[bool, Partition | None]:
    """Does alg have a least non-trivial congruence (its monolith)?

    The monolith is the meet M of Cg(a,b) over all pairs a != b; alg is
    subdirectly irreducible iff M is not discrete.  Each closure stops
    early once Cg(a,b) is known to contain M: when all of M's spanning
    pairs are merged, or when it merges a pair already shown to generate a
    congruence containing M.  Only closures that run to the end shrink M.
    Raises on a one-element carrier.
    """
    n = alg.size
    if n < 2:
        raise ValueError("subdirect irreducibility needs at least two elements")
    sides = _sides(alg)
    least = (0,) * n  # the least element of x's block of M
    span = [(0, x) for x in range(1, n)]
    # pairs (both orders) whose principal congruence contains M; M only
    # shrinks, so a pair once proven stays proven
    proven: set[tuple[int, int]] = set()
    for a, b in combinations(range(n), 2):
        merged = 0  # span[:merged] are merged in the current closure

        def contains_meet(find: Callable[[int], int], x: int, y: int) -> bool:
            nonlocal merged
            if (x, y) in proven:
                return True
            while find(span[merged][0]) == find(span[merged][1]):
                merged += 1
                if merged == len(span):
                    return True
            return False

        roots = _closure(sides, a, b, contains_meet)
        proven.update(((a, b), (b, a)))
        if roots is not None:
            least = _least(zip(least, roots))
            span = [(m, x) for x, m in enumerate(least) if m != x]
            if not span:
                return False, None
    return True, Partition(least)
