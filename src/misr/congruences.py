"""Congruences of finite semirings: principal closures and monoliths.

A congruence is a partition compatible with both Cayley tables.  The
principal congruence Cg(a,b) is the least congruence merging a and b; an
algebra is subdirectly irreducible when the intersection of all its
principal congruences over distinct pairs is still non-discrete, and that
intersection is then its monolith (the least non-trivial congruence).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .algebras import FiniteSemiring


@dataclass(frozen=True)
class Partition:
    """A partition of {0..size-1} in canonical form.

    Blocks are sorted tuples, ordered by their least element; equality and
    hashing follow from the canonical form.
    """

    size: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(size: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        canon = sorted(c for c in (tuple(sorted(set(b))) for b in blocks) if c)
        seen = [x for b in canon for x in b]
        if sorted(seen) != list(range(size)):
            raise ValueError("blocks do not partition the carrier")
        return Partition(size, tuple(canon))

    @staticmethod
    def discrete(size: int) -> "Partition":
        return Partition(size, tuple((x,) for x in range(size)))

    @staticmethod
    def full(size: int) -> "Partition":
        return Partition(size, (tuple(range(size)),))

    @cached_property
    def _block_of(self) -> tuple[int, ...]:
        out = [0] * self.size
        for b, block in enumerate(self.blocks):
            for x in block:
                out[x] = b
        return tuple(out)

    def same(self, x: int, y: int) -> bool:
        return self._block_of[x] == self._block_of[y]

    def meet(self, other: "Partition") -> "Partition":
        """Common refinement: x ~ y iff both partitions relate x and y."""
        if other.size != self.size:
            raise ValueError("partition sizes differ")
        groups: dict[tuple[int, int], list[int]] = {}
        for x in range(self.size):
            groups.setdefault((self._block_of[x], other._block_of[x]), []).append(x)
        return Partition.from_blocks(self.size, groups.values())

    def refines(self, other: "Partition") -> bool:
        """Every block of self lies inside a block of other."""
        if other.size != self.size:
            raise ValueError("partition sizes differ")
        return all(
            other.same(block[0], x) for block in self.blocks for x in block[1:]
        )

    @property
    def is_discrete(self) -> bool:
        return len(self.blocks) == self.size

    def render(self, labels: Sequence[str]) -> str:
        """Blocks as "{0},{a,1}" using the given element labels."""
        return ",".join(
            "{" + ",".join(labels[x] for x in block) + "}" for block in self.blocks
        )


def principal_congruence(alg: FiniteSemiring, a: int, b: int) -> Partition:
    """The least congruence of alg merging a and b.

    Closure: starting from the merge of {a, b}, every newly related pair
    (x, y) forces (x+c, y+c), (c+x, c+y), (x*c, y*c), (c*x, c*y) to be
    related for every c, until a fixpoint.  Spanning pairs suffice because
    relatedness is kept transitively closed by union-find.
    """
    n = alg.size
    if not 0 <= a < n or not 0 <= b < n:
        raise ValueError("element index out of range")
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[ry] = rx
        return True

    queue: deque[tuple[int, int]] = deque()
    if union(a, b):
        queue.append((a, b))
    add, mul = alg.add, alg.mul
    while queue:
        x, y = queue.popleft()
        for c in range(n):
            for p, q in (
                (add[x][c], add[y][c]),
                (add[c][x], add[c][y]),
                (mul[x][c], mul[y][c]),
                (mul[c][x], mul[c][y]),
            ):
                if union(p, q):
                    queue.append((p, q))
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return Partition.from_blocks(n, groups.values())


def is_congruence(alg: FiniteSemiring, part: Partition) -> bool:
    """Is the partition compatible with both tables?"""
    if part.size != alg.size:
        raise ValueError("partition size does not match the carrier")
    n = alg.size
    add, mul = alg.add, alg.mul
    for block in part.blocks:
        x = block[0]
        for y in block[1:]:
            for c in range(n):
                if not part.same(add[x][c], add[y][c]):
                    return False
                if not part.same(add[c][x], add[c][y]):
                    return False
                if not part.same(mul[x][c], mul[y][c]):
                    return False
                if not part.same(mul[c][x], mul[c][y]):
                    return False
    return True


def is_subdirectly_irreducible(
    alg: FiniteSemiring,
) -> tuple[bool, Partition | None]:
    """Does alg have a least non-trivial congruence (its monolith)?

    Computed as the intersection of Cg(a,b) over all pairs a != b; the
    algebra is subdirectly irreducible iff that intersection is not the
    discrete partition, and the intersection is then the monolith.
    Raises on a one-element carrier (only infinite or trivial cases are
    out of scope; every finite carrier of size >= 2 is decided here).
    """
    n = alg.size
    if n < 2:
        raise ValueError("subdirect irreducibility needs at least two elements")
    mono = Partition.full(n)
    for a in range(n):
        for b in range(a + 1, n):
            mono = mono.meet(principal_congruence(alg, a, b))
            if mono.is_discrete:
                return False, None
    return True, mono
