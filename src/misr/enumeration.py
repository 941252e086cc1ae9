"""Free-algebra enumeration and term-function clones of finite models.

enumerate_reduced lists every reduced sum-of-products form over n
variables by running through multiplicity vectors in {0,1,2}^(2^n) (no
monomial can occur three times in a reduced form) and keeping the
irreducible ones.  clone_count closes {0, 1, projections} under the
pointwise operations of a finite model; it never touches the normal-form
code, so agreement of the two counts is a genuine cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebras import FiniteSemiring
from .normal import Monomial, SumOfProducts, find_reducible, rep_text

DEFAULT_ARITY_CAP = 3


def monomials_over(n: int) -> tuple[Monomial, ...]:
    """All subsets of {1..n} in (cardinality, lexicographic) order, which is
    the order combinations yields them in over ascending sizes."""
    return tuple(
        frozenset(c)
        for r in range(n + 1)
        for c in itertools.combinations(range(1, n + 1), r)
    )


def enumerate_reduced(n: int, cap: int = DEFAULT_ARITY_CAP) -> list[SumOfProducts]:
    """Every reduced form over variables x1..xn, sorted by canonical text.

    The cap exists because the candidate space is 3^(2^n); raising it past
    the default is possible but quickly infeasible.
    """
    if n < 0:
        raise ValueError("arity must be non-negative")
    if n > cap:
        raise ValueError(f"arity {n} exceeds the cap of {cap}")
    subsets = monomials_over(n)
    reps = []
    for mults in itertools.product((0, 1, 2), repeat=len(subsets)):
        rep = tuple(s for s, m in zip(subsets, mults) for _ in range(m))
        if find_reducible(rep) is None:
            reps.append(rep)
    reps.sort(key=rep_text)
    return reps


def clone_count(alg: FiniteSemiring, n: int) -> int:
    """Number of n-ary term functions of alg.

    Closure of the two constant functions and the n projections under the
    pointwise operations, counted by distinct value tables.
    """
    if n < 0:
        raise ValueError("arity must be non-negative")
    points = list(itertools.product(range(alg.size), repeat=n))
    known: set[tuple[int, ...]] = {
        tuple(alg.zero for _ in points),
        tuple(alg.one for _ in points),
    }
    for i in range(n):
        known.add(tuple(p[i] for p in points))
    add, mul = alg.add, alg.mul
    frontier = list(known)
    while frontier:
        fresh = []
        for f in frontier:
            for g in list(known):
                for h in (
                    tuple(add[x][y] for x, y in zip(f, g)),
                    tuple(add[y][x] for x, y in zip(f, g)),
                    tuple(mul[x][y] for x, y in zip(f, g)),
                    tuple(mul[y][x] for x, y in zip(f, g)),
                ):
                    if h not in known:
                        known.add(h)
                        fresh.append(h)
        frontier = fresh
    return len(known)


@dataclass(frozen=True)
class FreeSpectrumEntry:
    arity: int
    count: int
    reps: tuple[SumOfProducts, ...] | None = None


def free_spectrum(
    n: int, include_reps: bool = False, cap: int = DEFAULT_ARITY_CAP
) -> FreeSpectrumEntry:
    """Size of the free algebra on n generators (with the forms on request)."""
    reps = enumerate_reduced(n, cap)
    return FreeSpectrumEntry(n, len(reps), tuple(reps) if include_reps else None)
