"""Free-algebra enumeration and term-function clones of finite models.

enumerate_reduced lists every reduced sum-of-products form over n
variables by placing the monomials in (size, lexicographic) order, each
at most as often as the deletion criterion allows, so that it builds
nothing but reduced forms.  clone_count closes {0, 1, projections} under the
pointwise operations of a finite model; it never touches the normal-form
code, so agreement of the two counts is a genuine cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebras import FiniteSemiring, _sides
from .normal import SumOfProducts, monomials_over, rep_text

DEFAULT_ARITY_CAP = 3


def enumerate_reduced(n: int, cap: int = DEFAULT_ARITY_CAP) -> list[SumOfProducts]:
    """Every reduced form over variables x1..xn, sorted by canonical text.

    Each form is built once, and nothing else is built.  The cap bounds the
    output, which grows from 135 forms at n = 3 to 4134 at n = 4 and
    1 844 256 at n = 5.
    """
    if n < 0:
        raise ValueError("arity must be non-negative")
    if n > cap:
        raise ValueError(f"arity {n} exceeds the cap of {cap}")
    reps: list[SumOfProducts] = [()]
    for m in monomials_over(n):
        # a copy of m is kept iff fewer than two other positions lie inside it:
        # its strict subsets, all placed before it in this order, and its copies
        reps = [r + (m,) * c for r in reps for c in range(3 - min(2, sum(p < m for p in r)))]
    reps.sort(key=rep_text)
    return reps


def clone_count(alg: FiniteSemiring, n: int) -> int:
    """Number of n-ary term functions of alg.

    Closure of the two constant functions and the n projections under the
    pointwise operations, counted by distinct value tables.  Each function
    taken off the worklist is combined once with itself and once with each
    function taken before it, on both sides of both tables.
    """
    if n < 0:
        raise ValueError("arity must be non-negative")
    points = list(itertools.product(range(alg.size), repeat=n))
    known = {tuple(alg.zero for _ in points), tuple(alg.one for _ in points)}
    known.update(tuple(p[i] for p in points) for i in range(n))
    sides = _sides(alg)
    todo, done = list(known), []
    while todo:
        f = todo.pop()
        done.append(f)
        # row f[p] of each side at column g[p]: f+g, g+f, f*g and g*f
        for g in done:
            for rows in sides:
                h = tuple(rows[x][y] for x, y in zip(f, g))
                if h not in known:
                    known.add(h)
                    todo.append(h)
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
