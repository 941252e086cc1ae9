"""Free-algebra enumeration and term-function clones of finite models.

enumerate_reduced lists every reduced sum-of-products form over n
variables by placing the monomials in (size, lexicographic) order, each
at most as often as the deletion criterion allows, so that it builds
nothing but reduced forms.  clone_count closes {0, 1, projections} under the
pointwise operations of a finite model.  It packs each function's value
table into one int of fixed-width digits, so that combining two functions
takes a few big-int ANDs and ORs in place of a tuple built point by point.
It never touches the normal-form code, so agreement of the two counts is a
genuine cross-check.
"""

from __future__ import annotations

import itertools

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

    A function is one int whose digit p, max(1, (k-1).bit_length()) bits
    wide on a carrier of k elements, is its value at the p-th point of
    range(k)^n.  A function f taken off the worklist is split once into a
    unit mask per value it takes, from which each table T gives the k ints
    whose digit p is T[f[p]][y].  f combined with g under T is the OR, over
    the values y that g takes, of f's int for y masked to the digits where
    g is y.
    """
    if n < 0:
        raise ValueError("arity must be non-negative")
    k = alg.size
    width = max(1, (k - 1).bit_length())
    points = list(itertools.product(range(k), repeat=n))
    ones = sum(1 << width * p for p in range(len(points)))  # digit 1 at every point
    known = {alg.zero * ones, alg.one * ones}
    known.update(sum(q[i] << width * p for p, q in enumerate(points)) for i in range(n))
    # a commutative table equals its transpose, which adds nothing new
    tables = tuple(dict.fromkeys(_sides(alg)))
    digit = (1 << width) - 1
    todo, done = list(known), []
    every = k ** len(points)  # once all functions are known, nothing new can appear
    while todo and len(known) < every:
        f = todo.pop()
        bits = [f >> j & ones for j in range(width)]
        units = {}  # value x -> digit 1 where f is x
        for x in range(k):
            u = ones
            for j, b in enumerate(bits):
                u &= b if x >> j & 1 else ones ^ b
            if u:
                units[x] = u
        done.append([(y, u * digit) for y, u in units.items()])
        lifted = [[sum(rows[x][y] * u for x, u in units.items()) for y in range(k)] for rows in tables]
        # f+g, g+f, f*g and g*f: row f[p] of each table at column g[p]
        for g in done:
            for by_column in lifted:
                h = 0
                for y, mask in g:
                    h |= by_column[y] & mask
                if h not in known:
                    known.add(h)
                    todo.append(h)
    return len(known)

