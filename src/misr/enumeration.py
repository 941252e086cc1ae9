"""Free-algebra enumeration and term-function clones of finite models.

enumerate_reduced lists every reduced sum-of-products form over n
variables by placing the monomials in (size, lexicographic) order, each
at most as often as the deletion criterion allows, so that it builds
nothing but reduced forms.  clone_count closes {0, 1, projections} under the
pointwise operations of a finite model: under products and then sums where
the model satisfies both associative and both distributive laws, and under
all operations at once otherwise.  It packs each function's value table
into one int of fixed-width digits, so that combining two functions takes
a few big-int ANDs and ORs in place of a tuple built point by point.
It never touches the normal-form code, so agreement of the two counts is a
genuine cross-check.
"""

from __future__ import annotations

import itertools

from .algebras import _SEMIRING_AXIOMS, FiniteSemiring, _sides, holds
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

    Closure of the generators {0, 1, x1..xn} under the pointwise
    operations, counted by distinct value tables.  Where alg satisfies
    (x+y)+z = x+(y+z), (x*y)*z = x*(y*z), x*(y+z) = x*y+x*z and
    (y+z)*x = y*x+z*x, it is taken as sums of products.  P closes the
    generators under f*g for each generator g.  It holds every left-nested
    product of generators, so it is closed under * by mul-associativity:
    p*(g1*..*gr) = (..(p*g1)..)*gr.  S closes P under f+p for each p in P.
    It holds every left-nested sum over P, so it is closed under + by
    add-associativity.  For s = p1+..+pm and t = q1+..+qr in S,
    distributive-right gives s*t = p1*t+..+pm*t and distributive-left gives
    pi*t = pi*q1+..+pi*qr, a sum over P.  So S is the clone.  Other tables
    are closed generically: each function taken off the worklist is
    combined with itself and with each function taken before it, on both
    sides of both tables.

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
    digit = (1 << width) - 1
    every = k ** len(points)  # once all functions are known, nothing new can appear

    def units(f: int) -> dict[int, int]:  # value x -> digit 1 where f is x
        bits = [f >> j & ones for j in range(width)]
        out = {}
        for x in range(k):
            u = ones
            for j, b in enumerate(bits):
                u &= b if x >> j & 1 else ones ^ b
            if u:
                out[x] = u
        return out

    def close(start: set[int], tables, partners: set[int] | None) -> set[int]:
        """start closed under f T g for T in tables, g in partners or else in all taken so far"""
        known, todo = set(start), list(start)
        masked = [[(y, u * digit) for y, u in units(g).items()] for g in partners or ()]
        while todo and len(known) < every:
            f = todo.pop()
            fu = units(f)
            if partners is None:
                masked.append([(y, u * digit) for y, u in fu.items()])
            lifted = [[sum(rows[x][y] * u for x, u in fu.items()) for y in range(k)] for rows in tables]
            # row f[p] of each table at column g[p]
            for g in masked:
                for by_column in lifted:
                    h = 0
                    for y, mask in g:
                        h |= by_column[y] & mask
                    if h not in known:
                        known.add(h)
                        todo.append(h)
        return known

    gens = {alg.zero * ones, alg.one * ones}
    gens.update(sum(q[i] << width * p for p, q in enumerate(points)) for i in range(n))
    laws = ("add-associative", "mul-associative", "distributive-left", "distributive-right")
    if all(holds(alg, law)[0] for law in _SEMIRING_AXIOMS if law.name in laws):
        products = close(gens, (alg.mul,), gens)
        return len(close(products, (alg.add,), products))
    # a commutative table equals its transpose, which adds nothing new
    return len(close(gens, tuple(dict.fromkeys(_sides(alg))), None))
