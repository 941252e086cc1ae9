"""Free-algebra enumeration and term-function clones of finite models.

enumerate_reduced lists every reduced sum-of-products form over n
variables in a depth-first walk that decides, for each monomial in (size,
lexicographic) order, how many copies of it to place: at most as many as
the deletion criterion allows, so that it builds nothing but reduced forms.
Two int masks over the monomials mark those above at least one and at
least two placed copies, so a placement is a few int ANDs and ORs.
clone_count closes {0, 1, projections} under the
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
from collections.abc import Callable, Iterator

from .algebras import FiniteSemiring
from .normal import SumOfProducts, monomials_over, rep_text

DEFAULT_ARITY_CAP = 3
# F(6) has 125 176 288 470 forms, far more than memory holds
_LARGEST_LISTED_ARITY = 5


def _listing(n: int, cap: int) -> tuple[Iterator[SumOfProducts], Callable[[SumOfProducts], bytes]]:
    """The forms of enumerate_reduced, generated in the walk's order, and
    the function that gives the rep_text of each one in ASCII bytes, joined
    from a table of monomial texts.  Bytes sort as the texts do and take 16
    bytes less each than str: 29 MB over the 1 844 256 forms at n = 5.  The
    arity checks run at the call, before the walk starts."""
    if type(n) is not int:  # True would count as 1, and 2.0 fails inside itertools
        raise TypeError(f"arity must be an int, got {n!r}")
    if n < 0:
        raise ValueError("arity must be non-negative")
    if n > _LARGEST_LISTED_ARITY:
        raise ValueError(f"arity {n} exceeds {_LARGEST_LISTED_ARITY}, the largest that can be listed")
    if n > cap:
        raise ValueError(f"arity {n} exceeds the cap of {cap}")
    monos = monomials_over(n)
    above = [sum(1 << j for j, q in enumerate(monos) if m < q) for m in monos]
    every = (1 << len(monos)) - 1

    def walk() -> Iterator[SumOfProducts]:
        stack: list[tuple[SumOfProducts, int, int, int]] = [((), 0, 0, 0)]
        while stack:
            rep, i, once, twice = stack.pop()
            free = (every ^ twice) >> i  # the monomials from i on that can take a copy
            if not free:
                yield rep
                continue
            i += (free & -free).bit_length() - 1
            m, up = monos[i], above[i]
            stack.append((rep, i + 1, once, twice))
            stack.append((rep + (m,), i + 1, once | up, twice | once & up))
            if not once >> i & 1:
                stack.append((rep + (m, m), i + 1, once | up, twice | up))

    text = {m: rep_text((m,)).encode() for m in monos}.__getitem__
    return walk(), lambda rep: b"+".join(map(text, rep)) or b"0"


def enumerate_reduced(n: int, cap: int = DEFAULT_ARITY_CAP) -> list[SumOfProducts]:
    """Every reduced form over variables x1..xn, sorted by canonical text.

    A depth-first walk decides how many copies of each monomial to place,
    in monomials_over order, which puts every strict subset of a monomial
    before it.  A copy is kept iff fewer than two other positions lie inside
    it (the deletion criterion): its strict subsets, all placed earlier, and
    its own other copies.  A stack entry holds a partial form, the position
    of the next monomial and two int masks, whose bit j is set when
    monomial j lies strictly above at least one placed copy (`once`) or at
    least two (`twice`).  So a monomial in `twice` takes no copy and the
    walk skips it, one only in `once` takes 0 or 1 copies, and any other 0,
    1 or 2; placing copies ORs the monomial's strict supersets into the
    masks.  Each form is built once, and nothing else is built.

    The cap bounds the output, which grows from 135 forms at n = 3 to 4134
    at n = 4 and 1 844 256 at n = 5; no cap admits n > 5.

    >>> [rep_text(r) for r in enumerate_reduced(1)]
    ['0', '1', '1+1', '1+x1', 'x1', 'x1+x1']
    """
    walk, text = _listing(n, cap)
    return sorted(walk, key=text)


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
    combined with itself and with each function taken before it, on each
    side of each table, reading a commutative table once.

    A function is one int whose digit p, max(1, (k-1).bit_length()) bits
    wide on a carrier of k elements, is its value at the p-th point of
    range(k)^n.  units splits it into a mask per value x it takes, set in
    every bit of the digits where it is x.  Each partner g is lifted once,
    when it is fixed or joins the partners: each table T gives the k ints
    whose digit p is T[x][g[p]].  A function f taken off the worklist is
    only split, and f T g is the OR, over the values x that f takes, of g's
    int for x under f's mask for x.

    >>> from misr import builtin
    >>> clone_count(builtin("t3"), 2)
    19
    """
    if type(n) is not int:  # True would count as 1, and 2.0 fails inside itertools
        raise TypeError(f"arity must be an int, got {n!r}")
    if n < 0:
        raise ValueError("arity must be non-negative")
    k = alg.size
    width = max(1, (k - 1).bit_length())
    points = list(itertools.product(range(k), repeat=n))
    ones = sum(1 << width * p for p in range(len(points)))  # digit 1 at every point
    digit = (1 << width) - 1
    every = k ** len(points)  # once all functions are known, nothing new can appear

    def units(f: int) -> list[tuple[int, int]]:  # (x, every bit of the digits where f is x)
        out = [(0, ones * digit)]
        for j in range(width):  # split each class by bit j of f's digits
            b = (f >> j & ones) * digit
            out = [xu for x, u in out for xu in ((x, u & ~b), (x | 1 << j, u & b)) if xu[1]]
        return out

    def close(start: set[int], tables, partners: set[int] | None) -> set[int]:
        """start closed under f T g for T in tables, g in partners or else in all taken so far"""
        known, todo = set(start), list(start)

        def lift(gu: list[tuple[int, int]]) -> list[list[int]]:  # per table, x -> digit p is T[x][g[p]]
            return [[sum(row[y] * ones & u for y, u in gu) for row in rows] for rows in tables]

        lifted = [at_g for g in partners or () for at_g in lift(units(g))]
        while todo and len(known) < every:
            fu = units(todo.pop())
            if partners is None:
                lifted += lift(fu)
            for at_g in lifted:
                h = 0
                for x, mask in fu:
                    h |= at_g[x] & mask
                if h not in known:
                    known.add(h)
                    todo.append(h)
        return known

    gens = {alg.zero * ones, alg.one * ones}
    gens.update(sum(q[i] << width * p for p, q in enumerate(points)) for i in range(n))
    if alg._sums_of_products:
        products = close(gens, (alg.mul,), gens)
        return len(close(products, (alg.add,), products))
    return len(close(gens, alg._sides, None))
