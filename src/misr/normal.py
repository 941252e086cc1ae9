"""Sum-of-products forms and the equality decision.

A monomial is the frozenset of variable indices of a square-free product;
the empty monomial is the constant 1.  Every term flattens to a sorted
multiset of monomials.  Deleting a summand k whenever two other summands
i, j satisfy I_i ∪ I_j ⊆ I_k (which forces I_i ⊆ I_k and I_j ⊆ I_k) is
sound under the absorption law x+y+x*y*z = x+y, and the surviving reduced
form is a unique normal form: two terms denote the same element of the
free algebra exactly when their reduced forms coincide.  reduce_rep makes
all the deletions in one pass over the summands in nondecreasing size;
find_reducible locates a single deletion triple.
"""

from __future__ import annotations

from .terms import Add, Mul, Term, Var, Zero, One, ZERO, ONE, parse

Monomial = frozenset[int]
SumOfProducts = tuple[Monomial, ...]


def monomial_key(m: Monomial) -> tuple[int, tuple[int, ...]]:
    """Sort key: cardinality first, then the sorted index tuple."""
    return (len(m), tuple(sorted(m)))


def monomial_leq(i: Monomial, j: Monomial) -> bool:
    """Total order on monomials: |I| < |J|, or equal size and lexicographically smaller."""
    return monomial_key(i) <= monomial_key(j)


def flatten(t: Term) -> SumOfProducts:
    """Expand t into a sorted multiset of monomials (duplicates kept).

    Valid in every commutative multiplicatively idempotent semiring: only
    distribution, commutation, x*x = x, and the constant laws are used.
    """
    return tuple(sorted(_monomials(t), key=monomial_key))


def _monomials(t: Term) -> list[Monomial]:
    match t:
        case Zero():
            return []
        case One():
            return [frozenset()]
        case Var(i):
            return [frozenset((i,))]
        case Add(l, r):
            return _monomials(l) + _monomials(r)
        case Mul(l, r):
            left, right = _monomials(l), _monomials(r)
            return [a | b for a in left for b in right]
    raise TypeError(f"not a term: {t!r}")


def find_reducible(rep: SumOfProducts) -> tuple[int, int, int] | None:
    """Locate an absorbable summand, or None if rep is reduced.

    Returns 0-based positions (i, j, k) with i, j, k pairwise distinct and
    I_i ∪ I_j ⊆ I_k.  Deterministic strategy: k is the largest position
    participating in any such triple, i and j are the two smallest
    positions (other than k) whose monomials are contained in I_k.
    Used by is_reduced and by enumerate_reduced; reduce_rep does not need it.
    """
    for k in range(len(rep) - 1, -1, -1):
        first = -1
        for p, mono in enumerate(rep):
            if p != k and mono <= rep[k]:
                if first < 0:
                    first = p
                else:
                    return (first, p, k)
    return None


def is_reduced(rep: SumOfProducts) -> bool:
    return find_reducible(rep) is None


def reduce_rep(rep: SumOfProducts) -> SumOfProducts:
    """Delete absorbable summands until none remain, in one pass.

    Summands are visited in nondecreasing size (stably, so copies in input
    order), and one is kept iff fewer than two kept summands lie inside it.
    A proper subset is smaller, so it is visited first; a deleted summand
    is never needed as a witness, since whatever contains it contains its
    two kept witnesses.  The result is the unique reduced form.  The
    survivors keep their input order, and of several copies of a monomial
    the first ones survive, as when the last absorbable position is deleted
    again and again.

    A summand is compared only with kept summands of strictly smaller size
    and with a tally of its own kept copies, so an antichain of equal-size
    summands costs linear time.
    """
    if len(rep) < 3:
        return tuple(rep)
    sizes = [len(mono) for mono in rep]
    order = range(len(rep))
    if sizes != sorted(sizes):
        order = sorted(order, key=sizes.__getitem__)
    smaller: list[Monomial] = []  # kept summands smaller than the current size
    same: list[Monomial] = []  # kept summands of the current size
    copies: dict[Monomial, int] = {}  # kept copies of each monomial
    size = -1
    kept: list[int] = []
    for p in order:
        mono = rep[p]
        if sizes[p] != size:
            smaller += same
            same = []
            size = sizes[p]
        inside = tally = copies.get(mono, 0)
        if inside < 2:
            for other in smaller:
                if other <= mono:
                    inside += 1
                    if inside == 2:
                        break
            else:
                kept.append(p)
                copies[mono] = tally + 1
                same.append(mono)
    kept.sort()
    return tuple(map(rep.__getitem__, kept))


def normalize(t: Term) -> SumOfProducts:
    """The unique reduced form of t: reduce_rep(flatten(t)).

    >>> rep_text(normalize(parse("x+y+x*y*z")))
    'x1+x2'
    """
    return reduce_rep(flatten(t))


def to_term(rep: SumOfProducts) -> Term:
    """Left-associated sum of left-associated ascending products."""
    if not rep:
        return ZERO
    total: Term | None = None
    for mono in rep:
        prod: Term | None = None
        for i in sorted(mono):
            prod = Var(i) if prod is None else Mul(prod, Var(i))
        if prod is None:
            prod = ONE
        total = prod if total is None else Add(total, prod)
    assert total is not None
    return total


def rep_text(rep: SumOfProducts) -> str:
    """Canonical text: monomials joined by '+', empty monomial '1', empty sum '0'."""
    if not rep:
        return "0"
    return "+".join(
        "*".join(f"x{i}" for i in sorted(m)) if m else "1" for m in rep
    )


def decide_equal(t: Term, u: Term) -> bool:
    """Word problem: do t and u denote the same element of the free algebra?"""
    return normalize(t) == normalize(u)

