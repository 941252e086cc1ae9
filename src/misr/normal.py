"""Sum-of-products forms and the equality decision.

A monomial is the frozenset of variable indices of a square-free product;
the empty monomial is the constant 1.  Every term expands to a multiset of
monomials.  Deleting a summand k whenever two other summands i, j satisfy
I_i ∪ I_j ⊆ I_k (which forces I_i ⊆ I_k and I_j ⊆ I_k) is sound under the
absorption law x+y+x*y*z = x+y, and the surviving reduced form is a unique
normal form: two terms denote the same element of the free algebra exactly
when their reduced forms coincide.  reduce_rep makes all the deletions in
one pass over the summands by size, skipped when they are distinct and of
one size (sets of one size never nest), normalize (also named flatten) runs
it at every product while it expands a term, and find_reducible locates a
single deletion triple.
"""

from __future__ import annotations

import itertools

from .terms import One, Term, Var, parse, postfix

Monomial = frozenset[int]
SumOfProducts = tuple[Monomial, ...]


def monomials_over(n: int) -> tuple[Monomial, ...]:
    """All subsets of {1..n} in (size, sorted indices) order, which is the
    order combinations yields them in over ascending sizes."""
    return tuple(
        frozenset(c)
        for r in range(n + 1)
        for c in itertools.combinations(range(1, n + 1), r)
    )


def normalize(t: Term) -> SumOfProducts:
    """The unique reduced form of t, sorted by (size, sorted indices).
    Each product is reduced as soon as it is expanded from reduced
    operands, so no multiplicity ever exceeds 2; a sum is only
    concatenated, and reduced as an operand or root.

    >>> rep_text(normalize(parse("x+y+x*y*z")))
    'x1+x2'
    """
    # a tuple is reduced, and so is a list of fewer than 3 summands; a sum
    # extends the longer operand in place as a list, so that a long sum takes
    # linear time nested either way (reducing it at every + is quadratic)
    stack: list[SumOfProducts | list[Monomial]] = []
    for op in postfix(t):
        if op is False:
            right = stack.pop()
            if len(right) > len(stack[-1]):
                stack[-1], right = right, stack[-1]
            if type(stack[-1]) is tuple:
                stack[-1] = list(stack[-1])
            stack[-1] += right
        elif op is True:
            right = stack.pop()
            left = stack[-1]
            if len(left) > 2 and type(left) is list:
                left = reduce_rep(left)
            if len(right) > 2 and type(right) is list:
                right = reduce_rep(right)
            product = [a | b for a in left for b in right]
            stack[-1] = reduce_rep(product) if len(product) > 2 else product
        elif isinstance(op, Var):
            stack.append([frozenset((op.index,))])
        else:
            stack.append([frozenset()] if isinstance(op, One) else [])
    rep = stack[0]
    # (size, sorted indices) order, without building a key tuple per monomial
    rep = sorted(reduce_rep(rep) if type(rep) is list else rep, key=sorted)
    rep.sort(key=len)
    return tuple(rep)


flatten = normalize


def find_reducible(rep: SumOfProducts) -> tuple[int, int, int] | None:
    """Locate an absorbable summand, or None if rep is reduced.

    Returns 0-based positions (i, j, k) with i, j, k pairwise distinct and
    I_i ∪ I_j ⊆ I_k.  Deterministic strategy: k is the largest position
    participating in any such triple, i and j are the two smallest
    positions (other than k) whose monomials are contained in I_k.
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


def reduce_rep(rep: SumOfProducts | list[Monomial]) -> SumOfProducts:
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
    and with a tally of its own kept copies.  Distinct summands of one size,
    such as the expansion of (x1+x2)*(x3+x4), are returned at once: two
    distinct sets of one size never nest, so none is deleted.
    """
    if len(rep) < 3:
        return tuple(rep)
    sizes = [len(mono) for mono in rep]
    if sizes.count(sizes[0]) == len(rep) and len(set(rep)) == len(rep):
        return tuple(rep)
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


def rep_text(rep: SumOfProducts) -> str:
    """Canonical text: monomials joined by '+', empty monomial '1', empty sum '0'."""
    if not rep:
        return "0"
    name = {i: f"x{i}" for i in frozenset().union(*rep)}.__getitem__
    return "+".join("*".join(map(name, sorted(m))) if m else "1" for m in rep)


def decide_equal(t: Term, u: Term) -> bool:
    """Word problem: do t and u denote the same element of the free algebra?"""
    return normalize(t) == normalize(u)

