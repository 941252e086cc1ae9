from __future__ import annotations

import itertools

import pytest

from misr import (
    BUILTIN_NAMES,
    FiniteSemiring,
    boolean_lattice,
    builtin,
    check_axioms,
    clone_count,
    direct_product,
    enumerate_reduced,
    eval_term,
    find_reducible,
    lplus1,
    monomials_over,
    normalize,
    parse,
    rep_text,
)
from misr.enumeration import _listing
from random import Random

from support import (
    T3_ADD,
    T3_LABELS,
    T3_MUL,
    clone_count_by_rounds,
    enumerate_by_placement,
    monomial_key,
    random_tables,
    rebuild,
)

T3 = builtin("t3")

NULLARY = ["0", "1", "1+1"]

UNARY = ["0", "1", "1+1", "1+x1", "x1", "x1+x1"]

# all reduced forms in two variables, in listing order ('*' sorts before '+')
BINARY = [
    "0",
    "1",
    "1+1",
    "1+x1",
    "1+x1*x2",
    "1+x1+x2",
    "1+x2",
    "x1",
    "x1*x2",
    "x1*x2+x1*x2",
    "x1+x1",
    "x1+x1*x2",
    "x1+x1+x2",
    "x1+x1+x2+x2",
    "x1+x2",
    "x1+x2+x2",
    "x2",
    "x2+x1*x2",
    "x2+x2",
]

# the classical list of 18 misses exactly one form
CLASSICAL_18 = [t for t in BINARY if t != "x1+x1+x2+x2"]


def texts(n):
    return [rep_text(r) for r in enumerate_reduced(n)]


def test_nullary_listing():
    assert texts(0) == NULLARY


def test_unary_listing():
    assert texts(1) == UNARY


def test_binary_listing():
    got = texts(2)
    assert len(got) == 19
    assert got == BINARY
    assert set(CLASSICAL_18) < set(got)
    assert set(got) - set(CLASSICAL_18) == {"x1+x1+x2+x2"}


def test_every_listed_rep_is_reduced_and_canonical():
    subsets = monomials_over(4)
    assert len(subsets) == 16 and list(subsets) == sorted(set(subsets), key=monomial_key)
    for n in range(3):
        for rep in enumerate_reduced(n):
            assert find_reducible(rep) is None
            assert list(rep) == sorted(rep, key=lambda m: (len(m), tuple(sorted(m))))
            for mono in set(rep):
                assert rep.count(mono) <= 2
            assert normalize(parse(rep_text(rep))) == rep


def test_extra_binary_form_is_genuinely_new():
    # x1+x1+x2+x2 induces a t3 function distinct from all classical forms
    def table(text):
        t = parse(text)
        return tuple(
            eval_term(T3, t, {1: x, 2: y}) for x in range(3) for y in range(3)
        )

    extra = table("x1+x1+x2+x2")
    assert extra not in {table(s) for s in CLASSICAL_18}


def test_clone_counts_on_t3():
    assert clone_count(T3, 0) == 3
    assert clone_count(T3, 1) == 6
    assert clone_count(T3, 2) == 19
    assert clone_count(T3, 3) == 135
    assert clone_count(T3, 4) == len(enumerate_reduced(4, cap=4)) == 4134
    with pytest.raises(ValueError, match="arity must be non-negative"):
        clone_count(T3, -1)


def test_clone_count_on_two_lattice():
    # oracle first: close {const 0, const 1, x} under the two tables by hand.
    # carrier {0,1}, join and meet. tables as value vectors over x in {0,1}:
    two = builtin("two")
    tables = {(0, 0), (1, 1), (0, 1)}
    grew = True
    while grew:
        grew = False
        for f in list(tables):
            for g in list(tables):
                j = tuple(two.add[a][b] for a, b in zip(f, g))
                m = tuple(two.mul[a][b] for a, b in zip(f, g))
                for h in (j, m):
                    if h not in tables:
                        tables.add(h)
                        grew = True
    assert len(tables) == 3
    assert clone_count(two, 1) == 3


def seeded_cases():
    """Random tables, each with the arities at which the closure cross-check
    counts it."""
    rng = Random(20261020)
    cases = []
    for i in range(300):
        alg = random_tables(rng, rng.randint(2, 3), i % 2 == 0)
        cases += [(alg, n) for n in range(4 - alg.size)]
    for i in range(20):
        alg = random_tables(rng, rng.randint(4, 5), i % 2 == 0)
        cases += [(alg, n) for n in range(6 - alg.size)]
        # 6 elements in 3-bit digits, with at most 4 * 27 unary functions
        alg = direct_product(random_tables(rng, 2, i % 2 == 0), random_tables(rng, 3, i % 2 == 0))
        cases += [(alg, n) for n in range(2)]
    return cases


def test_clone_count_agrees_with_closure_in_rounds():
    # half of the random tables are non-commutative, so that a closure
    # missing g+f or g*f for f+g or f*g gives a different count; the sizes
    # give digits of 1 bit (k = 1, 2), 2 bits (k = 3, 4), 3 bits (k = 5, 6)
    # and 5 bits (the 17 elements of lplus1(B_4))
    one = FiniteSemiring("one", ("0",), ((0,),), ((0,),), 0, 0)
    # the 3-element chain with + as max and x*y = x: a semiring whose * is
    # not commutative
    max_add, left_mul = ((0, 1, 2), (1, 1, 2), (2, 2, 2)), ((0,) * 3, (1,) * 3, (2,) * 3)
    chain = FiniteSemiring("chain", ("0", "a", "1"), max_add, left_mul, 0, 2)
    cases = [(builtin(name), n) for name in ("two", "gf2", "t3", "s3") for n in range(4)]
    cases += [(builtin("gf3"), n) for n in range(2)] + [(chain, n) for n in range(4)]
    for a, b in itertools.combinations_with_replacement(BUILTIN_NAMES, 2):
        cases += [(direct_product(builtin(a), builtin(b)), n) for n in range(2)]
    cases += [(one, n) for n in range(4)] + [(lplus1(boolean_lattice(4)), n) for n in range(2)]
    # the two-phase closure past n = 1 on products, and at n = 3 on lplus1
    cases += [(direct_product(builtin(a), builtin("two")), 2) for a in ("t3", "s3")]
    cases += [(lplus1(boolean_lattice(2)), 3)]
    for alg, n in cases + seeded_cases():
        assert clone_count(alg, n) == clone_count_by_rounds(alg, n), (alg, n)


@pytest.mark.parametrize(
    "name, table, cell, broken",
    [
        ("t3", "add", ("a", "1", "1"), "add-associative"),
        ("t3", "mul", ("a", "1", "1"), "distributive-right"),
        ("t3", "mul", ("1", "a", "1"), "distributive-left"),
        ("s3", "mul", ("0", "a", "1"), "mul-associative"),
    ],
)
def test_clone_count_checks_every_law_of_sums_of_products(name, table, cell, broken):
    # one changed cell breaks exactly one of the four laws under which the
    # term functions are sums of products; counting them so would be wrong
    alg = builtin(name)
    x, y, v = (alg.index(label) for label in cell)
    rows = [list(row) for row in getattr(alg, table)]
    rows[x][y] = v
    # the original's verdict, memoized first, must not carry over to the copy
    assert clone_count(alg, 2) == clone_count_by_rounds(alg, 2)
    alg = rebuild(alg, **{table: tuple(map(tuple, rows))})
    laws = ("add-associative", "mul-associative", "distributive-left", "distributive-right")
    assert [law for law in laws if not check_axioms(alg).ok(law)] == [broken]
    assert clone_count(alg, 2) == clone_count_by_rounds(alg, 2)


def test_sums_of_products_verdict_is_the_law_check():
    laws = ("add-associative", "mul-associative", "distributive-left", "distributive-right")
    algebras = [builtin(name) for name in BUILTIN_NAMES]
    algebras += [direct_product(a, b) for a in algebras for b in algebras]
    algebras += dict.fromkeys(alg for alg, _ in seeded_cases())
    for alg in algebras:
        expected = all(check_axioms(alg).ok(law) for law in laws)
        assert alg._sums_of_products is expected, alg
        assert alg.__dict__["_sums_of_products"] is expected, alg  # memoized
        # the memo stays out of the fields, equality, hashing and repr
        copy = rebuild(alg)
        assert copy == alg and hash(copy) == hash(alg) and repr(copy) == repr(alg)
        assert "_sums_of_products" not in copy.__dict__


def test_clone_count_stops_at_the_full_clone():
    # a non-commutative table on 4 elements whose unary term functions are
    # all 4^4 functions; the closure has nothing left to find once it holds them
    alg = random_tables(Random(20261021), 4, False)
    assert clone_count(alg, 1) == clone_count_by_rounds(alg, 1) == 4**4


@pytest.mark.parametrize(
    "k, n", [(2, n) for n in range(5)] + [(3, n) for n in range(5)] + [(4, n) for n in range(4)]
)
def test_lplus1_generates_the_variety(k, n):
    # a single semiring generates the variety: the term functions of
    # lplus1(B_k) are as many as the reduced forms
    assert clone_count(lplus1(boolean_lattice(k)), n) == len(enumerate_reduced(n, cap=4))


def test_listing_is_in_bijection_with_t3_tables():
    for n in range(3):
        seen = set()
        for rep in enumerate_reduced(n):
            t = parse(rep_text(rep))
            tab = tuple(
                eval_term(T3, t, dict(zip(range(1, n + 1), point)))
                for point in __import__("itertools").product(range(3), repeat=n)
            )
            assert tab not in seen
            seen.add(tab)
        assert len(seen) == clone_count(T3, n)


def test_free_spectrum():
    assert [len(enumerate_reduced(n)) for n in range(4)] == [3, 6, 19, 135]
    assert [rep_text(r) for r in enumerate_reduced(1)] == UNARY


def test_arity_cap():
    with pytest.raises(ValueError):
        enumerate_reduced(4)
    with pytest.raises(ValueError):
        enumerate_reduced(-1)
    with pytest.raises(ValueError):
        enumerate_reduced(2, cap=1)
    assert len(enumerate_reduced(1, cap=1)) == 6


@pytest.mark.parametrize("n", [True, False, 2.0, "2", None])
def test_arity_must_be_an_int(n):
    # True would pass for 1 and list or count the unary functions; 2.0 would
    # fail deep inside itertools
    for call in (lambda: clone_count(T3, n), lambda: enumerate_reduced(n), lambda: _listing(n, 3)):
        with pytest.raises(TypeError, match="^arity must be an int, got "):
            call()


def test_three_variable_count():
    assert len(enumerate_reduced(3)) == 135


def test_no_listing_above_five_variables():
    # F(6) has 125 176 288 470 forms: no cap admits it, and the refusal
    # comes before any work
    for n in (6, 7, 10**9):
        with pytest.raises(ValueError, match="exceeds 5"):
            enumerate_reduced(n, cap=n)


# --- the walk against the placement it replaced -----------------------------------

@pytest.mark.parametrize("n", range(5))
def test_walk_agrees_with_placement(n):
    assert enumerate_reduced(n, cap=4) == enumerate_by_placement(n)


# --- the construction against the filter it replaced ------------------------------

def enumerate_by_filter(n):
    """The 3^(2^n) filter that enumerate_reduced replaced: every multiplicity
    vector in {0,1,2}^(2^n) whose form has no deletion triple."""
    subsets = monomials_over(n)
    reps = []
    for mults in itertools.product((0, 1, 2), repeat=len(subsets)):
        rep = tuple(s for s, m in zip(subsets, mults) for _ in range(m))
        if find_reducible(rep) is None:
            reps.append(rep)
    reps.sort(key=rep_text)
    return reps


@pytest.mark.parametrize("n", range(4))
def test_construction_agrees_with_filter(n):
    assert enumerate_reduced(n) == enumerate_by_filter(n)


def t3_label_table(rep, points):
    """The value table of a reduced form over t3, folded from the label tables."""
    table = []
    for point in points:
        total = "0"
        for mono in rep:
            prod = "1"
            for i in mono:
                prod = T3_MUL[(prod, point[i - 1])]
            total = T3_ADD[(total, prod)]
        table.append(total)
    return tuple(table)


def test_four_variable_listing():
    reps = enumerate_reduced(4, cap=4)
    assert len(reps) == 4134
    assert len(set(reps)) == 4134
    assert [rep_text(r) for r in reps] == sorted(rep_text(r) for r in reps)
    assert all(find_reducible(r) is None for r in reps)
    points = list(itertools.product(T3_LABELS, repeat=4))
    assert len({t3_label_table(r, points) for r in reps}) == 4134
