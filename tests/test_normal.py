from __future__ import annotations

import itertools
import time
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misr import (
    Add,
    Var,
    boolean_lattice,
    builtin,
    decide_equal,
    eval_term,
    find_reducible,
    flatten,
    lplus1,
    normalize,
    parse,
    reduce_rep,
    rep_text,
)
from support import (
    T3_ADD,
    T3_LABELS,
    T3_MUL,
    eval_labels,
    expand,
    monomial_key,
    random_term,
    reference_to_text,
    t3_agree,
    terms_strategy,
)

E = frozenset()


def m(*indices: int) -> frozenset[int]:
    return frozenset(indices)


# --- flatten -----------------------------------------------------------------

def test_flatten_examples():
    assert flatten(parse("(x+y)*z")) == (m(1, 3), m(2, 3))
    assert flatten(parse("x*(1+1)")) == (m(1), m(1))
    assert flatten(parse("0*x+1")) == (E,)


def test_flatten_keeps_duplicates_and_sorts():
    assert flatten(parse("y+x+y")) == (m(1), m(2), m(2))
    assert flatten(parse("x*x*y")) == (m(1, 2),)


@given(terms_strategy())
def test_flatten_output_is_sorted(t):
    rep = flatten(t)
    keys = [monomial_key(mo) for mo in rep]
    assert keys == sorted(keys)


def reduced_expansion(t):
    return reduce_rep(sorted(expand(t), key=monomial_key))


def test_flatten_agrees_with_recursive_reference():
    rng = Random(20261019)
    for _ in range(2000):
        t = random_term(rng, rng.randint(1, 40), rng.randint(0, 6))
        assert flatten(t) == reduced_expansion(t)


@given(terms_strategy(max_index=5, max_leaves=30))
def test_flatten_agrees_with_reduced_expansion(t):
    assert flatten(t) == reduced_expansion(t)


@pytest.mark.parametrize("name", ["s3", "gf2", "two"])
@given(t=terms_strategy())
def test_flatten_sound_in_commutative_idempotent_models(name, t):
    # the expansion that flatten reduces uses only laws that hold in every
    # commutative multiplicatively idempotent semiring, so it preserves
    # value in s3, gf2 and the two-element lattice as well
    alg = builtin(name)
    u = parse(rep_text(expand(t)))
    for point in itertools.product(range(alg.size), repeat=3):
        env = {i + 1: point[i] for i in range(3)}
        assert eval_term(alg, t, env) == eval_term(alg, u, env)


@pytest.mark.parametrize(
    "alg", [builtin("t3"), builtin("two"), lplus1(boolean_lattice(2))], ids=["t3", "two", "lplus1_b2"]
)
@given(t=terms_strategy())
def test_flatten_sound_in_members_of_the_variety(alg, t):
    # flatten also deletes absorbed summands, which preserves value only in
    # models of the absorption law
    u = parse(rep_text(flatten(t)))
    for point in itertools.product(range(alg.size), repeat=3):
        env = {i + 1: point[i] for i in range(3)}
        assert eval_term(alg, t, env) == eval_term(alg, u, env)


def test_flatten_reduces_2_to_the_60_summands():
    assert flatten(parse("*".join(["(1+1)"] * 60))) == (E, E)


def test_flatten_product_of_30_units_is_linear():
    t = parse("*".join(f"(1+x{i})" for i in range(1, 31)))
    assert flatten(t) == (E,) + tuple(m(i) for i in range(1, 31))


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_long_sums_normalize_in_linear_time(nesting):
    # a sum is concatenated, not reduced, so 16 000 summands take one pass
    # nested either way; reducing at every sum took tens of seconds
    t = Var(1)
    for i in range(1, 16_000):
        t = Add(t, Var(i % 100 + 1)) if nesting == "left" else Add(Var(i % 100 + 1), t)
    t0 = time.perf_counter()
    rep = normalize(t)
    assert time.perf_counter() - t0 < 1.0
    assert rep == tuple(m(i) for i in range(1, 101) for _ in range(2))


# --- find_reducible / reduce -------------------------------------------------

def test_find_reducible_picks_largest_absorbing_position():
    assert find_reducible((m(1), m(1), m(1))) == (0, 1, 2)
    assert find_reducible((m(1), m(2), m(1, 2, 3))) == (0, 1, 2)
    assert find_reducible((m(1), m(1, 2))) is None


def test_find_reducible_empty_and_singletons():
    assert find_reducible(()) is None
    assert find_reducible((E,)) is None
    assert find_reducible((E, E)) is None


def test_reduce_absorbs_into_double_unit():
    # oracle first: 1+1+x+x*y+x*y and 1+1 agree at every T3 point,
    # checked with the independent label evaluator
    lhs, rhs = parse("1+1+x+x*y+x*y"), parse("1+1")
    for px in T3_LABELS:
        for py in T3_LABELS:
            env = {1: px, 2: py}
            assert eval_labels(lhs, env, T3_ADD, T3_MUL) == eval_labels(
                rhs, env, T3_ADD, T3_MUL
            )
    assert reduce_rep((E, E, m(1), m(1, 2), m(1, 2))) == (E, E)


def test_reduce_leaves_reduced_input_alone():
    assert reduce_rep((m(1), m(1, 2))) == (m(1), m(1, 2))
    assert reduce_rep(()) == ()


def test_triple_occurrence_collapses_to_double():
    assert reduce_rep((m(1), m(1), m(1))) == (m(1), m(1))


def fixpoint_reduce(rep):
    # the deletion loop reduce_rep replaced, kept as its reference
    items = list(rep)
    while (triple := find_reducible(tuple(items))) is not None:
        del items[triple[2]]
    return tuple(items)


@st.composite
def summand_tuples(draw):
    # arbitrary multisets of monomials, the empty one included, each drawn
    # monomial repeated up to 4 times; half are left out of size order
    monos = draw(st.lists(st.frozensets(st.integers(1, 5), max_size=5), max_size=8))
    items = [mono for mono in monos for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        return tuple(sorted(items, key=monomial_key))
    return tuple(draw(st.permutations(items)))


@st.composite
def one_size_tuples(draw):
    # monomials of one size, in any order: distinct ones, which reduce_rep
    # returns at once, or with up to 3 copies of each, which it must reduce
    size = draw(st.integers(0, 3))
    subsets = [frozenset(c) for c in itertools.combinations(range(1, 6), size)]
    monos = draw(st.lists(st.sampled_from(subsets), unique=True, min_size=1, max_size=8))
    most = draw(st.sampled_from((1, 3)))
    items = [mono for mono in monos for _ in range(draw(st.integers(1, most)))]
    return tuple(draw(st.permutations(items)))


@given(summand_tuples() | one_size_tuples())
@example((m(1), E, m(1), m(1)))
@example((m(2, 3), m(1, 2), m(3, 4), m(1, 3)))  # one size, distinct, out of order
@example((m(1, 2), m(2, 3), m(1, 2)))  # one size, one pair of copies
@example((m(2), m(1), m(2), m(3), m(2)))  # three copies: the pass cuts them to two
@example((E, E, E))
def test_reduce_agrees_with_deletion_fixpoint(rep):
    assert reduce_rep(rep) == fixpoint_reduce(rep)


def test_reduce_keeps_antichain_of_1024_products():
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(10)]
    rep = flatten(parse("*".join(f"(x{a}+x{b})" for a, b in pairs)))
    assert sorted(rep, key=monomial_key) == sorted(
        (frozenset(c) for c in itertools.product(*pairs)), key=monomial_key
    )
    assert reduce_rep(rep) == rep


def test_reduce_product_of_units_to_linear_sum():
    t = parse("*".join(f"(1+x{i})" for i in range(1, 11)))
    rep = tuple(sorted(expand(t), key=monomial_key))
    assert len(rep) == 1024
    assert reduce_rep(rep) == (E,) + tuple(m(i) for i in range(1, 11))
    assert flatten(t) == reduce_rep(rep)


def test_reduce_64_copies_of_one_to_two():
    t = parse("((1+1)*((1+1)+(1+1)))*((1+1)*((1+1)+(1+1)))")
    rep = tuple(expand(t))
    assert rep == (E,) * 64
    assert reduce_rep(rep) == (E, E)
    assert flatten(t) == (E, E)


# --- normalize ---------------------------------------------------------------

def test_normalize_examples():
    assert normalize(parse("x+y+x*y*z")) == (m(1), m(2))
    assert normalize(parse("1+x+x")) == (E, m(1))
    assert normalize(parse("0")) == ()


def test_normalize_accepts_unit_absorption():
    assert rep_text(normalize(parse("1+x+x*y"))) == "1+x1"
    assert rep_text(normalize(parse("x+x+x"))) == "x1+x1"


@given(terms_strategy())
def test_normalize_output_is_reduced_with_low_multiplicity(t):
    rep = normalize(t)
    assert find_reducible(rep) is None
    keys = [monomial_key(mo) for mo in rep]
    assert keys == sorted(keys)
    for mono in set(rep):
        assert rep.count(mono) <= 2


@given(terms_strategy())
def test_double_unit_absorbs_everything(t):
    assert normalize(parse("1+1") + t) == (E, E)


@given(terms_strategy())
def test_normalize_is_idempotent(t):
    rep = normalize(t)
    assert normalize(parse(rep_text(rep))) == rep


@given(terms_strategy())
def test_normalize_preserves_t3_value(t):
    assert t3_agree(t, parse(rep_text(normalize(t))))


def test_randomized_deletion_order_reaches_same_form():
    deleted = []

    def deletable(rep):
        # a triple (i, j, k) exists iff two other positions lie inside
        # rep[k], since rep[i] | rep[j] <= rep[k] iff both are subsets
        return [
            k
            for k in range(len(rep))
            if sum(p != k and rep[p] <= rep[k] for p in range(len(rep))) >= 2
        ]

    # no deadline: the time it would measure is the O(m^2) deletable
    # oracle's, not normalize's
    @settings(deadline=None)
    @given(terms_strategy())
    # expands to 64 copies of the empty monomial, so the walk must delete
    # 62 positions; pinned so that the longest walk runs on every run
    @example(parse("((1+1)*((1+1)+(1+1)))*((1+1)*((1+1)+(1+1)))"))
    @example(parse("x+x+x"))
    def walk(t):
        # from the unreduced expansion: flatten's output is already reduced
        # and would leave nothing to delete
        rng = Random(reference_to_text(t))
        rep = expand(t)
        size = len(rep)
        while positions := deletable(rep):
            del rep[rng.choice(positions)]
        deleted.append(len(rep) < size)
        assert tuple(sorted(rep, key=monomial_key)) == normalize(t)

    walk()
    # the two pinned examples always delete, and 4-30% of the random terms do
    assert sum(deleted) >= 2


# --- rep_text / decide_equal -------------------------------------------------

def test_rep_text_matches_printed_term():
    reps = [(), (E,), (E, E), (m(1),), (m(1), m(1, 2)), (m(2, 5), m(1, 2, 3))]
    texts = ["0", "1", "1+1", "x1", "x1+x1*x2", "x2*x5+x1*x2*x3"]
    assert [rep_text(rep) for rep in reps] == texts


def test_decide_equal_examples():
    assert decide_equal(parse("x+y+x*y*z"), parse("y+x"))
    assert not decide_equal(parse("1+x+x"), parse("1"))
    assert decide_equal(parse("x*(y+z)"), parse("x*y+x*z"))


def test_decide_equal_random_pairs_match_t3_oracle():
    from support import random_term

    rng = Random(20240817)
    for _ in range(300):
        t = random_term(rng, 20, 3)
        u = random_term(rng, 20, 3)
        assert decide_equal(t, u) == t3_agree(t, u)
