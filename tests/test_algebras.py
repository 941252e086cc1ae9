from __future__ import annotations

import itertools
from pathlib import Path
from random import Random

import pytest

from misr import (
    ABSORPTION_LAW,
    AlgebraFormatError,
    BOOLEAN_LAW,
    BUILTIN_NAMES,
    DOUBLE_PRODUCT_ABSORPTION,
    FiniteSemiring,
    Identity,
    PRODUCT_ABSORPTION,
    boolean_lattice,
    builtin,
    check_axioms,
    direct_product,
    eval_term,
    format_algebra,
    holds,
    lplus1,
    parse,
    parse_algebra,
    parse_identity,
)
from support import T3_ADD, T3_LABELS, T3_MUL, random_term

T3 = builtin("t3")
S3 = builtin("s3")
TWO = builtin("two")
GF2 = builtin("gf2")
GF3 = builtin("gf3")


# --- builtins ----------------------------------------------------------------

def test_builtin_names():
    assert BUILTIN_NAMES == ("gf2", "gf3", "s3", "t3", "two")
    with pytest.raises(ValueError):
        builtin("t4")


def test_t3_tables():
    a, one = T3.index("a"), T3.index("1")
    assert T3.plus(one, one) == a
    assert T3.plus(a, one) == a
    assert T3.times(a, one) == a
    assert T3.times(a, a) == a
    assert T3.plus(T3.zero, one) == one
    assert T3.elements == ("0", "a", "1")


def test_t3_matches_independent_tables():
    assert T3.elements == T3_LABELS
    assert (T3.elements[T3.zero], T3.elements[T3.one]) == ("0", "1")
    for x, y in itertools.product(range(3), repeat=2):
        pair = (T3.elements[x], T3.elements[y])
        assert T3.elements[T3.add[x][y]] == T3_ADD[pair]
        assert T3.elements[T3.mul[x][y]] == T3_MUL[pair]


def test_s3_differs_from_t3_only_at_unit_sum():
    one = S3.index("1")
    assert S3.plus(one, one) == one
    assert S3.mul == T3.mul
    for i in range(3):
        for j in range(3):
            if (i, j) != (one, one):
                assert S3.add[i][j] == T3.add[i][j]


def test_gf2_is_xor_and():
    one = GF2.index("1")
    assert GF2.plus(one, one) == GF2.zero
    assert GF2.times(one, one) == one


def test_two_is_the_two_element_lattice():
    one = TWO.index("1")
    assert TWO.plus(one, one) == one
    assert TWO.plus(TWO.zero, one) == one
    assert TWO.times(TWO.zero, one) == TWO.zero


def test_malformed_tables_rejected():
    with pytest.raises(ValueError):
        FiniteSemiring("bad", ("0", "1"), ((0, 1),), ((0, 0), (0, 1)), 0, 1)
    with pytest.raises(ValueError):
        FiniteSemiring("bad", ("0", "0"), ((0, 0), (0, 0)), ((0, 0), (0, 0)), 0, 1)
    with pytest.raises(ValueError):
        FiniteSemiring("bad", ("0", "1"), ((0, 2), (0, 1)), ((0, 0), (0, 1)), 0, 1)


# --- evaluation --------------------------------------------------------------

def test_eval_examples():
    assert T3.elements[eval_term(T3, parse("1+1"), {})] == "a"
    env = {1: T3.index("1"), 2: T3.index("1"), 3: T3.index("1")}
    assert T3.elements[eval_term(T3, parse("x+y+x*y*z"), env)] == "a"
    assert T3.elements[eval_term(T3, parse("x+y"), env)] == "a"
    assert S3.elements[eval_term(S3, parse("1+1+1*x+1*x"), {1: S3.index("a")})] == "a"


def test_eval_unbound_variable():
    with pytest.raises(ValueError, match="unbound variable x2"):
        eval_term(T3, parse("x+y"), {1: 0})


# --- identities --------------------------------------------------------------

def test_absorption_holds_in_t3():
    assert holds(T3, ABSORPTION_LAW) == (True, None)


def test_boolean_law_fails_in_t3_with_least_witness():
    ok, env = holds(T3, BOOLEAN_LAW)
    assert not ok
    # first failure in element-index order: x = a
    assert env == {1: T3.index("a")}


def test_gf2_is_boolean_but_not_absorptive():
    assert holds(GF2, BOOLEAN_LAW)[0]
    ok, env = holds(GF2, ABSORPTION_LAW)
    assert not ok
    # independent oracle: first counterexample by direct GF(2) arithmetic
    expected = None
    for x, y, z in itertools.product((0, 1), repeat=3):
        if (x ^ y ^ (x & y & z)) != (x ^ y):
            expected = {1: x, 2: y, 3: z}
            break
    assert expected == {1: 1, 2: 1, 3: 1}
    assert env == expected


def test_two_satisfies_both_laws():
    assert holds(TWO, BOOLEAN_LAW)[0]
    assert holds(TWO, ABSORPTION_LAW)[0]
    assert holds(TWO, PRODUCT_ABSORPTION)[0]


def test_s3_separating_identity():
    ok, env = holds(S3, DOUBLE_PRODUCT_ABSORPTION)
    assert not ok
    assert env == {1: S3.index("1"), 2: S3.index("a")}
    # the witness evaluates to a on the left, 1 on the right
    assert S3.elements[eval_term(S3, DOUBLE_PRODUCT_ABSORPTION.lhs, env)] == "a"
    assert S3.elements[eval_term(S3, DOUBLE_PRODUCT_ABSORPTION.rhs, env)] == "1"


def test_parse_identity():
    ident = parse_identity("x+y = y+x")
    assert ident.lhs == parse("x+y")
    assert ident.rhs == parse("y+x")
    assert ident.variable_list() == [1, 2]
    with pytest.raises(ValueError):
        parse_identity("x+y")
    with pytest.raises(ValueError):
        parse_identity("x = y = z")


def test_closed_identity():
    ok, env = holds(T3, parse_identity("1+1 = 1"))
    assert not ok
    assert env == {}


# --- axiom reports -----------------------------------------------------------

def test_t3_axiom_report():
    report = check_axioms(T3)
    assert report.is_semiring
    assert report.is_commutative_idempotent
    assert report.is_absorptive
    assert not report.is_boolean
    assert all(c.ok for c in report.checks if c.name != "boolean-law")


def test_gf3_fails_mul_idempotence_at_two():
    report = check_axioms(GF3)
    assert report.is_semiring
    assert not report.is_commutative_idempotent
    check = report.check("mul-idempotent")
    assert not check.ok
    assert check.witness == ((1, GF3.index("2")),)
    # 2*2 = 1 != 2
    two = GF3.index("2")
    assert GF3.times(two, two) == GF3.index("1")


def test_two_satisfies_everything():
    report = check_axioms(TWO)
    assert all(c.ok for c in report.checks)
    assert report.is_boolean and report.is_absorptive


def test_s3_is_commutative_idempotent_but_not_absorptive():
    report = check_axioms(S3)
    assert report.is_commutative_idempotent
    assert not report.is_absorptive
    assert not report.is_boolean


# --- lattices and lplus1 -----------------------------------------------------

def test_boolean_lattice_shapes():
    b1 = boolean_lattice(1)
    assert b1.elements == ("0", "a")
    assert all(c.ok for c in check_axioms(b1).checks)
    b2 = boolean_lattice(2)
    assert b2.elements == ("0", "e1", "e2", "a")
    assert all(c.ok for c in check_axioms(b2).checks)
    for k in (0, 5):
        with pytest.raises(ValueError):
            boolean_lattice(k)


def test_lplus1_of_two_element_lattice_is_t3():
    alg = lplus1(boolean_lattice(1))
    assert alg.elements == T3.elements
    assert alg.add == T3.add
    assert alg.mul == T3.mul
    assert alg.zero == T3.zero
    assert alg.one == T3.one


def test_lplus1_unit_behaviour():
    alg = lplus1(boolean_lattice(2))
    assert alg.size == 5
    one = alg.one
    top = alg.index("a")
    assert alg.plus(one, one) == top
    assert alg.plus(alg.zero, one) == one
    for x in range(alg.size):
        assert alg.times(one, x) == x
        assert alg.times(x, one) == x


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lplus1_is_always_absorptive_never_boolean(k):
    report = check_axioms(lplus1(boolean_lattice(k)))
    assert report.is_absorptive
    assert not report.is_boolean


def test_lplus1_rejects_trivial_lattice():
    trivial = FiniteSemiring("one", ("0",), ((0,),), ((0,),), 0, 0)
    with pytest.raises(ValueError, match="trivial"):
        lplus1(trivial)


def test_lplus1_rejects_broken_lattice():
    bad = FiniteSemiring(
        "bad", ("0", "a"), ((0, 1), (1, 1)), ((0, 1), (0, 1)), 0, 1
    )
    with pytest.raises(ValueError, match="lattice"):
        lplus1(bad)


# A bounded distributive lattice, read with + as join and * as meet, is
# exactly a commutative multiplicatively idempotent semiring with x+x*y = x.
LATTICE_ABSORPTION = parse_identity("x+x*y = x")


def is_lattice_by_laws(alg):
    report = check_axioms(alg)
    return report.is_commutative_idempotent and holds(alg, LATTICE_ABSORPTION)[0]


def lplus1_accepts(alg):
    try:
        lplus1(alg)
    except ValueError as exc:
        assert "not a bounded distributive lattice" in str(exc)
        return False
    return True


def test_lplus1_rejects_semiring_that_is_not_a_lattice():
    # {0 < e < 1}: + is max and e*e = 0.  A commutative semiring with
    # x+x*y = x (so x+x = x), but x*x = x fails at e: not a lattice.
    e3 = FiniteSemiring(
        "e3",
        ("0", "e", "1"),
        ((0, 1, 2), (1, 1, 2), (2, 2, 2)),
        ((0, 0, 0), (0, 0, 1), (0, 1, 2)),
        0,
        2,
    )
    report = check_axioms(e3)
    assert report.is_semiring and report.ok("mul-commutative")
    assert holds(e3, LATTICE_ABSORPTION)[0]
    assert not report.ok("mul-idempotent")
    with pytest.raises(ValueError, match="idempotence fails at e"):
        lplus1(e3)


def test_lplus1_agrees_with_laws_on_all_two_element_tables():
    tables = [
        (row0, row1)
        for row0 in itertools.product(range(2), repeat=2)
        for row1 in itertools.product(range(2), repeat=2)
    ]
    accepted = 0
    for add, mul in itertools.product(tables, repeat=2):
        for zero, one in itertools.product(range(2), repeat=2):
            alg = FiniteSemiring("m", ("0", "a"), add, mul, zero, one)
            verdict = lplus1_accepts(alg)
            assert verdict == is_lattice_by_laws(alg), (add, mul, zero, one)
            accepted += verdict
    # the two-element chain, with either element as bottom
    assert accepted == 2


def test_lplus1_agrees_with_laws_on_mutants_of_b2():
    b2 = boolean_lattice(2)
    assert lplus1_accepts(b2) and is_lattice_by_laws(b2)
    n = b2.size
    for which, x, y, v in itertools.product((0, 1), range(n), range(n), range(n)):
        tables = [list(map(list, b2.add)), list(map(list, b2.mul))]
        if tables[which][x][y] == v:
            continue
        tables[which][x][y] = v
        add, mul = (tuple(map(tuple, t)) for t in tables)
        alg = FiniteSemiring("m", b2.elements, add, mul, b2.zero, b2.one)
        assert not lplus1_accepts(alg)
        assert not is_lattice_by_laws(alg)


def lattice_from_order(name, labels, less):
    """The lattice on labels ordered by the strict pairs in less (given
    transitively closed); the first label is bottom, the last top."""
    n = len(labels)
    leq = {
        (x, y)
        for x in range(n)
        for y in range(n)
        if x == y or (labels[x], labels[y]) in less
    }

    def least(cands, order):
        return next(z for z in cands if all(order(z, w) for w in cands))

    def join(x, y):
        ups = [z for z in range(n) if (x, z) in leq and (y, z) in leq]
        return least(ups, lambda z, w: (z, w) in leq)

    def meet(x, y):
        downs = [z for z in range(n) if (z, x) in leq and (z, y) in leq]
        return least(downs, lambda z, w: (w, z) in leq)

    rng = range(n)
    return FiniteSemiring(
        name,
        labels,
        tuple(tuple(join(x, y) for y in rng) for x in rng),
        tuple(tuple(meet(x, y) for y in rng) for x in rng),
        0,
        n - 1,
    )


def test_lplus1_rejects_non_distributive_lattices():
    labels = ("0", "e1", "e2", "a")
    square = {("0", "e1"), ("0", "e2"), ("0", "a"), ("e1", "a"), ("e2", "a")}
    b2 = lattice_from_order("b2", labels, square)
    assert (b2.add, b2.mul) == (boolean_lattice(2).add, boolean_lattice(2).mul)
    labels = ("0", "p", "q", "r", "a")
    bounds = {("0", x) for x in labels[1:]} | {(x, "a") for x in labels[1:4]}
    for name, less in (("m3", bounds), ("n5", bounds | {("p", "q")})):
        lat = lattice_from_order(name, labels, less)
        assert not is_lattice_by_laws(lat)
        assert not check_axioms(lat).ok("distributive-left")
        with pytest.raises(ValueError, match="distributivity fails"):
            lplus1(lat)


# --- products ----------------------------------------------------------------

def test_two_squared_is_a_bounded_distributive_lattice():
    sq = direct_product(TWO, TWO)
    report = check_axioms(sq)
    assert all(c.ok for c in report.checks)
    assert sq.size == 4


def test_product_sizes_and_laws():
    assert direct_product(T3, TWO).size == 6
    assert holds(direct_product(T3, T3), ABSORPTION_LAW)[0]


def test_product_preserves_theories_componentwise():
    rng = Random(7)
    sq = direct_product(T3, T3)
    for _ in range(25):
        t = random_term(rng, 12, 2)
        u = random_term(rng, 12, 2)
        ident = Identity(t, u)
        assert holds(sq, ident)[0] == holds(T3, ident)[0]


# --- the file format ---------------------------------------------------------

def test_format_round_trips_builtins():
    for name in BUILTIN_NAMES:
        alg = builtin(name)
        text = format_algebra(alg)
        again = parse_algebra(text)
        assert again == alg
        assert format_algebra(again) == text


def test_shipped_algebra_files_match_builtins():
    data = Path(__file__).resolve().parent.parent / "src" / "misr" / "data"
    for name in BUILTIN_NAMES:
        text = (data / f"{name}.alg").read_text(encoding="ascii")
        assert parse_algebra(text) == builtin(name)
        assert format_algebra(builtin(name)) == text


def test_parse_algebra_trailing_newlines_ok():
    text = format_algebra(T3) + "\n\n"
    assert parse_algebra(text) == T3


@pytest.mark.parametrize(
    "mutate,line",
    [
        (lambda ls: ["algebra"] + ls[1:], 1),
        (lambda ls: ls[:1] + ["elements 0 a 1"] + ls[2:], 2),
        (lambda ls: ls[:2] + ["zero: q"] + ls[3:], 3),
        (lambda ls: ls[:3] + ["one 1"] + ls[4:], 4),
        (lambda ls: ls[:4] + ["sum:"] + ls[5:], 5),
        (lambda ls: ls[:5] + ["0 a"] + ls[6:], 6),
        (lambda ls: ls[:7] + ["1 a q"] + ls[8:], 8),
        (lambda ls: ls + ["extra"], 13),
    ],
)
def test_parse_algebra_errors_name_the_line(mutate, line):
    lines = format_algebra(T3).rstrip("\n").split("\n")
    text = "\n".join(mutate(lines)) + "\n"
    with pytest.raises(AlgebraFormatError) as exc:
        parse_algebra(text)
    assert exc.value.line == line


def test_parse_algebra_truncated():
    lines = format_algebra(T3).rstrip("\n").split("\n")
    with pytest.raises(AlgebraFormatError) as exc:
        parse_algebra("\n".join(lines[:7]) + "\n")
    assert exc.value.line == 8
