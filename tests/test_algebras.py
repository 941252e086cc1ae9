from __future__ import annotations

import hashlib
import itertools
from pathlib import Path
from random import Random

import pytest

import misr.algebras
from misr import (
    ABSORPTION_LAW,
    Add,
    AlgebraFormatError,
    BOOLEAN_LAW,
    BUILTIN_NAMES,
    FiniteSemiring,
    Identity,
    Mul,
    ONE,
    TermSyntaxError,
    Var,
    ZERO,
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
from support import (
    T3_ADD, T3_LABELS, T3_MUL, eval_labels, lplus1_by_labels, random_tables, random_term, rebuild,
)

T3 = builtin("t3")
S3 = builtin("s3")
TWO = builtin("two")
GF2 = builtin("gf2")
GF3 = builtin("gf3")


# --- builtins ----------------------------------------------------------------

def test_builtin_names():
    assert BUILTIN_NAMES == ("gf2", "gf3", "s3", "t3", "two")
    with pytest.raises(ValueError, match=r"^unknown builtin algebra 't4'; choose from gf2, gf3, s3, t3, two$"):
        builtin("t4")


def test_builtin_is_loaded_once_per_name():
    assert builtin("t3") is builtin("t3") is builtin(name="t3")


def test_t3_tables():
    a, one = T3.index("a"), T3.index("1")
    assert T3.add[one][one] == a
    assert T3.add[a][one] == a
    assert T3.mul[a][one] == a
    assert T3.mul[a][a] == a
    assert T3.add[T3.zero][one] == one
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
    assert S3.add[one][one] == one
    assert S3.mul == T3.mul
    for i in range(3):
        for j in range(3):
            if (i, j) != (one, one):
                assert S3.add[i][j] == T3.add[i][j]


def test_gf2_is_xor_and():
    one = GF2.index("1")
    assert GF2.add[one][one] == GF2.zero
    assert GF2.mul[one][one] == one


def test_two_is_the_two_element_lattice():
    one = TWO.index("1")
    assert TWO.add[one][one] == one
    assert TWO.add[TWO.zero][one] == one
    assert TWO.mul[TWO.zero][one] == TWO.zero


def test_malformed_tables_rejected():
    with pytest.raises(ValueError):
        FiniteSemiring("bad", ("0", "1"), ((0, 1),), ((0, 0), (0, 1)), 0, 1)
    with pytest.raises(ValueError):
        FiniteSemiring("bad", ("0", "0"), ((0, 0), (0, 0)), ((0, 0), (0, 0)), 0, 1)
    with pytest.raises(ValueError):
        FiniteSemiring("bad", ("0", "1"), ((0, 2), (0, 1)), ((0, 0), (0, 1)), 0, 1)
    with pytest.raises(ValueError, match="carrier must be non-empty"):
        FiniteSemiring("bad", (), (), (), 0, 0)
    with pytest.raises(ValueError, match="one index out of range"):
        FiniteSemiring("bad", ("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 2)


def test_model_keeps_no_list_of_its_caller():
    elements, add, mul = ["0", "a"], [[0, 1], [1, 1]], [[0, 0], [0, 1]]
    alg = FiniteSemiring("lists", elements, add, mul, 0, 1)
    expected = FiniteSemiring("lists", ("0", "a"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1)
    elements[0], add[1][1], mul[1][1] = "x", 7, 7
    add.append([0, 0])
    assert alg == expected and hash(alg) == hash(expected)
    assert all(c.ok for c in check_axioms(alg).checks)
    assert alg._sides == (alg.add, alg.mul)  # each commutative table read once


@pytest.mark.parametrize("bad, bad_zero", [(1.0, 0.0), (True, False)])
def test_model_entries_zero_and_one_must_be_ints(bad, bad_zero):
    # each value passes the range check, so only its type can reject it
    fields = {"add": ((0, 1), (1, 1)), "mul": ((0, 0), (0, 1)), "zero": 0, "one": 1}
    changes = [
        {"add": ((0, 1), (1, bad))},
        {"mul": ((0, 0), (0, bad))},
        {"zero": bad_zero},
        {"one": bad},
    ]
    for change in changes:
        with pytest.raises(TypeError, match="^table entries, zero and one must be ints$"):
            FiniteSemiring("m", ("0", "a"), **{**fields, **change})


def test_model_name_and_labels_must_be_strs():
    # None and 1 have no split(), and a str of elements would be read as one
    # label per character: "a1" as the carrier (a, 1)
    tables = ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1
    for name, elements in [(None, ("0", "a")), (2, ("0", "a")), ("m", ("0", 1)), ("m", (b"0", "a")), ("m", "0a")]:
        with pytest.raises(TypeError, match="^name and labels must be strs, and elements not a str$"):
            FiniteSemiring(name, elements, *tables)
    with pytest.raises(TypeError, match="^name and labels must be strs"):
        FiniteSemiring("m", "", (), (), 0, 0)  # a TypeError, not the empty-carrier ValueError
    assert FiniteSemiring("m", ["0", "a"], *tables).elements == ("0", "a")


# --- the translation tables of congruences and clones -------------------------

def test_sides_lists_each_distinct_table_once():
    # add by rows, add by columns, mul by rows, mul by columns, each distinct one once
    for alg in [builtin(name) for name in BUILTIN_NAMES] + [lplus1(boolean_lattice(k)) for k in range(1, 7)]:
        assert alg._sides == (alg.add, alg.mul)
        assert alg.__dict__["_sides"] is alg._sides  # computed once per algebra
    join = ((0, 1, 2), (1, 1, 2), (2, 2, 2))  # max on the chain 0 < 1 < 2: commutative
    first = ((0, 0, 0), (1, 1, 1), (2, 2, 2))  # x.y = x, whose columns are x.y = y
    second = ((0, 1, 2),) * 3
    mixed = ((0, 0, 0), (0, 1, 1), (0, 2, 2))  # not commutative: 1.2 = 1, 2.1 = 2
    mixed_columns = ((0, 0, 0), (0, 1, 2), (0, 1, 2))

    def sides(add, mul):
        return FiniteSemiring("m", ("0", "1", "2"), add, mul, 0, 2)._sides

    assert sides(join, join) == (join,)
    assert sides(join, first) == (join, first, second)
    assert sides(first, join) == (first, second, join)
    assert sides(first, mixed) == (first, second, mixed, mixed_columns)
    assert sides(mixed, first) == (mixed, mixed_columns, first, second)
    assert sides(first, second) == (first, second)  # mul's rows are add's columns


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
    # the leftmost unbound variable is named
    with pytest.raises(ValueError, match="unbound variable x3"):
        eval_term(T3, parse("x3*(x1+x2)"), {1: 0})


def test_eval_rejects_element_indices_outside_the_carrier():
    with pytest.raises(ValueError, match="x1 is bound to 7"):
        eval_term(T3, parse("x"), {1: 7})
    with pytest.raises(ValueError, match="x1 is bound to 7"):
        eval_term(T3, parse("x+y"), {1: 7, 2: 0})
    with pytest.raises(ValueError, match="x2 is bound to -1"):
        eval_term(T3, parse("x+y"), {1: 0, 2: -1})


def test_eval_rejects_bindings_that_are_not_ints():
    # 1.0 and True pass the range check: 1.0 came back as x's value, and x*x indexed a row with it
    for value in (1.0, True, "a", None):
        for term in ("x", "x*x"):
            with pytest.raises(TypeError, match="x1 is bound to"):
                eval_term(T3, parse(term), {1: value})
    with pytest.raises(TypeError, match="x2 is bound to 0.0"):
        eval_term(T3, parse("x+y"), {1: 0, 2: 0.0})


def label_tables(alg):
    """alg's add and mul tables keyed by labels, and the labels of 0 and 1,
    as support.eval_labels takes them."""
    els = alg.elements
    pairs = list(itertools.product(range(alg.size), repeat=2))
    add = {(els[a], els[b]): els[alg.add[a][b]] for a, b in pairs}
    mul = {(els[a], els[b]): els[alg.mul[a][b]] for a, b in pairs}
    return add, mul, els[alg.zero], els[alg.one]


def random_algebra(rng, size):
    """Random tables: not commutative, so an evaluator that swaps operands
    gives other values."""
    cells = [[rng.randrange(size) for _ in range(size)] for _ in range(2 * size)]
    add, mul = tuple(map(tuple, cells[:size])), tuple(map(tuple, cells[size:]))
    assert any(t[a][b] != t[b][a] for t in (add, mul) for a in range(size) for b in range(a))
    return FiniteSemiring("random", tuple(f"r{i}" for i in range(size)), add, mul, 0, 1)


def test_eval_agrees_with_label_evaluator():
    rng = Random(20261019)
    for alg in (T3, S3, GF3, lplus1(boolean_lattice(2)), random_algebra(rng, 3)):
        tables = label_tables(alg)
        for _ in range(500):
            t = random_term(rng, rng.randint(1, 40), 5)
            env = {i: rng.randrange(alg.size) for i in range(1, 6)}
            labels = {i: alg.elements[e] for i, e in env.items()}
            assert alg.elements[eval_term(alg, t, env)] == eval_labels(t, labels, *tables)


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
    assert holds(TWO, parse_identity("1+x+x*y = 1+x"))[0]


def test_s3_separating_identity():
    ident = parse_identity("1+x+x*y+x*y = 1+x")
    ok, env = holds(S3, ident)
    assert not ok
    assert env == {1: S3.index("1"), 2: S3.index("a")}
    # the witness evaluates to a on the left, 1 on the right
    assert S3.elements[eval_term(S3, ident.lhs, env)] == "a"
    assert S3.elements[eval_term(S3, ident.rhs, env)] == "1"


def test_parse_identity():
    ident = parse_identity("x+y = y+x")
    assert ident.lhs == parse("x+y")
    assert ident.rhs == parse("y+x")
    assert ident.variable_list() == [1, 2]
    with pytest.raises(ValueError):
        parse_identity("x+y")
    with pytest.raises(ValueError):
        parse_identity("x = y = z")


@pytest.mark.parametrize(
    "text, column, message",
    [
        ("x+*y = x", 3, "expected a term, found '*'"),  # lhs columns need no shift
        ("x + y = y+*x", 11, "expected a term, found '*'"),
        ("x =", 4, "expected a term, found end of input"),
    ],
)
def test_parse_identity_error_columns_count_from_the_identity(text, column, message):
    with pytest.raises(TermSyntaxError) as exc:
        parse_identity(text)
    assert exc.value.position == column
    assert str(exc.value) == f"{message} (column {column})"


def test_closed_identity():
    ok, env = holds(T3, parse_identity("1+1 = 1"))
    assert not ok
    assert env == {}


def test_holds_finds_the_last_point_across_blocks():
    # the only counterexample is all variables 1, the last of the 3^9 points,
    # which lies in the last of several blocks
    product = "*".join(f"x{i}" for i in range(1, 10))
    ok, env = holds(T3, parse_identity(f"{product} = {product}*(x1+x1)"))
    assert not ok
    assert env == {i: T3.index("1") for i in range(1, 10)}


def holds_by_labels(alg, ident):
    """Pointwise reference for holds over label-keyed copies of alg's
    tables, evaluated by support.eval_labels."""
    els = alg.elements
    tables = label_tables(alg)
    vs = ident.variable_list()
    for point in itertools.product(els, repeat=len(vs)):
        env = dict(zip(vs, point))
        if eval_labels(ident.lhs, env, *tables) != eval_labels(ident.rhs, env, *tables):
            return False, {v: els.index(label) for v, label in env.items()}
    return True, None


def commuted(rng, t):
    """t with the children of random nodes swapped: equal to t in every
    commutative semiring."""
    if isinstance(t, (Add, Mul)):
        left, right = commuted(rng, t.left), commuted(rng, t.right)
        return type(t)(right, left) if rng.random() < 0.5 else type(t)(left, right)
    return t


def mutated(rng, t, n_vars):
    """t with the leaf at the end of a random path replaced by another atom."""
    if isinstance(t, (Add, Mul)):
        if rng.random() < 0.5:
            return type(t)(mutated(rng, t.left, n_vars), t.right)
        return type(t)(t.left, mutated(rng, t.right, n_vars))
    atoms = [ZERO, ONE] + [Var(i) for i in range(1, n_vars + 1)]
    return rng.choice([a for a in atoms if a != t])


# (first block, later blocks) point bounds of holds: the defaults, and pairs
# that split small spaces into a first block and several large ones
BLOCK_BOUNDS = [
    (misr.algebras._FIRST_BLOCK_POINTS, misr.algebras._BLOCK_POINTS),
    (10, 100),
    (3, 30),
]


def assert_holds_as_reference(monkeypatch, alg, ident, expected=None, reference=None):
    """holds agrees with holds_by_labels (or reference, its verdict computed
    before) under every pair of BLOCK_BOUNDS, and with expected when given."""
    reference = reference or holds_by_labels(alg, ident)
    assert expected is None or reference == expected
    for first, block in BLOCK_BOUNDS:
        monkeypatch.setattr(misr.algebras, "_FIRST_BLOCK_POINTS", first)
        monkeypatch.setattr(misr.algebras, "_BLOCK_POINTS", block)
        assert holds(alg, ident) == reference, (alg.name, ident, first, block)
    monkeypatch.undo()
    return reference[0]


def test_holds_agrees_with_pointwise_reference(monkeypatch):
    """Each random identity is checked on every algebra of its carrier size in
    turn, then on each again after the others: what holds keeps on an identity
    or an algebra for later calls may change no other call's verdict or witness."""
    rng = Random(20261018)
    algebras = [builtin(name) for name in BUILTIN_NAMES]
    algebras += [lplus1(boolean_lattice(k)) for k in (1, 2, 3)]
    algebras += [direct_product(T3, T3), random_algebra(Random(3), 3)]
    # at (10, 100) the later blocks sweep 3 variables of 4 elements and 2 of
    # 7 or 10; at (3, 30) one of 20
    algebras += [random_tables(Random(size), size, c) for size in (4, 7, 10, 20) for c in (False, True)]
    algebras += [random_tables(Random(3), 3, c) for c in (False, True)] + [lplus1(boolean_lattice(4)), chain(17)]
    verdicts = []
    for alg in algebras:
        same_size = [other for other in algebras if other.size == alg.size]
        for _ in range(24):
            n = rng.randint(0, 6)
            while alg.size**n > 1000:
                n -= 1
            lhs = random_term(rng, 9, n)
            for _ in range(n):
                lhs = rng.choice((Add, Mul))(lhs, random_term(rng, 9, n))
            rhs = commuted(rng, lhs)
            if rng.random() < 0.5:
                rhs = mutated(rng, rhs, n)
            ident = Identity(lhs, rhs)
            references = [holds_by_labels(other, ident) for other in same_size]
            for other, reference in zip(same_size * 2, references * 2):
                verdicts.append(assert_holds_as_reference(monkeypatch, other, ident, reference=reference))
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


# At the bounds (3, 30), two's 64 points in 6 variables are a first block of
# 2 (x6 swept), then 4 blocks of 16 with x1 and x2 fixed; t3's and a random
# 3-element table's 81 points in 4 variables are a first block of 3, then 3
# blocks of 27 with x1 fixed.
PINNED_WITNESSES = [
    # inside the first block
    (TWO, "x1*x2*x3*x4*x5 + x6 = x1*x2*x3*x4*x5", {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1}),
    # at the first point after it
    (TWO, "x1*x2*x3*x4*x6 + x5 = x1*x2*x3*x4*x6", {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 0}),
    # in the last large block
    (TWO, "x1*x2*x3 = x1*x2*x3*x4 + x5*x6*0", {1: 1, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0}),
    # the left side is free of x1 and x2 as a whole
    (TWO, "x3*x4 + x5*x6 = x1*x2 + x3*x4 + x5*x6", {1: 1, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}),
    (T3, "x2*x3 + x4 = x1 + x2*x3 + x4", {1: 1, 2: 0, 3: 0, 4: 0}),
    # a left operand free of x1 under *, on symmetric and on random tables
    (S3, "(x2 + x3*x4)*x1 = x1*x2 + x3*x4*x1", None),
    (random_algebra(Random(3), 3), "(x2 + x3*x4)*x1 = x1*(x2 + x3)", None),
    (random_algebra(Random(3), 3), "(x2 + x3*x4)*x1 = (x2 + x3*x4)*x1", None),
    # no variables
    (T3, "1+1 = 1", {}),
    (TWO, "1+1 = 1", None),
    # sparse indices, x2 on one side only: each variable's slot is its rank, not its index
    (T3, "x9 + x2*x9 = x9", {2: 1, 9: 2}),
]


@pytest.mark.parametrize("alg, text, witness", PINNED_WITNESSES)
def test_holds_pinned_witnesses(monkeypatch, alg, text, witness):
    expected = (False, witness) if witness is not None else None
    assert_holds_as_reference(monkeypatch, alg, parse_identity(text), expected)


def test_holds_compares_no_variables(monkeypatch):
    """holds numbers the leaves once and looks nothing up by Var, so it calls
    no Var.__eq__ (masks keyed by Var objects called it 4 times in each check
    of the absorption law on t3)."""
    checks = [(T3, ABSORPTION_LAW)] + [(alg, parse_identity(text)) for alg, text, _ in PINNED_WITNESSES]
    calls = []
    eq = Var.__eq__
    monkeypatch.setattr(Var, "__eq__", lambda self, other: calls.append(other) or eq(self, other))
    assert Var(1) == Var(1) and len(calls) == 1
    calls.clear()
    for first, block in BLOCK_BOUNDS:
        monkeypatch.setattr(misr.algebras, "_FIRST_BLOCK_POINTS", first)
        monkeypatch.setattr(misr.algebras, "_BLOCK_POINTS", block)
        for alg, ident in checks:
            holds(alg, ident)
    assert calls == []


def test_check_axioms_walks_each_law_once(monkeypatch):
    """An identity compiles on its first check: two reports, on two algebras,
    walk the terms of each of the 15 laws once."""
    algebras = T3, lplus1(boolean_lattice(2))
    laws = tuple(Identity(law.lhs, law.rhs, law.name) for law in misr.algebras._AXIOMS)  # unused twins
    assert len(laws) == 15
    walks = []
    postfix = misr.algebras.postfix
    monkeypatch.setattr(misr.algebras, "postfix", lambda *terms: walks.append(terms) or postfix(*terms))
    monkeypatch.setattr(misr.algebras, "_AXIOMS", laws)
    reports = [check_axioms(alg) for alg in algebras]
    assert walks == [(law.lhs, law.rhs) for law in laws]
    monkeypatch.undo()
    assert reports == [check_axioms(alg) for alg in algebras]


# --- axiom reports -----------------------------------------------------------

def test_t3_axiom_report():
    report = check_axioms(T3)
    assert report.is_semiring
    assert report.is_commutative_idempotent
    assert report.is_absorptive
    assert not report.is_boolean
    assert all(c.ok for c in report.checks if c.name != "boolean-law")
    with pytest.raises(KeyError):
        report.check("nope")


def test_gf3_fails_mul_idempotence_at_two():
    report = check_axioms(GF3)
    assert report.is_semiring
    assert not report.is_commutative_idempotent
    check = report.check("mul-idempotent")
    assert not check.ok
    assert check.witness == ((1, GF3.index("2")),)
    # 2*2 = 1 != 2
    two = GF3.index("2")
    assert GF3.mul[two][two] == GF3.index("1")


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
    for k in (0, 7):
        with pytest.raises(ValueError):
            boolean_lattice(k)
    for k in (True, 2.0):  # boolean_lattice(True) was named bTrue
        with pytest.raises(TypeError, match="k must be an int"):
            boolean_lattice(k)


@pytest.mark.parametrize("k", range(1, 7))
def test_boolean_lattice_by_its_labels(k):
    universe = frozenset(range(1, k + 1))

    def subset(label: str) -> frozenset[int]:
        if label == "0":
            return frozenset()
        if label == "a":
            return universe
        assert label[0] == "e" and label[1:].isdigit()
        return frozenset(int(d) for d in label[1:])

    lat = boolean_lattice(k)
    sets = [subset(label) for label in lat.elements]
    assert lat.name == f"b{k}"
    everything = {frozenset(c) for r in range(k + 1) for c in itertools.combinations(universe, r)}
    assert len(sets) == len(everything) and set(sets) == everything
    assert sets == sorted(sets, key=lambda s: (len(s), sorted(s)))
    assert (sets[lat.zero], sets[lat.one]) == (frozenset(), universe)
    for x, y in itertools.product(range(lat.size), repeat=2):
        assert sets[lat.add[x][y]] == sets[x] | sets[y]
        assert sets[lat.mul[x][y]] == sets[x] & sets[y]


# sha256 of format_algebra(lplus1(boolean_lattice(k))), pinned before the
# constructors ever shared a table builder, and unchanged since
LPLUS1_DIGESTS = {
    1: "b9dbf6c21434dd1a8b8b52e0c1f8c6b6a2a1c843d6bbbbe024c70e05f647b593",
    2: "3ce5226f1f13f4d1587057c981cbb86acadcbddc9e34cb11a8faef704c42203b",
    3: "990e4406836da1c2e3079466ef1ccd993aac7f0210d8fc3231360a0e6bde5387",
    4: "a1ab79b97f6a19eb19f8d7e7f8353bd60a01ab9db78d782f91d0bbbb8cca905a",
    5: "5681fc6bf5af8c6b692af5ffccf9144aefa5a560361af2a1dda55bb872c41b7b",
    6: "04753efd19b5f0dc1ad49ef2cce95ef693c1cbbe8b237d7f6d794050ebe5a954",
}


@pytest.mark.parametrize("k", sorted(LPLUS1_DIGESTS))
def test_lplus1_of_boolean_lattices_is_pinned_byte_for_byte(k):
    text = format_algebra(lplus1(boolean_lattice(k)))
    assert hashlib.sha256(text.encode()).hexdigest() == LPLUS1_DIGESTS[k]


def test_lplus1_of_two_element_lattice_is_t3():
    # the builtin two labels its top 1, which lplus1 relabels a
    for lat in (boolean_lattice(1), TWO):
        alg = lplus1(lat)
        assert alg.elements == T3.elements
        assert alg.add == T3.add
        assert alg.mul == T3.mul
        assert alg.zero == T3.zero
        assert alg.one == T3.one


def test_lplus1_rejects_other_uses_of_the_label_1():
    # 1 on the bottom, and 1 on the top beside an element labelled a
    bottom_1 = FiniteSemiring("c2", ("1", "a"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1)
    chain = FiniteSemiring(
        "c3",
        ("0", "a", "1"),
        ((0, 1, 2), (1, 1, 2), (2, 2, 2)),
        ((0, 0, 0), (0, 1, 1), (0, 1, 2)),
        0,
        2,
    )
    for lat in (bottom_1, chain):
        with pytest.raises(ValueError, match="reserved for the new unit"):
            lplus1(lat)


def test_lplus1_unit_behaviour():
    alg = lplus1(boolean_lattice(2))
    assert alg.size == 5
    one = alg.one
    top = alg.index("a")
    assert alg.add[one][one] == top
    assert alg.add[alg.zero][one] == one
    for x in range(alg.size):
        assert alg.mul[one][x] == x
        assert alg.mul[x][one] == x


@pytest.mark.parametrize("k", range(1, 7))
def test_lplus1_is_always_absorptive_never_boolean(k):
    alg = lplus1(boolean_lattice(k))
    report = check_axioms(alg)
    assert report.is_absorptive
    assert not report.is_boolean
    # 1+x+x is the top, not 1, from the least element above 0 on
    assert [(c.name, c.witness) for c in report.checks if not c.ok] == [("boolean-law", ((1, 1),))]
    assert alg.zero == 0


def test_lattice_problem_sweeps_many_blocks():
    # 64 blocks of 4096 points with x1 fixed, at the default bounds
    assert misr.algebras._lattice_problem(boolean_lattice(6)) is None


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
    with pytest.raises(ValueError, match="absorption fails at x1=e, x2=0"):
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


def chain(n):
    """The n-element chain 0 < p1 < ... < a."""
    labels = ("0", *(f"p{i}" for i in range(1, n - 1)), "a")
    less = {(labels[x], labels[y]) for x, y in itertools.combinations(range(n), 2)}
    return lattice_from_order(f"c{n}", labels, less)


def relabelled(alg, order):
    """alg with its elements listed in order, a permutation of its indices."""
    new = {x: i for i, x in enumerate(order)}

    def table(t):
        return tuple(tuple(new[t[x][y]] for y in order) for x in order)

    elements = tuple(alg.elements[x] for x in order)
    return FiniteSemiring(alg.name, elements, table(alg.add), table(alg.mul), new[alg.zero], new[alg.one])


def test_lplus1_agrees_with_the_label_oracle():
    lattices = [boolean_lattice(k) for k in range(1, 7)] + [TWO] + [chain(n) for n in range(2, 9)]
    lattices += [direct_product(chain(m), chain(n)) for m, n in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))]
    # the same lattices with the bottom not first and the top not last
    rng = Random(20261021)
    for lat in (TWO, boolean_lattice(2), boolean_lattice(3), chain(5)):
        for _ in range(4):
            order = rng.sample(range(lat.size), lat.size)
            while order[0] == lat.zero or order[-1] == lat.one:
                order = rng.sample(range(lat.size), lat.size)
            lattices.append(relabelled(lat, order))
    for lat in lattices:
        alg = lplus1(lat)
        assert (alg.name, alg.elements, *label_tables(alg)) == lplus1_by_labels(lat), lat


# The laws that make a semiring a bounded distributive lattice, checked by
# holds: the semiring axioms, commutative and idempotent *, and 1+x = 1
# (which gives x+x = x*(1+1) = x and x+x*y = x*(1+y) = x).
LATTICE_LAWS = misr.algebras._SEMIRING_AXIOMS + (
    parse_identity("x*y = y*x"),
    parse_identity("x*x = x"),
    parse_identity("1+x = 1"),
)


def mutants_of(alg):
    """alg with one table cell moved to the next element, cell by cell, and
    with its 0 or its 1 moved to each other element."""
    n = alg.size
    for which, x, y in itertools.product((0, 1), range(n), range(n)):
        tables = [list(map(list, alg.add)), list(map(list, alg.mul))]
        tables[which][x][y] = (tables[which][x][y] + 1) % n
        add, mul = (tuple(map(tuple, t)) for t in tables)
        yield rebuild(alg, add=add, mul=mul)
    for c in range(n):
        if c != alg.zero:
            yield rebuild(alg, zero=c)
        if c != alg.one:
            yield rebuild(alg, one=c)


def test_lattice_scan_agrees_with_the_law_checker():
    # lplus1's direct table scan must accept exactly what holds accepts
    rng = Random(20261020)
    labels = ("0", "p", "q", "r", "a")
    bounds = {("0", x) for x in labels[1:]} | {(x, "a") for x in labels[1:4]}
    bases = [builtin(name) for name in BUILTIN_NAMES]
    bases += [boolean_lattice(k) for k in range(1, 4)]
    bases += [lattice_from_order("m3", labels, bounds)]
    bases += [lattice_from_order("n5", labels, bounds | {("p", "q")})]
    for n in range(2, 6):
        chain = tuple(str(i) for i in range(n))
        less = {(chain[i], chain[j]) for i in range(n) for j in range(i + 1, n)}
        bases.append(lattice_from_order(f"c{n}", chain, less))
    algebras = bases + [m for alg in bases for m in mutants_of(alg)]
    for _ in range(200):
        n = rng.randint(1, 4)
        add, mul = (
            tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)) for _ in range(2)
        )
        labels_n = tuple(str(i) for i in range(n))
        algebras.append(FiniteSemiring("r", labels_n, add, mul, rng.randrange(n), rng.randrange(n)))
    lattices = 0
    for alg in algebras:
        by_laws = all(holds(alg, law)[0] for law in LATTICE_LAWS)
        assert (misr.algebras._lattice_problem(alg) is None) == by_laws, alg
        lattices += by_laws
    assert lattices >= 20 and len(algebras) - lattices >= 500, (lattices, len(algebras))


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


# three seeded tables on which + and * do not commute, so that a product
# with its operands swapped in some cell shows
RANDOM_FACTORS = [
    random_tables(Random(seed), size, False) for seed, size in ((1, 3), (2, 4), (5, 2))
]


def label_table(alg: FiniteSemiring, table) -> dict[tuple[str, str], str]:
    return {
        (alg.elements[x], alg.elements[y]): alg.elements[table[x][y]]
        for x, y in itertools.product(range(alg.size), repeat=2)
    }


def test_random_factors_do_not_commute():
    for alg in RANDOM_FACTORS:
        for table in (alg.add, alg.mul):
            cells = itertools.product(range(alg.size), repeat=2)
            assert any(table[x][y] != table[y][x] for x, y in cells)


FACTORS = {name: builtin(name) for name in BUILTIN_NAMES}
FACTORS.update((f"random{alg.size}", alg) for alg in RANDOM_FACTORS)


@pytest.mark.parametrize("m, n", list(itertools.product(FACTORS, repeat=2)))
def test_product_by_its_labels(m, n):
    a, b = FACTORS[m], FACTORS[n]
    p = direct_product(a, b)
    assert p.name == f"{a.name}x{b.name}"
    cells = list(itertools.product(a.elements, b.elements))
    assert p.elements == tuple(f"({la},{lb})" for la, lb in cells)
    label = dict(zip(cells, p.elements))
    for op_p, op_a, op_b in ((p.add, a.add, b.add), (p.mul, a.mul, b.mul)):
        table_p, table_a, table_b = label_table(p, op_p), label_table(a, op_a), label_table(b, op_b)
        for (la, lb), (ma, mb) in itertools.product(cells, repeat=2):
            expected = label[(table_a[(la, ma)], table_b[(lb, mb)])]
            assert table_p[(label[(la, lb)], label[(ma, mb)])] == expected
    assert p.elements[p.zero] == label[(a.elements[a.zero], b.elements[b.zero])]
    assert p.elements[p.one] == label[(a.elements[a.one], b.elements[b.one])]


# --- the file format ---------------------------------------------------------

def test_format_round_trips_builtins():
    for name in BUILTIN_NAMES:
        alg = builtin(name)
        text = format_algebra(alg)
        again = parse_algebra(text)
        assert again == alg
        assert format_algebra(again) == text


def test_format_round_trips_built_algebras():
    built = [lplus1(boolean_lattice(k)) for k in range(1, 4)]
    built.append(direct_product(T3, builtin("two")))
    for alg in built:
        text = format_algebra(alg)
        assert parse_algebra(text) == alg
        assert format_algebra(parse_algebra(text)) == text


@pytest.mark.parametrize(
    "name,elements,problem",
    [
        ("my alg", ("0", "1"), "whitespace"),
        ("m", ("", "1"), "whitespace"),
        ("m", ("x y", "1"), "whitespace"),
        # load_algebra reads files as ASCII
        ("\u00e5lg", ("0", "1"), "not ASCII"),
        ("m", ("\u00e9", "1"), "not ASCII"),
    ],
    ids=["space-in-name", "empty-label", "space-in-label", "non-ascii-name", "non-ascii-label"],
)
def test_names_and_labels_that_cannot_round_trip_are_rejected(name, elements, problem):
    with pytest.raises(ValueError, match=problem):
        FiniteSemiring(name, elements, ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1)


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
        pytest.param(lambda ls: ls[:1] + ["elements: 0 a a"] + ls[2:], 2, id="duplicate-label"),
        pytest.param(
            lambda ls: ls[:1] + [" ".join("é" if w == "a" else w for w in l.split(" ")) for l in ls[1:]],
            2,
            id="non-ascii-label",
        ),
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
