"""Acceptance gate: one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict table.
Each test prints `criterion N (<label>): PASS` or `: FAIL` before asserting,
so a red criterion still leaves a complete table.

Criterion 2 pins the free spectrum 3/6/19 for zero, one and two variables.
A historically circulated listing gives 18 two-variable forms.  It is one
short: it omits x1+x1+x2+x2, which no deletion step can touch (a triple
needs two other positions whose monomials both sit inside a third, and no
summand here contains more than one other) and which computes a three-element-model
function distinct from all 18 listed forms.  The criterion checks that its
own pinned forms are pairwise distinct on t3 with the independent evaluator
of support.py before comparing them with the listing, and criterion 4
derives 19 again by closing projections and constants under the model's
operations.  test_enumeration.py keeps the 18-form listing as CLASSICAL_18.

Criterion 9 of the plan concerns infinite models and is not a computation;
subdirect irreducibility is exercised here only through the finite
witnesses of criterion 7, and the test asserts those witnesses exist.
"""

from __future__ import annotations

import itertools
import time
from random import Random

from misr import (
    ABSORPTION_LAW,
    BOOLEAN_LAW,
    MUL_IDEMPOTENCE,
    boolean_lattice,
    builtin,
    clone_count,
    decide_equal,
    direct_product,
    enumerate_reduced,
    eval_term,
    holds,
    is_subdirectly_irreducible,
    lplus1,
    normalize,
    parse,
    parse_identity,
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
    si_by_exhaustion,
    t3_agree,
)

T3 = builtin("t3")

# the two-variable reduced forms; the historical listing of 18 lacks the last
PINNED_BINARY = [
    "0", "1", "x1", "x2", "x1*x2",
    "1+1", "1+x1", "1+x2", "1+x1*x2",
    "x1+x1", "x1+x2", "x1+x1*x2", "x2+x2", "x2+x1*x2", "x1*x2+x1*x2",
    "1+x1+x2", "x1+x1+x2", "x1+x2+x2", "x1+x1+x2+x2",
]


def _verdict(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_normal_form_goldens():
    cases = [
        ("x+y+x*y*z", "x1+x2"),
        ("1+x+x*y", "1+x1"),
        ("x+x+x", "x1+x1"),
    ]
    ok = True
    for text, want in cases:
        got = rep_text(normalize(parse(text)))
        ok = ok and got == want
        for _ in range(3):
            rep_text(normalize(parse(text)))  # warm-up
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            rep_text(normalize(parse(text)))
            times.append(time.perf_counter() - t0)
        ok = ok and min(times) < 1e-3
    _verdict(1, "normal-form goldens, under 1 ms each", ok)
    assert ok


def test_criterion_2_pinned_free_spectrum():
    # the pin rests on the oracle, not on enumerate_reduced: its forms must
    # denote 19 pairwise distinct t3 functions
    points = list(itertools.product(T3_LABELS, repeat=2))
    pinned_tables = {
        tuple(
            eval_labels(parse(text), {1: a, 2: b}, T3_ADD, T3_MUL)
            for a, b in points
        )
        for text in PINNED_BINARY
    }
    distinct = len(PINNED_BINARY) == len(pinned_tables) == 19
    t0 = time.perf_counter()
    counts = [len(enumerate_reduced(n)) for n in range(3)]
    binary = {rep_text(r) for r in enumerate_reduced(2)}
    elapsed = time.perf_counter() - t0
    ok = (
        distinct
        and counts == [3, 6, 19]
        and binary == set(PINNED_BINARY)
        and elapsed < 1.0
    )
    _verdict(2, "pinned counts 3/6/19 and the 19-form listing", ok)
    extra = sorted(binary - set(PINNED_BINARY))
    missing = sorted(set(PINNED_BINARY) - binary)
    assert ok, (
        f"the {len(PINNED_BINARY)} pinned forms give {len(pinned_tables)} "
        f"distinct t3 tables; counts are {counts} and the two-variable listing "
        f"has {len(binary)} forms (extra: {extra}, missing: {missing}) in "
        f"{elapsed:.3f}s.  Want 19 distinct tables, counts 3/6/19 and the "
        "pinned listing in under 1 s; the historical listing of 18 omits "
        "x1+x1+x2+x2, see the module docstring."
    )


def test_criterion_3_decision_procedure_matches_exhaustive_evaluation():
    t0 = time.perf_counter()
    rng = Random(20260818)
    agreements = 0
    trials = 1000
    for _ in range(trials):
        t = random_term(rng, 20, 3)
        u = random_term(rng, 20, 3)
        if decide_equal(t, u) == t3_agree(t, u):
            agreements += 1
    elapsed = time.perf_counter() - t0
    ok = agreements == trials and elapsed < 10.0
    _verdict(3, "1000 random pairs: decision equals exhaustive evaluation", ok)
    assert ok, f"{agreements}/{trials} agreed in {elapsed:.2f}s"


def test_criterion_4_clone_cross_check():
    t0 = time.perf_counter()
    pairs = [(clone_count(T3, n), len(enumerate_reduced(n))) for n in range(4)]
    elapsed = time.perf_counter() - t0
    ok = all(a == b for a, b in pairs) and elapsed < 30.0
    _verdict(4, "clone sizes equal listing sizes for 0..3 variables", ok)
    assert ok, f"pairs={pairs} in {elapsed:.2f}s"


def test_criterion_5_confluence_of_deletion_order():
    t0 = time.perf_counter()
    rng = Random(5)
    trials = 500
    ok = True
    deleting = 0
    for _ in range(trials):
        t = random_term(rng, 20, 3)
        # from the unreduced expansion: normalize's output has nothing to delete
        rep = expand(t)
        size = len(rep)
        while True:
            candidates = [
                k
                for k in range(len(rep))
                if sum(p != k and rep[p] <= rep[k] for p in range(len(rep))) >= 2
            ]
            if not candidates:
                break
            del rep[rng.choice(candidates)]
        deleting += len(rep) < size
        ok = ok and tuple(sorted(rep, key=monomial_key)) == normalize(t)
    elapsed = time.perf_counter() - t0
    # 142 of these 500 trials delete at least one summand
    ok = ok and elapsed < 5.0 and deleting >= trials // 5
    _verdict(5, "500 random terms: any deletion order, same normal form", ok)
    assert ok


def test_criterion_6_separating_examples():
    two, gf2, gf3, s3 = (builtin(n) for n in ("two", "gf2", "gf3", "s3"))
    checks = [
        holds(two, BOOLEAN_LAW)[0],
        holds(two, ABSORPTION_LAW)[0],
        holds(gf2, BOOLEAN_LAW)[0],
        not holds(gf2, ABSORPTION_LAW)[0],
        holds(T3, ABSORPTION_LAW)[0],
        not holds(T3, BOOLEAN_LAW)[0],
        not holds(gf3, MUL_IDEMPOTENCE)[0],
    ]
    separator = parse_identity("1+x+x*y+x*y = 1+x")
    sep_ok, env = holds(s3, separator)
    checks.append(not sep_ok)
    witness_ok = env == {1: s3.index("1"), 2: s3.index("a")}
    checks.append(witness_ok)
    if witness_ok:
        lhs = s3.elements[eval_term(s3, separator.lhs, env)]
        rhs = s3.elements[eval_term(s3, separator.rhs, env)]
        checks.append((lhs, rhs) == ("a", "1"))
    ok = all(checks)
    _verdict(6, "five models separated by the four laws", ok)
    assert ok, checks


def test_criterion_7_subdirect_irreducibility():
    t0 = time.perf_counter()
    two = builtin("two")
    sq = direct_product(two, two)
    five = lplus1(boolean_lattice(2))
    ok = is_subdirectly_irreducible(T3)[0]
    ok = ok and is_subdirectly_irreducible(five)[0]
    ok = ok and not is_subdirectly_irreducible(sq)[0]
    for alg in (two, builtin("gf2"), T3, builtin("s3"), builtin("gf3"), sq, five):
        got, monolith = is_subdirectly_irreducible(alg)
        want, oracle_blocks = si_by_exhaustion(alg)
        ok = ok and got == want
        if got and want:
            ok = ok and frozenset(frozenset(b) for b in monolith.blocks) == oracle_blocks
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict(7, "irreducibility verdicts match the all-partitions oracle", ok)
    assert ok


def test_criterion_8_unit_adjunction_reconstructs_t3():
    built = lplus1(boolean_lattice(1))
    ok = (
        built.elements == T3.elements
        and built.add == T3.add
        and built.mul == T3.mul
        and (built.zero, built.one) == (T3.zero, T3.one)
    )
    _verdict(8, "two-element lattice with adjoined unit equals t3", ok)
    assert ok


def test_criterion_9_finite_witnesses_only():
    # infinite models are out of scope; the finite irreducible witnesses of
    # criterion 7 must exist so that coverage is real, not vacuous
    ok = (
        is_subdirectly_irreducible(T3)[0]
        and is_subdirectly_irreducible(lplus1(boolean_lattice(2)))[0]
    )
    _verdict(9, "infinite models excluded; finite witnesses present", ok)
    assert ok


def test_criterion_3_witness_sanity():
    # guard against a vacuous criterion 3: the sample must contain both
    # equal and distinct pairs
    rng = Random(20260818)
    verdicts = set()
    for _ in range(1000):
        t = random_term(rng, 20, 3)
        u = random_term(rng, 20, 3)
        verdicts.add(decide_equal(t, u))
    assert verdicts == {True, False}


def test_bijection_into_function_tables():
    # evaluation into the three-element model is injective on listed forms
    for n in range(3):
        tables = set()
        for rep in enumerate_reduced(n):
            t = parse(rep_text(rep))
            tab = tuple(
                eval_term(T3, t, dict(zip(range(1, n + 1), pt)))
                for pt in itertools.product(range(3), repeat=n)
            )
            tables.add(tab)
        assert len(tables) == clone_count(T3, n)
