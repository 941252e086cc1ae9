from __future__ import annotations

from collections import Counter
from random import Random

import pytest

from misr import (
    BUILTIN_NAMES,
    Partition,
    boolean_lattice,
    builtin,
    direct_product,
    is_congruence,
    is_subdirectly_irreducible,
    lplus1,
    principal_congruence,
)
from misr.algebras import _sides
from misr.congruences import _closure
from support import (
    _compatible,
    all_partitions,
    lplus1_monolith,
    random_tables,
    si_by_exhaustion,
    si_by_meet,
)

T3 = builtin("t3")
TWO = builtin("two")

SMALL_ALGEBRAS = [
    builtin("two"),
    builtin("gf2"),
    builtin("t3"),
    builtin("s3"),
    builtin("gf3"),
    direct_product(builtin("two"), builtin("two")),
    lplus1(boolean_lattice(2)),
]


# --- Partition ---------------------------------------------------------------

def test_partition_canonical_form():
    p = Partition.from_blocks(4, [[3, 1], [0], [2]])
    assert p.blocks == ((0,), (1, 3), (2,))
    assert p.same(1, 3) and not p.same(0, 2)
    assert Partition.from_blocks(4, [[1, 3], [2], [0]]) == p


def test_partition_from_iterator_blocks():
    p = Partition.from_blocks(3, (iter([0, 1]), iter([2])))
    assert p.blocks == ((0, 1), (2,))
    assert Partition.from_blocks(3, (iter([2]), iter([]), iter([1, 0]))) == p


def test_partition_must_cover_carrier():
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [[0, 1]])
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [[0, 1], [1, 2]])


def test_partition_meet_and_refines():
    p = Partition.from_blocks(4, [[0, 1], [2, 3]])
    q = Partition.from_blocks(4, [[0, 2], [1, 3]])
    discrete = Partition.from_blocks(4, [[x] for x in range(4)])
    # p refines q exactly when p.meet(q) == p
    assert p.meet(q) == discrete
    assert discrete.meet(p) == discrete
    assert p.meet(Partition.full(4)) == p
    assert p.meet(q) != p


def test_partition_rejects_least_that_is_not_canonical():
    # least[x] must be at most x and the least element of its own block
    for least in ((1, 0), (0, 2, 1), (0, 0, 1), (-1,)):
        with pytest.raises(ValueError):
            Partition(least)
    assert Partition((0, 0, 2, 0)).blocks == ((0, 1, 3), (2,))


def test_partition_render():
    p = Partition.from_blocks(3, [[0], [1, 2]])
    assert p.render(("0", "a", "1")) == "{0},{a,1}"


def related(blocks):
    """The pairs (x, y) with x and y in one block."""
    return {(x, y) for block in blocks for x in block for y in block}


@pytest.mark.parametrize("n", range(6))
def test_partition_agrees_with_its_blocks(n):
    # the blocks of the restricted-growth listing are the oracle
    listed = [(blocks, Partition.from_blocks(n, blocks)) for blocks in all_partitions(n)]
    pairs = [(x, y) for x in range(n) for y in range(n)]
    for blocks, p in listed:
        again = Partition.from_blocks(n, p.blocks)
        assert again == p and hash(again) == hash(p)
        assert p.blocks == tuple(sorted(tuple(sorted(b)) for b in blocks))
        assert {xy for xy in pairs if p.same(*xy)} == related(blocks)
        assert p.is_discrete == (len(blocks) == n)
        for other, q in listed:
            meet = p.meet(q)
            assert {xy for xy in pairs if meet.same(*xy)} == related(blocks) & related(other)
    if n:
        assert len(Partition.full(n).blocks) == 1
    with pytest.raises(ValueError):
        Partition.full(n).meet(Partition.full(n + 1))


def test_returned_partitions_are_canonical():
    for alg in SMALL_ALGEBRAS:
        returned = [principal_congruence(alg, a, b) for a in range(alg.size) for b in range(alg.size)]
        returned.append(is_subdirectly_irreducible(alg)[1])
        for p in filter(None, returned):
            assert p == Partition.from_blocks(alg.size, p.blocks)


# --- principal congruences ---------------------------------------------------

def test_merging_bounds_collapses_two():
    assert principal_congruence(TWO, 0, 1) == Partition.full(2)


def test_t3_principal_congruence_of_a_and_1():
    a, one = T3.index("a"), T3.index("1")
    expected = Partition.from_blocks(3, [[0], [a, one]])
    # oracle first: verify by direct table chase that the expected partition
    # is compatible with both t3 tables (so the closure cannot grow past it)
    for x, y in [(a, one)]:
        for c in range(3):
            assert expected.same(T3.add[x][c], T3.add[y][c])
            assert expected.same(T3.add[c][x], T3.add[c][y])
            assert expected.same(T3.mul[x][c], T3.mul[y][c])
            assert expected.same(T3.mul[c][x], T3.mul[c][y])
    assert principal_congruence(T3, a, one) == expected


def test_self_pair_gives_discrete_partition():
    for alg in SMALL_ALGEBRAS:
        for c in range(alg.size):
            discrete = Partition.from_blocks(alg.size, [[x] for x in range(alg.size)])
            assert principal_congruence(alg, c, c) == discrete


def test_principal_congruences_are_congruences():
    for alg in SMALL_ALGEBRAS:
        for a in range(alg.size):
            for b in range(alg.size):
                part = principal_congruence(alg, a, b)
                assert is_congruence(alg, part)
                assert part.same(a, b)


def test_principal_congruence_is_least():
    # against the exhaustive oracle: Cg(a,b) refines every congruence
    # relating a and b
    for alg in SMALL_ALGEBRAS:
        n = alg.size
        congruences = []
        for blocks in all_partitions(n):
            block_of = {x: i for i, blk in enumerate(blocks) for x in blk}
            if _compatible(alg.add, alg.mul, n, block_of):
                congruences.append(Partition.from_blocks(n, blocks))
        for a in range(n):
            for b in range(a + 1, n):
                cg = principal_congruence(alg, a, b)
                for theta in congruences:
                    if theta.same(a, b):
                        assert cg.meet(theta) == cg


def test_closure_stops_on_a_proven_pair_or_a_completed_span():
    # on t3 (0, a, 1) Cg(a,1) is {0},{a,1}; the SI test relies on both stops
    sides = _sides(T3)
    assert _closure(sides, [(1, 2)]) == (0, 1, 1)
    assert _closure(sides, [(1, 2)], span=[(0, 1)]) == (0, 1, 1)
    assert _closure(sides, [(1, 2)], span=[(0, 1)], proven={(1, 2)}) is None
    assert _closure(sides, [(1, 2)], span=[(1, 2), (0, 1)]) == (0, 1, 1)
    assert _closure(sides, [(1, 2)], span=[(1, 2)]) is None
    assert _closure(sides, [(0, 1)]) == (0, 0, 0)


# --- subdirect irreducibility -------------------------------------------------

def test_t3_is_subdirectly_irreducible():
    irreducible, monolith = is_subdirectly_irreducible(T3)
    assert irreducible
    assert monolith == Partition.from_blocks(3, [[0], [1, 2]])


def test_five_element_lplus1_is_subdirectly_irreducible():
    alg = lplus1(boolean_lattice(2))
    irreducible, monolith = is_subdirectly_irreducible(alg)
    assert irreducible
    assert monolith is not None and not monolith.is_discrete


@pytest.mark.parametrize("k", range(1, 7))
def test_lplus1_monolith_merges_only_a_and_1(k):
    alg = lplus1(boolean_lattice(k))
    irreducible, monolith = is_subdirectly_irreducible(alg)
    assert irreducible
    assert monolith.render(alg.elements) == lplus1_monolith(k)


def test_is_congruence_agrees_with_exhaustive_check():
    # every partition of random tables, half of them non-commutative, so that
    # a check missing a table or a side of one gives a wrong verdict
    rng = Random(20261019)
    verdicts = Counter()
    for i in range(40):
        alg = random_tables(rng, rng.randint(2, 4), i % 2 == 0)
        for blocks in all_partitions(alg.size):
            block_of = {x: b for b, block in enumerate(blocks) for x in block}
            want = _compatible(alg.add, alg.mul, alg.size, block_of)
            assert is_congruence(alg, Partition.from_blocks(alg.size, blocks)) == want, alg
            verdicts[want] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts


def test_si_agrees_with_meet_of_all_principal_congruences():
    # random tables are nearly always SI, and a product of two non-trivial
    # algebras never is (its projection kernels meet in the discrete
    # partition), so the products supply the other verdict; lplus1 stops at
    # k = 5 because the all-pairs meet takes about 20 s at k = 6
    rng = Random(20261018)
    algebras = [builtin(name) for name in BUILTIN_NAMES]
    algebras += [lplus1(boolean_lattice(k)) for k in range(1, 6)]
    algebras += [random_tables(rng, rng.randint(2, 6), i % 2 == 0) for i in range(300)]
    algebras += [
        direct_product(
            random_tables(rng, rng.randint(2, 3), i % 2 == 0),
            random_tables(rng, rng.randint(2, 3), i % 3 == 0),
        )
        for i in range(100)
    ]
    verdicts = Counter()
    for alg in algebras:
        irreducible, monolith = is_subdirectly_irreducible(alg)
        got = (irreducible, None if monolith is None else monolith.blocks)
        assert got == si_by_meet(alg), alg
        verdicts[irreducible] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts


def test_two_squared_is_not_subdirectly_irreducible():
    sq = direct_product(TWO, TWO)
    # oracle: the two projection kernels are congruences meeting trivially
    left = Partition.from_blocks(4, [[0, 1], [2, 3]])
    right = Partition.from_blocks(4, [[0, 2], [1, 3]])
    assert is_congruence(sq, left) and is_congruence(sq, right)
    assert left.meet(right).is_discrete
    irreducible, monolith = is_subdirectly_irreducible(sq)
    assert not irreducible and monolith is None


def test_two_element_algebras_are_subdirectly_irreducible():
    for name in ("two", "gf2"):
        irreducible, monolith = is_subdirectly_irreducible(builtin(name))
        assert irreducible
        assert monolith == Partition.full(2)


def test_si_matches_exhaustive_oracle_for_all_small_algebras():
    for alg in SMALL_ALGEBRAS:
        got, monolith = is_subdirectly_irreducible(alg)
        want, oracle_blocks = si_by_exhaustion(alg)
        assert got == want, alg.name
        if got:
            assert frozenset(frozenset(b) for b in monolith.blocks) == oracle_blocks


def test_trivial_algebra_rejected():
    from misr import FiniteSemiring

    trivial = FiniteSemiring("triv", ("0",), ((0,),), ((0,),), 0, 0)
    with pytest.raises(ValueError):
        is_subdirectly_irreducible(trivial)
