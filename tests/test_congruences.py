from __future__ import annotations

import pytest

from misr import (
    Partition,
    boolean_lattice,
    builtin,
    direct_product,
    is_congruence,
    is_subdirectly_irreducible,
    lplus1,
    principal_congruence,
)
from support import si_by_exhaustion

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
    assert p.meet(q) == Partition.discrete(4)
    assert Partition.discrete(4).refines(p)
    assert p.refines(Partition.full(4))
    assert not p.refines(q)


def test_partition_render():
    p = Partition.from_blocks(3, [[0], [1, 2]])
    assert p.render(("0", "a", "1")) == "{0},{a,1}"


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
            assert principal_congruence(alg, c, c) == Partition.discrete(alg.size)


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
    from support import all_partitions, _compatible

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
                        assert cg.refines(theta)


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
