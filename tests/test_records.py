"""The value semantics of misr's ten immutable classes: equality within one
class, hashing, repr, immutability, pickling, copying, match and keyword
construction.  The fields and the expected reprs are written out here, so
that nothing is read from the classes under test."""

from __future__ import annotations

import copy
import pickle
import sys

import pytest

from misr import (
    Add,
    AxiomCheck,
    AxiomReport,
    FiniteSemiring,
    Identity,
    Mul,
    ONE,
    One,
    Partition,
    Var,
    ZERO,
    Zero,
    boolean_lattice,
    builtin,
    check_axioms,
    holds,
    parse_identity,
    principal_congruence,
)
from misr.terms import Record

TWO = builtin("two")
T3 = builtin("t3")
X, Y = Var(1), Var(2)


def b1_and_a_law():
    return boolean_lattice(1), parse_identity("x*(y+z) = x*y+x*z", "distributive-left")


# an algebra and a law that holds has used, so that each keeps what holds stores on it
USED_ALGEBRA, USED_LAW = b1_and_a_law()
holds(USED_ALGEBRA, USED_LAW)

# (value, its fields in constructor order, its repr as the dataclass form prints it)
VALUES = [
    (Zero(), (), "Zero()"),
    (One(), (), "One()"),
    (Var(3), ("index",), "Var(index=3)"),
    (Add(X, ONE), ("left", "right"), "Add(left=Var(index=1), right=One())"),
    (Mul(Y, ZERO), ("left", "right"), "Mul(left=Var(index=2), right=Zero())"),
    (
        TWO,
        ("name", "elements", "add", "mul", "zero", "one"),
        "FiniteSemiring(name='two', elements=('0', '1'), add=((0, 1), (1, 1)),"
        " mul=((0, 0), (0, 1)), zero=0, one=1)",
    ),
    (
        parse_identity("x+y = y+x", "add-commutative"),
        ("lhs", "rhs", "name"),
        "Identity(lhs=Add(left=Var(index=1), right=Var(index=2)),"
        " rhs=Add(left=Var(index=2), right=Var(index=1)), name='add-commutative')",
    ),
    (
        USED_ALGEBRA,
        ("name", "elements", "add", "mul", "zero", "one"),
        "FiniteSemiring(name='b1', elements=('0', 'a'), add=((0, 1), (1, 1)),"
        " mul=((0, 0), (0, 1)), zero=0, one=1)",
    ),
    (
        USED_LAW,
        ("lhs", "rhs", "name"),
        "Identity(lhs=Mul(left=Var(index=1), right=Add(left=Var(index=2), right=Var(index=3))),"
        " rhs=Add(left=Mul(left=Var(index=1), right=Var(index=2)), right=Mul(left=Var(index=1),"
        " right=Var(index=3))), name='distributive-left')",
    ),
    (AxiomCheck("c", False, ((1, 0),)), ("name", "ok", "witness"), "AxiomCheck(name='c', ok=False, witness=((1, 0),))"),
    (
        AxiomReport("two", (AxiomCheck("c", True, None),)),
        ("algebra", "checks"),
        "AxiomReport(algebra='two', checks=(AxiomCheck(name='c', ok=True, witness=None),))",
    ),
    (principal_congruence(T3, 1, 2), ("least",), "Partition(least=(0, 1, 1))"),
]
IDS = [type(value).__name__ + "-used" * (value in (USED_ALGEBRA, USED_LAW)) for value, _, _ in VALUES]


def test_every_class_is_covered():
    classes = {Zero, One, Var, Add, Mul, FiniteSemiring, Identity, AxiomCheck, AxiomReport, Partition}
    assert {type(value) for value, _, _ in VALUES} == classes


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_repr_is_the_dataclass_form(value, fields, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_pickle_copy_and_deepcopy_round_trip(value, fields, text):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text


def test_what_holds_keeps_is_not_part_of_the_value():
    """The compiled law and the algebra's block masks that holds keeps are not
    pickled or copied: a used value pickles to the bytes of an unused twin."""
    for used, twin in zip((USED_ALGEBRA, USED_LAW), b1_and_a_law()):
        assert vars(used) != vars(twin) and pickle.dumps(used) == pickle.dumps(twin)
        for copied in (copy.copy(used), copy.deepcopy(used)):
            assert pickle.dumps(copied) == pickle.dumps(twin) and copied == twin


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, fields, text):
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_keyword_construction_gives_an_equal_value(value, fields, text):
    kwargs = {name: getattr(value, name) for name in fields}
    twin = type(value)(**kwargs)
    assert twin == value and hash(twin) == hash(value)
    assert type(value)(*kwargs.values()) == value
    assert type(value)(**dict(reversed(kwargs.items()))) == value


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
def test_unequal_to_its_fields_and_to_every_other_value(value, fields, text):
    assert value == value and not value != value
    assert value != tuple(getattr(value, name) for name in fields)
    for other, _, _ in VALUES:
        if other is not value:
            assert value != other and other != value


def test_equality_holds_only_within_one_class():
    assert Zero() == Zero() and hash(Zero()) == hash(Zero())
    assert Zero() != One() and Var(1) != 1 and Var(1) != Var(2)
    assert Add(X, Y) != Mul(X, Y) and Add(X, Y) == Add(Var(1), Var(2))
    assert Identity(X, Y, "n") != AxiomCheck(X, Y, "n")
    assert Identity(X, Y, "n") != Identity(X, Y, "m")
    assert Partition((0, 0)) != (0, 0) and Partition((0, 0)) != Partition((0, 1))
    assert len({Var(1), Var(1), Identity(X, Y), Identity(X, Y, ""), Partition((0, 0))}) == 3


def test_match_by_position():
    def shape(t):
        match t:
            case Var(i):
                return f"x{i}"
            case Add(l, r):
                return f"({shape(l)}+{shape(r)})"
            case Mul(l, r):
                return f"{shape(l)}*{shape(r)}"
            case Zero():
                return "0"
            case One():
                return "1"

    assert shape(Add(Mul(X, ONE), Add(ZERO, Y))) == "(x1*1+(0+x2))"
    match parse_identity("x = y", "law"), principal_congruence(T3, 1, 2), check_axioms(TWO):
        case Identity(Var(1), Var(2), name), Partition(least), AxiomReport(algebra, (AxiomCheck(first, ok, None), *_)):
            assert (name, least, algebra, first, ok) == ("law", (0, 1, 1), "two", "add-commutative", True)
        case _:
            pytest.fail("no case matched")
    match TWO:
        case FiniteSemiring(name, elements, add, mul, zero, one):
            assert (name, elements, zero, one) == ("two", ("0", "1"), 0, 1)
        case _:
            pytest.fail("no case matched")


def test_identity_name_defaults_to_empty():
    assert Identity(X, Y).name == "" and Identity(X, Y) == Identity(lhs=X, rhs=Y, name="")
    assert repr(Identity(rhs=Y, lhs=X)) == "Identity(lhs=Var(index=1), rhs=Var(index=2), name='')"


@pytest.mark.parametrize(
    "make",
    [
        lambda: AxiomCheck("a", True),
        lambda: AxiomCheck("a", True, None, None),
        lambda: AxiomCheck("a", True, None, name="b"),
        lambda: AxiomCheck("a", True, witness=None, extra=1),
        lambda: AxiomReport(algebra="two"),
        lambda: Zero(1),
        lambda: Var(),
        lambda: Add(X),
        lambda: Identity(X),
        lambda: Partition(),
        lambda: FiniteSemiring("two", ("0",), ((0,),), ((0,),), 0),
    ],
)
def test_wrong_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


class Box(Record):
    __slots__ = __match_args__ = ("inner", "label")


def test_repr_of_records_nested_past_the_recursion_limit():
    depth = 5000
    assert sys.getrecursionlimit() < depth
    box = Box(None, "x")
    for label in range(depth):
        box = Box(box, label)
    tails = "".join(f", label={label})" for label in range(depth))
    assert repr(box) == "Box(inner=" * depth + "Box(inner=None, label='x')" + tails


def test_identity_with_deep_sides():
    depth = 5000
    assert sys.getrecursionlimit() < depth

    def sides():
        # x1+x2+x1+x2+..., nested on the left, and the product of the same leaves, nested on the right
        leaves = [Var(i % 2 + 1) for i in range(depth + 1)]
        lhs = leaves[0]
        for leaf in leaves[1:]:
            lhs = Add(lhs, leaf)
        rhs = leaves[-1]
        for leaf in reversed(leaves[:-1]):
            rhs = Mul(leaf, rhs)
        return lhs, rhs

    texts = [f"Var(index={i % 2 + 1})" for i in range(depth + 1)]
    lhs_text = "Add(left=" * depth + texts[0] + "".join(f", right={x})" for x in texts[1:])
    rhs_text = "".join(f"Mul(left={x}, right=" for x in texts[:-1]) + texts[-1] + ")" * depth
    law = Identity(*sides(), "deep")
    assert repr(law) == f"Identity(lhs={lhs_text}, rhs={rhs_text}, name='deep')"
    twin = Identity(*sides(), "deep")
    assert twin == law and hash(twin) == hash(law) and len({law, twin}) == 1
    lhs, rhs = sides()
    assert Identity(rhs, lhs, "deep") != law and Identity(lhs, rhs, "other") != law
