from __future__ import annotations

import sys
from random import Random

import pytest
from hypothesis import given

from misr import (
    Add,
    Identity,
    Mul,
    One,
    ONE,
    TermSyntaxError,
    Var,
    Zero,
    ZERO,
    builtin,
    eval_term,
    holds,
    normalize,
    parse,
    parse_identity,
    rep_text,
    term_size,
    variables,
)
from support import (
    no_cyclic_garbage,
    random_term,
    reference_parse,
    reference_to_text,
    terms_strategy,
)

x1, x2, x3 = Var(1), Var(2), Var(3)


def test_parse_sum_of_products():
    assert parse("x+y+x*y*z") == Add(Add(x1, x2), Mul(Mul(x1, x2), x3))


def test_parse_constants():
    assert parse("0") == ZERO
    assert parse("1+x*(y+1)") == Add(ONE, Mul(x1, Add(x2, ONE)))


def test_parse_numbered_variables():
    assert parse("x1*x2") == Mul(x1, x2)
    assert parse("x12") == Var(12)
    assert parse("x01") == Var(1)


def test_aliases_map_to_first_three_indices():
    assert parse("x") == x1
    assert parse("y") == x2
    assert parse("z") == x3
    assert parse("x2") == parse("y")


def test_whitespace_is_insignificant():
    assert parse(" x + y *\tz ") == parse("x+y*z")


def test_left_associativity():
    assert parse("x1+x2+x3") == Add(Add(x1, x2), x3)
    assert parse("x1*x2*x3") == Mul(Mul(x1, x2), x3)


@pytest.mark.parametrize("a", ["0", "1", "x1", "x2"])
@pytest.mark.parametrize("b", ["0", "x3"])
@pytest.mark.parametrize("c", ["1", "x1"])
def test_star_binds_tighter_than_plus(a, b, c):
    assert parse(f"{a}+{b}*{c}") == parse(f"{a}+({b}*{c})")


def test_index_zero_rejected():
    with pytest.raises(TermSyntaxError):
        parse("x0")


def test_juxtaposition_rejected():
    with pytest.raises(TermSyntaxError):
        parse("x y")
    with pytest.raises(TermSyntaxError):
        parse("x1x2")
    # "xy" lexes as the two variables x and y, which is still not a product
    with pytest.raises(TermSyntaxError):
        parse("xy")


SYNTAX_ERRORS = [
    ("x*(y", 5, "expected ')'"),
    ("", 1, "expected a term, found end of input"),
    ("x+", 3, "expected a term, found end of input"),
    ("x)", 2, "unexpected ')'"),
    ("x%y", 2, "unexpected character '%'"),
    ("2", 1, "unexpected character '2'"),
    ("+x", 1, "expected a term, found '+'"),
    ("x**", 3, "expected a term, found '*'"),
    ("x*)", 3, "expected a term, found ')'"),
    ("x 0", 3, "unexpected '0'"),
    ("x 1", 3, "unexpected '1'"),
    ("x(", 2, "unexpected '('"),
    ("x y", 3, "unexpected variable"),
    # only ASCII digits index a variable; str.isdigit also accepts these
    ("x²", 2, "unexpected character '²'"),
    ("x٣+x3", 2, "unexpected character '٣'"),
]


# ids without the message, as the cases were first named
@pytest.mark.parametrize(
    "text,column,message", SYNTAX_ERRORS, ids=[f"{t}-{c}" for t, c, _ in SYNTAX_ERRORS]
)
def test_syntax_errors_carry_positions(text, column, message):
    with pytest.raises(TermSyntaxError) as exc:
        parse(text)
    assert exc.value.position == column
    assert str(exc.value) == f"{message} (column {column})"


# the most digits int() converts; 0 when it converts any number
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(INT_DIGITS == 0, reason="int() converts digit strings of any length")
def test_variable_index_longer_than_int_converts_is_a_syntax_error():
    digits = "9" * (INT_DIGITS + 1)
    with pytest.raises(TermSyntaxError) as exc:
        parse("x" + digits)
    assert (exc.value.message, exc.value.position) == ("variable index is too long", 1)
    with pytest.raises(TermSyntaxError) as exc:
        parse_identity("x = y*x" + digits)
    assert (exc.value.message, exc.value.position) == ("variable index is too long", 7)
    assert parse("x" + "9" * INT_DIGITS) == Var(int("9" * INT_DIGITS))


def test_parse_leaves_no_cyclic_garbage():
    with no_cyclic_garbage():
        parse("(x+y)*z+1")
    with no_cyclic_garbage(), pytest.raises(TermSyntaxError):
        parse("x*(y+")


def test_variables_examples():
    assert variables(parse("x+y*x")) == frozenset({1, 2})
    assert variables(ZERO) == frozenset()
    assert variables(parse("x7")) == frozenset({7})


def test_term_size():
    assert term_size(ZERO) == 1
    assert term_size(parse("x+y*z")) == 5


def test_var_index_must_be_positive():
    with pytest.raises(ValueError):
        Var(0)
    # 2.0 and True would hash equal to Var(2) and Var(1) but print as x2.0 and xTrue
    for index in (2.0, True, False, "2", None):
        with pytest.raises(TypeError):
            Var(index)


def test_operator_sugar_builds_nodes():
    assert x1 + x2 * x3 == Add(x1, Mul(x2, x3))


@given(terms_strategy(max_index=12))
def test_round_trip(t):
    assert parse(reference_to_text(t)) == t


# --- parse against the recursive parser it replaced ----------------------------

# the grammar's tokens, blanks, an index 0 and a character no token starts with
PARSE_PIECES = ["x", "y", "z", "x2", "x0", "0", "1", "+", "*", "(", ")", " ", "\t", "\n", "#"]


def random_parse_text(rng: Random) -> str:
    """0 to 12 random pieces, or a third of the time a printed random term
    with one piece put in at random; a fifth of the time inside up to 300
    levels of parentheses (each level may carry an operand) that close one
    too few, one too many or exactly."""
    if rng.random() < 1 / 3:
        text = reference_to_text(random_term(rng, rng.randint(1, 15), 3))
        cut = rng.randint(0, len(text))
        text = text[:cut] + rng.choice(PARSE_PIECES + [""] * 8) + text[cut:]
    else:
        text = "".join(rng.choice(PARSE_PIECES) for _ in range(rng.randint(0, 12)))
    if rng.random() < 0.2:
        depth = rng.randint(1, 300)
        opens = "".join(rng.choice(["(", "(", "x*(", "1+("]) for _ in range(depth))
        closes = [rng.choice([")", ")", ")*y", ")+0"]) for _ in range(depth + 1)]
        text = opens + text + "".join(closes[: depth + rng.choice([-1, 0, 0, 1])])
    return text


def parse_outcome(parser, text: str):
    try:
        return repr(parser(text))
    except TermSyntaxError as e:
        return e.message, e.position


def test_parse_agrees_with_recursive_reference():
    rng = Random(20261020)
    outcomes = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2000))  # the reference takes three frames a level
    try:
        for _ in range(20_000):
            text = random_parse_text(rng)
            outcome = parse_outcome(parse, text)
            assert outcome == parse_outcome(reference_parse, text), text
            outcomes.append(outcome)
    finally:
        sys.setrecursionlimit(limit)
    terms = sum(isinstance(o, str) for o in outcomes)
    assert 1000 < terms < 19_000  # both the terms and the errors were compared
    assert len({o for o in outcomes if not isinstance(o, str)}) > 100


def test_parse_nests_600_deep_under_the_default_limit():
    assert sys.getrecursionlimit() <= 1000
    assert parse("(" * 600 + "x" + ")" * 600) == Var(1)


# --- the walks against recursive references ------------------------------------

def reference_variables(t):
    """The recursive variable collector that variables replaced."""
    match t:
        case Zero() | One():
            return frozenset()
        case Var(i):
            return frozenset((i,))
        case Add(l, r) | Mul(l, r):
            return reference_variables(l) | reference_variables(r)
    raise TypeError(f"not a term: {t!r}")


def test_walks_agree_with_recursive_references():
    rng = Random(20261019)
    for _ in range(2000):
        t = random_term(rng, rng.randint(1, 40), rng.randint(0, 6))
        assert variables(t) == reference_variables(t)


@pytest.mark.parametrize("walk", [variables, term_size])
def test_walks_reject_non_terms(walk):
    with pytest.raises(TypeError, match="not a term"):
        walk(Add(x1, "x2"))


# --- terms far deeper than the recursion limit -----------------------------------

DEPTH = 100_000


def nested(node, leaves, side):
    """The leaves joined by node, nested on one side, built without parse."""
    if side == "left":
        t = leaves[0]
        for leaf in leaves[1:]:
            t = node(t, leaf)
        return t
    t = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        t = node(leaf, t)
    return t


@pytest.mark.parametrize("node", [Add, Mul])
@pytest.mark.parametrize("side", ["left", "right"])
def test_walks_do_not_recurse_on_depth(node, side):
    # DEPTH nodes nested on one side over the leaves x1, x2, x3, x1, ...
    # built directly, since parse still recurses on parentheses
    assert sys.getrecursionlimit() < DEPTH
    leaves = [Var(i % 3 + 1) for i in range(DEPTH + 1)]
    t = nested(node, leaves, side)
    assert variables(t) == {1, 2, 3}
    t3 = builtin("t3")
    # a sum of two or more 1s is a, and a product of 1s is 1
    value = eval_term(t3, t, {1: t3.index("1"), 2: t3.index("1"), 3: t3.index("1")})
    assert t3.elements[value] == ("a" if node is Add else "1")
    assert rep_text(normalize(t)) == ("x1+x1+x2+x2+x3+x3" if node is Add else "x1*x2*x3")
    assert holds(t3, Identity(t, t)) == (True, None)


# One node class and one side per level, innermost first, 5000 levels in all:
# the ids left and right are sums, and mixed alternates + and * and changes
# side every third level.
LEVELS = 5000
SHAPES = {
    "left": [(Add, "left")] * LEVELS,
    "right": [(Add, "right")] * LEVELS,
    "mul-left": [(Mul, "left")] * LEVELS,
    "mul-right": [(Mul, "right")] * LEVELS,
    "mixed": [((Add, Mul)[i % 2], ("left", "right")[i // 3 % 2]) for i in range(LEVELS)],
}


def shaped(levels, leaves):
    """The term whose level i puts the term so far on its side and leaves[i + 1]
    on the other, over leaves[0], with the repr written out from its levels."""
    t, heads, tails = leaves[0], [], []
    for (node, side), leaf in zip(levels, leaves[1:]):
        name, text = node.__name__, f"Var(index={leaf.index})"
        if side == "left":
            t = node(t, leaf)
            heads.append(f"{name}(left=")
            tails.append(f", right={text})")
        else:
            t = node(leaf, t)
            heads.append(f"{name}(left={text}, right=")
            tails.append(")")
    return t, "".join(reversed(heads)) + f"Var(index={leaves[0].index})" + "".join(tails)


@pytest.mark.parametrize("side", SHAPES)
def test_deep_terms_compare_and_hash_without_recursion(side):
    levels = SHAPES[side]
    assert sys.getrecursionlimit() < len(levels)
    leaves = [Var(i % 3 + 1) for i in range(len(levels) + 1)]
    a, _ = shaped(levels, leaves)
    b, _ = shaped(levels, [Var(leaf.index) for leaf in leaves])
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    changed = leaves[:]
    changed[len(levels) // 2] = Var(4)
    c, _ = shaped(levels, changed)
    assert a != c and not a == c
    assert len({a, c}) == 2
    # the same leaves with one + turned into * or back, in the middle or at the
    # root: a sum never equals a product of the same operands
    for level in (len(levels) // 2, len(levels) - 1):
        swapped = levels[:]
        node, level_side = levels[level]
        swapped[level] = (Mul if node is Add else Add, level_side)
        d, _ = shaped(swapped, leaves)
        assert a != d and not a == d and len({a, d}) == 2


@pytest.mark.parametrize("side", SHAPES)
def test_deep_term_repr_without_recursion(side):
    levels = SHAPES[side]
    assert sys.getrecursionlimit() < len(levels)
    t, text = shaped(levels, [Var(i % 3 + 1) for i in range(len(levels) + 1)])
    assert repr(t) == text


# The fields of each term class in the order of its constructor, written out
# here so that the oracle reads nothing from the classes themselves.
TERM_FIELDS = {Zero: (), One: (), Var: ("index",), Add: ("left", "right"), Mul: ("left", "right")}


def dataclass_repr(value) -> str:
    """The dataclass form ``Name(field=value, ...)``, applied at every level
    of a term; anything else prints as its own repr."""
    if type(value) not in TERM_FIELDS:
        return repr(value)
    fields = ", ".join(f"{name}={dataclass_repr(getattr(value, name))}" for name in TERM_FIELDS[type(value)])
    return f"{type(value).__name__}({fields})"


def test_repr_matches_dataclass_form():
    rng = Random(20261018)
    for _ in range(500):
        t = random_term(rng, rng.randint(1, 30), 4)
        assert repr(t) == dataclass_repr(t)
    assert repr(Add(1, "x")) == "Add(left=1, right='x')"
