"""Finite semirings given by Cayley tables.

Tables are tuples of tuples of element indices; labels are only for I/O.
Construction is lazy about axioms: any well-shaped table pair is accepted
(gf3 is a perfectly good semiring that fails multiplicative idempotence),
and check_axioms reports which laws actually hold.  A bounded distributive
lattice is a semiring too, with + as join, * as meet, 0 as bottom and 1 as
top: boolean_lattice builds the subset lattices so, and lplus1 adjoins a
new unit to one.  The builtins are read from the files in data/, which
are in the format of format_algebra and parse_algebra.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Mapping

from .terms import Add, Mul, One, Term, Var, Zero, parse, variables


@dataclass(frozen=True)
class FiniteSemiring:
    name: str
    elements: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int

    def __post_init__(self) -> None:
        n = len(self.elements)
        if n == 0:
            raise ValueError("carrier must be non-empty")
        if len(set(self.elements)) != n:
            raise ValueError("duplicate element labels")
        for table, what in ((self.add, "add"), (self.mul, "mul")):
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError(f"{what} table must be {n}x{n}")
            if any(not 0 <= v < n for row in table for v in row):
                raise ValueError(f"{what} table entry out of range")
        for c, what in ((self.zero, "zero"), (self.one, "one")):
            if not 0 <= c < n:
                raise ValueError(f"{what} index out of range")

    @property
    def size(self) -> int:
        return len(self.elements)

    def plus(self, i: int, j: int) -> int:
        return self.add[i][j]

    def times(self, i: int, j: int) -> int:
        return self.mul[i][j]

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise ValueError(
                f"unknown element label {label!r} in algebra {self.name}"
            ) from None


# --- evaluation and identities ----------------------------------------------

def eval_term(alg: FiniteSemiring, t: Term, env: Mapping[int, int]) -> int:
    """Evaluate t under env (variable index -> element index)."""
    match t:
        case Zero():
            return alg.zero
        case One():
            return alg.one
        case Var(i):
            try:
                return env[i]
            except KeyError:
                raise ValueError(f"unbound variable x{i}") from None
        case Add(l, r):
            return alg.add[eval_term(alg, l, env)][eval_term(alg, r, env)]
        case Mul(l, r):
            return alg.mul[eval_term(alg, l, env)][eval_term(alg, r, env)]
    raise TypeError(f"not a term: {t!r}")


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term
    name: str = ""

    def variable_list(self) -> list[int]:
        return sorted(variables(self.lhs) | variables(self.rhs))


def parse_identity(text: str, name: str = "") -> Identity:
    """Parse "lhs = rhs" into an Identity."""
    parts = text.split("=")
    if len(parts) != 2:
        raise ValueError("an identity must contain exactly one '='")
    return Identity(parse(parts[0]), parse(parts[1]), name)


def holds(alg: FiniteSemiring, ident: Identity) -> tuple[bool, dict[int, int] | None]:
    """Check an identity over all assignments.

    Returns (True, None) or (False, witness) where the witness is the
    lexicographically first counterexample in element-index order, variables
    ascending.
    """
    vs = ident.variable_list()
    for values in itertools.product(range(alg.size), repeat=len(vs)):
        env = dict(zip(vs, values))
        if eval_term(alg, ident.lhs, env) != eval_term(alg, ident.rhs, env):
            return False, env
    return True, None


PRODUCT_ABSORPTION = parse_identity("1+x+x*y = 1+x", "product-absorption")
DOUBLE_PRODUCT_ABSORPTION = parse_identity(
    "1+x+x*y+x*y = 1+x", "double-product-absorption"
)
MUL_IDEMPOTENCE = parse_identity("x*x = x", "mul-idempotent")
BOOLEAN_LAW = parse_identity("1+x+x = 1", "boolean-law")
ABSORPTION_LAW = parse_identity("x+y+x*y*z = x+y", "absorption-law")


# --- axiom report -----------------------------------------------------------

_SEMIRING_AXIOMS: tuple[Identity, ...] = (
    parse_identity("x+y = y+x", "add-commutative"),
    parse_identity("(x+y)+z = x+(y+z)", "add-associative"),
    parse_identity("0+x = x", "zero-add-left"),
    parse_identity("x+0 = x", "zero-add-right"),
    parse_identity("(x*y)*z = x*(y*z)", "mul-associative"),
    parse_identity("1*x = x", "one-mul-left"),
    parse_identity("x*1 = x", "one-mul-right"),
    parse_identity("x*(y+z) = x*y+x*z", "distributive-left"),
    parse_identity("(y+z)*x = y*x+z*x", "distributive-right"),
    parse_identity("0*x = 0", "zero-mul-left"),
    parse_identity("x*0 = 0", "zero-mul-right"),
)

# in the order of check_axioms' report, which `misr axioms` prints
_AXIOMS: tuple[Identity, ...] = _SEMIRING_AXIOMS + (
    parse_identity("x*y = y*x", "mul-commutative"),
    MUL_IDEMPOTENCE,
    BOOLEAN_LAW,
    ABSORPTION_LAW,
)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    ok: bool
    witness: tuple[tuple[int, int], ...] | None  # sorted (variable, element) pairs


@dataclass(frozen=True)
class AxiomReport:
    algebra: str
    checks: tuple[AxiomCheck, ...]

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def ok(self, name: str) -> bool:
        return self.check(name).ok

    @property
    def is_semiring(self) -> bool:
        return all(self.ok(axiom.name) for axiom in _SEMIRING_AXIOMS)

    @property
    def is_commutative_idempotent(self) -> bool:
        return (
            self.is_semiring
            and self.ok("mul-commutative")
            and self.ok("mul-idempotent")
        )

    @property
    def is_boolean(self) -> bool:
        return self.is_commutative_idempotent and self.ok("boolean-law")

    @property
    def is_absorptive(self) -> bool:
        return self.is_commutative_idempotent and self.ok("absorption-law")


def check_axioms(alg: FiniteSemiring) -> AxiomReport:
    """Check every semiring axiom plus the commutativity, idempotence,
    boolean, and absorption laws, each with its least counterexample."""
    checks = []
    for axiom in _AXIOMS:
        ok, env = holds(alg, axiom)
        witness = None if env is None else tuple(sorted(env.items()))
        checks.append(AxiomCheck(axiom.name, ok, witness))
    return AxiomReport(alg.name, tuple(checks))


# --- lattices and constructions ---------------------------------------------

def _lattice_problem(lat: FiniteSemiring) -> str | None:
    """The first bounded distributive lattice law that lat breaks, reading
    + as join, * as meet, 0 as bottom and 1 as top; None if it breaks none.

    A direct scan of the tables: the same laws through holds would cost two
    orders of magnitude more on boolean_lattice(4).
    """
    jn, mt, el = lat.add, lat.mul, lat.elements
    rng = range(lat.size)
    for x in rng:
        if jn[x][x] != x or mt[x][x] != x:
            return f"idempotence fails at {el[x]}"
        if jn[lat.zero][x] != x:
            return f"bottom is not neutral for join at {el[x]}"
        if mt[lat.one][x] != x:
            return f"top is not neutral for meet at {el[x]}"
    for x in rng:
        for y in rng:
            if jn[x][y] != jn[y][x]:
                return "join is not commutative"
            if mt[x][y] != mt[y][x]:
                return "meet is not commutative"
            if jn[x][mt[x][y]] != x or mt[x][jn[x][y]] != x:
                return "absorption fails"
    for x in rng:
        for y in rng:
            for z in rng:
                if jn[jn[x][y]][z] != jn[x][jn[y][z]]:
                    return "join is not associative"
                if mt[mt[x][y]][z] != mt[x][mt[y][z]]:
                    return "meet is not associative"
                if mt[x][jn[y][z]] != jn[mt[x][y]][mt[x][z]]:
                    return "distributivity fails"
    return None


def boolean_lattice(k: int) -> FiniteSemiring:
    """The lattice of subsets of {1..k}, 1 <= k <= 4, as a semiring:
    + is union, * is intersection, 0 is the empty set and 1 the full set.

    Elements are sorted by (cardinality, lexicographic) and labeled "0" for
    the empty set, "a" for the full set, and "e<digits>" in between, so that
    lplus1(boolean_lattice(1)) reproduces the t3 labeling exactly.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"k must be between 1 and 4, got {k}")
    universe = frozenset(range(1, k + 1))
    subsets = sorted(
        (
            frozenset(c)
            for r in range(k + 1)
            for c in itertools.combinations(range(1, k + 1), r)
        ),
        key=lambda s: (len(s), tuple(sorted(s))),
    )
    index = {s: i for i, s in enumerate(subsets)}

    def label(s: frozenset[int]) -> str:
        if not s:
            return "0"
        if s == universe:
            return "a"
        return "e" + "".join(str(i) for i in sorted(s))

    n = len(subsets)
    join = tuple(
        tuple(index[subsets[i] | subsets[j]] for j in range(n)) for i in range(n)
    )
    meet = tuple(
        tuple(index[subsets[i] & subsets[j]] for j in range(n)) for i in range(n)
    )
    return FiniteSemiring(
        f"b{k}",
        tuple(label(s) for s in subsets),
        join,
        meet,
        index[frozenset()],
        index[universe],
    )


def lplus1(lat: FiniteSemiring) -> FiniteSemiring:
    """Adjoin a fresh multiplicative unit to a non-trivial bounded
    distributive lattice, given as a semiring with + as join, * as meet,
    0 as bottom and 1 as top.

    On the old carrier + is join and * is meet.  The new unit 1 is neutral
    for *; additively, 0+1 = 1 and every other sum involving 1 collapses to
    the lattice top.  The result always satisfies the absorption law but
    (since 1+1 = top != 1) never the boolean law.
    """
    problem = _lattice_problem(lat)
    if problem is not None:
        raise ValueError(f"not a bounded distributive lattice: {problem}")
    if lat.size < 2:
        raise ValueError("trivial lattice rejected: need at least two elements")
    if "1" in lat.elements:
        raise ValueError("lattice already uses the label '1' reserved for the new unit")
    unit = lat.size
    top = lat.one
    bottom = lat.zero

    def add(x: int, y: int) -> int:
        if x != unit and y != unit:
            return lat.add[x][y]
        if (x, y) in ((bottom, unit), (unit, bottom)):
            return unit
        return top

    def mul(x: int, y: int) -> int:
        if x != unit and y != unit:
            return lat.mul[x][y]
        return y if x == unit else x

    size = unit + 1
    return FiniteSemiring(
        f"{lat.name}+1",
        lat.elements + ("1",),
        tuple(tuple(add(x, y) for y in range(size)) for x in range(size)),
        tuple(tuple(mul(x, y) for y in range(size)) for x in range(size)),
        bottom,
        unit,
    )


def direct_product(a: FiniteSemiring, b: FiniteSemiring) -> FiniteSemiring:
    """Componentwise product; labels are "(la,lb)" pairs."""
    pairs = [(i, j) for i in range(a.size) for j in range(b.size)]
    index = {p: k for k, p in enumerate(pairs)}
    elements = tuple(f"({a.elements[i]},{b.elements[j]})" for i, j in pairs)
    add = tuple(
        tuple(index[(a.add[i][k], b.add[j][l])] for k, l in pairs) for i, j in pairs
    )
    mul = tuple(
        tuple(index[(a.mul[i][k], b.mul[j][l])] for k, l in pairs) for i, j in pairs
    )
    return FiniteSemiring(
        f"{a.name}x{b.name}",
        elements,
        add,
        mul,
        index[(a.zero, b.zero)],
        index[(a.one, b.one)],
    )


# --- the algebra file format -------------------------------------------------

class AlgebraFormatError(ValueError):
    """Raised on malformed algebra files; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def format_algebra(alg: FiniteSemiring) -> str:
    """Serialize to the line-oriented ASCII format (bit-exact round trip)."""
    lines = [
        f"algebra {alg.name}",
        "elements: " + " ".join(alg.elements),
        f"zero: {alg.elements[alg.zero]}",
        f"one: {alg.elements[alg.one]}",
        "add:",
    ]
    lines += [" ".join(alg.elements[v] for v in row) for row in alg.add]
    lines.append("mul:")
    lines += [" ".join(alg.elements[v] for v in row) for row in alg.mul]
    return "\n".join(lines) + "\n"


def parse_algebra(text: str) -> FiniteSemiring:
    """Parse the line-oriented format emitted by format_algebra."""
    lines = text.split("\n")
    while lines and lines[-1].strip() == "":
        lines.pop()

    def get(lineno: int) -> str:
        if lineno > len(lines):
            raise AlgebraFormatError(lineno, "unexpected end of input")
        return lines[lineno - 1]

    head = get(1).split()
    if len(head) != 2 or head[0] != "algebra":
        raise AlgebraFormatError(1, "expected 'algebra <name>'")
    name = head[1]

    parts = get(2).split()
    if not parts or parts[0] != "elements:" or len(parts) < 2:
        raise AlgebraFormatError(2, "expected 'elements: <label> ...'")
    elements = tuple(parts[1:])
    if len(set(elements)) != len(elements):
        raise AlgebraFormatError(2, "duplicate element labels")
    index = {lab: i for i, lab in enumerate(elements)}
    n = len(elements)

    def constant(lineno: int, key: str) -> int:
        parts = get(lineno).split()
        if len(parts) != 2 or parts[0] != f"{key}:":
            raise AlgebraFormatError(lineno, f"expected '{key}: <label>'")
        if parts[1] not in index:
            raise AlgebraFormatError(lineno, f"unknown element label {parts[1]!r}")
        return index[parts[1]]

    zero = constant(3, "zero")
    one = constant(4, "one")

    def table(header_line: int, key: str) -> tuple[tuple[int, ...], ...]:
        if get(header_line).strip() != f"{key}:":
            raise AlgebraFormatError(header_line, f"expected '{key}:'")
        rows = []
        for r in range(n):
            lineno = header_line + 1 + r
            labs = get(lineno).split()
            if len(labs) != n:
                raise AlgebraFormatError(lineno, f"expected {n} labels, got {len(labs)}")
            for lab in labs:
                if lab not in index:
                    raise AlgebraFormatError(lineno, f"unknown element label {lab!r}")
            rows.append(tuple(index[lab] for lab in labs))
        return tuple(rows)

    add = table(5, "add")
    mul = table(6 + n, "mul")
    expected = 6 + 2 * n
    if len(lines) > expected:
        raise AlgebraFormatError(expected + 1, "trailing content after mul table")
    return FiniteSemiring(name, elements, add, mul, zero, one)


def load_algebra(path: str) -> FiniteSemiring:
    with open(path, "r", encoding="ascii") as fh:
        return parse_algebra(fh.read())


# --- builtins ---------------------------------------------------------------

BUILTIN_NAMES: tuple[str, ...] = ("gf2", "gf3", "s3", "t3", "two")

_BUILTINS: dict[str, FiniteSemiring] = {
    name: load_algebra(os.path.join(os.path.dirname(__file__), "data", f"{name}.alg"))
    for name in BUILTIN_NAMES
}


def builtin(name: str) -> FiniteSemiring:
    """Look up one of the stock algebras, read from data/<name>.alg."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin algebra {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        ) from None
