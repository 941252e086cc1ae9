"""Finite semirings given by Cayley tables.

Tables are tuples of tuples of element indices; labels are only for I/O.
Construction is lazy about axioms: any well-shaped table pair is accepted
(gf3 is a perfectly good semiring that fails multiplicative idempotence),
and check_axioms reports which laws actually hold.  A bounded distributive
lattice is a semiring too, with + as join, * as meet, 0 as bottom and 1 as
top: boolean_lattice builds the subset lattices so, and lplus1 adjoins a
new unit to one.  builtin reads each stock algebra from its file in data/,
in format_algebra's format, on the first call for that name, not at import.
"""

from __future__ import annotations

import itertools
import operator
import os
from collections.abc import Iterable, Mapping
from functools import cached_property, partial, reduce

from .normal import monomials_over
from .terms import One, Record, Term, TermSyntaxError, Var, parse, postfix, run


class FiniteSemiring(Record):
    __match_args__ = ("name", "elements", "add", "mul", "zero", "one")
    name: str
    elements: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int

    def __init__(self, name, elements, add, mul, zero, one) -> None:
        # tuples, so that no caller's list can change a model after its checks
        super().__init__(name, tuple(elements), tuple(map(tuple, add)), tuple(map(tuple, mul)), zero, one)
        if isinstance(elements, str) or any(type(word) is not str for word in (self.name, *self.elements)):
            raise TypeError("name and labels must be strs, and elements not a str")  # not "a1" for a, 1
        n = len(self.elements)
        if n == 0:
            raise ValueError("carrier must be non-empty")
        if len(set(self.elements)) != n:
            raise ValueError("duplicate element labels")
        for word in (self.name, *self.elements):
            if word.split() != [word]:  # format_algebra writes space-separated words
                raise ValueError(f"name or label {word!r} is empty or has whitespace")
            if not word.isascii():  # and load_algebra reads ASCII
                raise ValueError(f"name or label {word!r} is not ASCII")
        if any(type(v) is not int for v in itertools.chain((self.zero, self.one), *self.add, *self.mul)):
            raise TypeError("table entries, zero and one must be ints")  # 1.0 and True pass the range checks
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

    @cached_property
    def _sums_of_products(self) -> bool:
        """Do both associative and both distributive laws hold?  Then every
        term function is a sum of products of generators (see clone_count)."""
        laws = ("add-associative", "mul-associative", "distributive-left", "distributive-right")
        return all(holds(self, law)[0] for law in _SEMIRING_AXIOMS if law.name in laws)

    @cached_property
    def _blocks(self) -> dict[int, tuple]:
        """By number of swept variables, the runs, constant and variable masks holds sets up."""
        return {}

    @cached_property
    def _sides(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The distinct tables among add and mul by rows and by columns, in that
        order (row x lists x+c, c+x, x*c, c*x): a commutative table is read once."""
        tables = self.add, tuple(zip(*self.add)), self.mul, tuple(zip(*self.mul))
        return tuple(t for i, t in enumerate(tables) if t not in tables[:i])

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

    def leaf(op: Term) -> int:
        if isinstance(op, Var):
            try:
                value = env[op.index]
            except KeyError:
                raise ValueError(f"unbound variable x{op.index}") from None
            if type(value) is not int:  # 1.0 and True pass the range check
                raise TypeError(f"x{op.index} is bound to {value!r}, not an int")
            if not 0 <= value < alg.size:
                raise ValueError(f"x{op.index} is bound to {value}, outside range({alg.size})")
            return value
        return alg.one if isinstance(op, One) else alg.zero

    add, mul = alg.add, alg.mul
    (value,) = run(postfix(t), leaf, lambda a, b: add[a][b], lambda a, b: mul[a][b])
    return value


class Identity(Record):
    __match_args__ = ("lhs", "rhs", "name")
    lhs: Term
    rhs: Term
    name: str

    def __init__(self, lhs: Term, rhs: Term, name: str = "") -> None:
        super().__init__(lhs, rhs, name)

    def variable_list(self) -> list[int]:
        return list(self._compiled[0])

    @cached_property
    def _compiled(self) -> tuple[tuple[int, ...], tuple[int | bool, ...]]:
        """Sorted variables vs, and both sides' postfix code: x_vs[i] is slot i, 0 and 1 the next two."""
        code = postfix(self.lhs, self.rhs)
        vs = sorted({op.index for op in code if isinstance(op, Var)})
        return tuple(vs), tuple(op if type(op) is bool else vs.index(op.index) if isinstance(op, Var)
                                else len(vs) + isinstance(op, One) for op in code)


def parse_identity(text: str, name: str = "") -> Identity:
    """Parse "lhs = rhs" into an Identity; a syntax error's column counts
    from the start of text on either side."""
    parts = text.split("=")
    if len(parts) != 2:
        raise ValueError("an identity must contain exactly one '='")
    lhs, rhs = parts
    left = parse(lhs)
    try:
        right = parse(rhs)
    except TermSyntaxError as exc:
        raise TermSyntaxError(exc.message, exc.position + len(lhs) + 1) from None
    return Identity(left, right, name)


# Most points in holds' first block, which keeps an early witness cheap, and
# in each later block, whose masks then hold at most 65 536 bits (8 KB).
_FIRST_BLOCK_POINTS = 4096
_BLOCK_POINTS = 65536


def _fold(code: list, h: int, values: list, add, mul) -> list:
    """Evaluate each maximal subterm of code whose slots are all h or more once, as a new
    slot of values freed when consumed; return the code left, where that slot stands for it."""
    new, residual = len(values), []  # head slots and operators (False, True) lie below new
    for op in code:
        if type(op) is bool and residual[-2] >= new <= residual[-1]:  # both operands folded
            del residual[-1]
            right = values.pop()
            values[-1] = (mul if op else add)(values[-1], right)
        elif type(op) is bool or op < h:
            residual.append(op)
        else:
            residual.append(len(values))
            values.append(values[op])
    return residual


def holds(alg: FiniteSemiring, ident: Identity) -> tuple[bool, dict[int, int] | None]:
    """Check an identity over all assignments: (True, None), or (False, the
    lexicographically first counterexample in element-index order, as a dict
    from variable index to element index with the variables ascending).

    >>> holds(builtin("t3"), parse_identity("x+x = x"))
    (False, {1: 2})

    The assignments are visited in itertools.product order, a block at a
    time: the leading (head) variables are fixed within a block and the
    trailing ones swept.  Each side is evaluated on a whole block at once as
    a list of bitmasks, one per element, in which bit p is set when the side
    equals that element at the block's p-th point.  A first block of up to
    _FIRST_BLOCK_POINTS goes alone when the later ones, of up to _BLOCK_POINTS,
    are larger; each pass computes the subterms free of the head variables once.
    """
    vs, code = ident._compiled
    k, n = alg.size, len(vs)

    def combine(table, left: list[int], right: list[int]) -> list[int]:
        rs = [(b, mb) for b, mb in enumerate(right) if mb]
        out = [0] * k
        for a, ma in enumerate(left):
            if ma:
                row = table[a]
                for b, mb in rs:
                    m = ma & mb
                    if m:
                        out[row[b]] |= m
        return out

    add, mul = partial(combine, alg.add), partial(combine, alg.mul)
    first = 1 if n else 0  # the variables swept in the first block, then in the large ones
    while first < n and k ** (first + 1) <= _FIRST_BLOCK_POINTS:
        first += 1
    large = first
    while large < n and k ** (large + 1) <= _BLOCK_POINTS:
        large += 1
    every = itertools.product(range(k), repeat=n - large)
    passes = [(first, [(0,) * (n - first)]), (large, every)] if first < large else [(large, every)]
    for swept, heads in passes:
        if swept not in alg._blocks:
            full = (1 << k**swept) - 1
            # the masks of a value that is element v at every point of the block
            constant = tuple(tuple(full if e == v else 0 for e in range(k)) for v in range(k))
            # swept variable t is v on runs of k**(swept-1-t) points, repeated with period k times that
            runs = tuple(k ** (swept - 1 - t) for t in range(swept))
            masks, repeat = [], 1
            for r in runs:  # repeat has a 1 every k*r bits: shifts build it in linear time
                ones = (repeat << r) - repeat
                masks.append(tuple(ones << (v * r) for v in range(k)))
                for _ in range(k - 1):
                    repeat |= repeat << r
            alg._blocks[swept] = runs, constant, tuple(masks)
        runs, constant, masks = alg._blocks[swept]
        # by slot: the heads (set per head), swept, 0, 1
        values = [None] * (n - swept) + [*masks, constant[alg.zero], constant[alg.one]]
        residual = _fold(code, n - swept, values, add, mul)
        for head in heads:
            values[:len(head)] = [constant[v] for v in head]
            lhs, rhs = run(residual, values.__getitem__, add, mul)
            diff = reduce(operator.or_, map(operator.xor, lhs, rhs))
            if diff:
                p = (diff & -diff).bit_length() - 1
                return False, dict(zip(vs, head + tuple(p // r % k for r in runs)))
    return True, None


def _format_witness(alg: FiniteSemiring, pairs: Iterable[tuple[int, int]]) -> str:
    """(variable, element) pairs, variables ascending, as "x1=a, x2=0"."""
    return ", ".join(f"x{i}={alg.elements[v]}" for i, v in pairs) or "the empty assignment"


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


class AxiomCheck(Record):
    __match_args__ = ("name", "ok", "witness")
    name: str
    ok: bool
    witness: tuple[tuple[int, int], ...] | None  # sorted (variable, element) pairs


class AxiomReport(Record):
    __match_args__ = ("algebra", "checks")
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

_LATTICE_BASIS: tuple[Identity, ...] = (
    parse_identity("0+x = x", "join-bottom"),
    parse_identity("1*x = x", "meet-top"),
    parse_identity("x*(x+y) = x", "absorption"),
    parse_identity("x*(y+z) = z*x+y*x", "distributivity"),
)


def _lattice_problem(lat: FiniteSemiring) -> str | None:
    """The first law of _LATTICE_BASIS that lat breaks, with its least
    witness, or None.  By M. Sholander ("Postulates for distributive
    lattices", Canad. J. Math. 3 (1951)), the last two laws hold exactly in
    the distributive lattices with + as join and * as meet (with x*y+x*z on
    the right they admit non-lattices); the first two make 0 the bottom and
    1 the top."""
    for law in _LATTICE_BASIS:
        ok, env = holds(lat, law)
        if not ok:
            return f"{law.name} fails at {_format_witness(lat, env.items())}"
    return None


def boolean_lattice(k: int) -> FiniteSemiring:
    """The lattice of subsets of {1..k}, 1 <= k <= 6, as a semiring:
    + is union, * is intersection, 0 is the empty set and 1 the full set.

    Elements are sorted by (cardinality, lexicographic) and labeled "0" for
    the empty set, "a" for the full set, and "e<digits>" in between, so that
    lplus1(boolean_lattice(1)) reproduces the t3 labeling exactly.  The
    labels would be ambiguous from k = 10 on; k stops at 6, whose lplus1
    has 65 elements.
    """
    if type(k) is not int:  # boolean_lattice(True) would be named bTrue
        raise TypeError(f"k must be an int, got {k!r}")
    if not 1 <= k <= 6:
        raise ValueError(f"k must be between 1 and 6, got {k}")
    subsets = monomials_over(k)
    # subset s as the bitmask with bit i-1 set for each i in s: + is |, * is &
    masks = [sum(1 << (i - 1) for i in s) for s in subsets]
    index = {m: i for i, m in enumerate(masks)}
    labels = ["0", *("e" + "".join(map(str, sorted(s))) for s in subsets[1:-1]), "a"]
    add = [[index[x | y] for y in masks] for x in masks]
    mul = [[index[x & y] for y in masks] for x in masks]
    return FiniteSemiring(f"b{k}", labels, add, mul, 0, len(masks) - 1)


def lplus1(lat: FiniteSemiring) -> FiniteSemiring:
    """Adjoin a fresh multiplicative unit to a non-trivial bounded
    distributive lattice, given as a semiring with + as join, * as meet,
    0 as bottom and 1 as top.  The label 1 goes to the new unit, so a top
    labelled 1 is relabelled a when no element has that label already.

    holds checks lat on Sholander's four identities (see _lattice_problem).
    The tables are lat's tables plus one row and one column for the new
    unit 1, which comes last.  It is neutral for *; additively, 0+1 = 1 and
    every other sum involving 1 collapses to the lattice top.  The result
    always satisfies the absorption law but (since 1+1 = top != 1) never
    the boolean law.  For finite L it is subdirectly irreducible iff L is
    Boolean, with monolith {top, 1}.  The Boolean direction holds for Boolean
    algebras of any size, so the variety is not residually small.
    """
    problem = _lattice_problem(lat)
    if problem is not None:
        raise ValueError(f"not a bounded distributive lattice: {problem}")
    if lat.size < 2:
        raise ValueError("trivial lattice rejected: need at least two elements")
    elements = lat.elements
    if "1" in elements:
        if elements[lat.one] != "1" or "a" in elements:
            raise ValueError("lattice already uses the label '1' reserved for the new unit")
        elements = elements[: lat.one] + ("a",) + elements[lat.one + 1 :]
    unit, top, bottom = lat.size, lat.one, lat.zero
    edge = tuple(unit if y == bottom else top for y in range(unit + 1))
    add = tuple(row + (edge[x],) for x, row in enumerate(lat.add)) + (edge,)
    mul = tuple(row + (x,) for x, row in enumerate(lat.mul)) + (tuple(range(unit + 1)),)
    return FiniteSemiring(f"{lat.name}+1", elements + ("1",), add, mul, bottom, unit)


def direct_product(a: FiniteSemiring, b: FiniteSemiring) -> FiniteSemiring:
    """Componentwise product; the pair (i, j) is element i*|b|+j, labeled "(la,lb)"."""
    m = b.size
    labels = [f"({la},{lb})" for la in a.elements for lb in b.elements]
    add, mul = ([[x * m + y for x in s_row for y in t_row] for s_row in s for t_row in t]
                for s, t in ((a.add, b.add), (a.mul, b.mul)))
    return FiniteSemiring(f"{a.name}x{b.name}", labels, add, mul, a.zero * m + b.zero, a.one * m + b.one)


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
        if not lines[lineno - 1].isascii():
            raise AlgebraFormatError(lineno, "non-ASCII character")
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

    def table(header_line: int, key: str) -> list[list[int]]:
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
            rows.append([index[lab] for lab in labs])
        return rows

    add = table(5, "add")
    mul = table(6 + n, "mul")
    expected = 6 + 2 * n
    if len(lines) > expected:
        raise AlgebraFormatError(expected + 1, "trailing content after mul table")
    return FiniteSemiring(name, elements, add, mul, zero, one)


def load_algebra(path: str) -> FiniteSemiring:
    # a non-ASCII byte becomes a lone surrogate, which parse_algebra reports
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return parse_algebra(fh.read())


# --- builtins ---------------------------------------------------------------

BUILTIN_NAMES: tuple[str, ...] = ("gf2", "gf3", "s3", "t3", "two")
_LOADED: dict[str, FiniteSemiring] = {}


def builtin(name: str) -> FiniteSemiring:
    """The stock algebra in data/<name>.alg: read on the first call for name, the same object after."""
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin algebra {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    if name not in _LOADED:
        _LOADED[name] = load_algebra(os.path.join(os.path.dirname(__file__), "data", f"{name}.alg"))
    return _LOADED[name]
