"""Reference answers for the benchmark, independent of the code under test.

Nothing here imports misr.  Terms are nested tuples, finite models are
label-keyed tables transcribed or constructed here, and evaluation is a
vectorised walk over all assignment points.  The word-problem check uses
the three-element model t3, which is complete for the variety: two terms
are equal in the free algebra iff they agree as functions on t3, and a
reduced sum of monomials is the unique normal form of its class.

Term tuples: ("0",), ("1",), ("v", i), ("+", left, right), ("*", left, right).
"""

from __future__ import annotations

import itertools
from random import Random

ZERO = ("0",)
ONE = ("1",)


def var(i: int) -> tuple:
    return ("v", i)


def add(a: tuple, b: tuple) -> tuple:
    return ("+", a, b)


def mul(a: tuple, b: tuple) -> tuple:
    return ("*", a, b)


def sum_of(terms: list[tuple]) -> tuple:
    out = terms[0]
    for t in terms[1:]:
        out = add(out, t)
    return out


def product_of(terms: list[tuple]) -> tuple:
    out = terms[0]
    for t in terms[1:]:
        out = mul(out, t)
    return out


# --- text -------------------------------------------------------------------

def text(t: tuple) -> str:
    """Render so that the program's left-associative parser rebuilds t node
    for node: a right child at the same precedence level is parenthesised."""

    def go(t: tuple, parent: int, right: bool) -> str:
        kind = t[0]
        if kind == "0" or kind == "1":
            return kind
        if kind == "v":
            return f"x{t[1]}"
        if kind == "+":
            s = go(t[1], 1, False) + "+" + go(t[2], 1, True)
            return f"({s})" if parent > 1 or (parent == 1 and right) else s
        s = go(t[1], 2, False) + "*" + go(t[2], 2, True)
        return f"({s})" if parent == 2 and right else s

    return go(t, 0, False)


def size(t: tuple) -> int:
    if t[0] in ("+", "*"):
        return 1 + size(t[1]) + size(t[2])
    return 1


def variables(t: tuple) -> set[int]:
    if t[0] == "v":
        return {t[1]}
    if t[0] in ("+", "*"):
        return variables(t[1]) | variables(t[2])
    return set()


def parse_form(s: str) -> list[tuple[int, ...]]:
    """Read a canonical sum-of-monomials text ("0", "1+x1*x2", ...) into a
    list of sorted index tuples; raises ValueError on anything else."""
    if s == "0":
        return []
    out = []
    for part in s.split("+"):
        if part == "1":
            out.append(())
            continue
        idx = []
        for factor in part.split("*"):
            if not (factor.startswith("x") and factor[1:].isdigit()):
                raise ValueError(f"not a canonical monomial: {part!r}")
            idx.append(int(factor[1:]))
        if idx != sorted(set(idx)):
            raise ValueError(f"monomial not ascending: {part!r}")
        out.append(tuple(idx))
    return out


def form_text(form: list[tuple[int, ...]]) -> str:
    if not form:
        return "0"
    return "+".join("*".join(f"x{i}" for i in m) if m else "1" for m in form)


def form_term(form: list[tuple[int, ...]]) -> tuple:
    if not form:
        return ZERO
    return sum_of([product_of([var(i) for i in m]) if m else ONE for m in form])


def is_canonical(form: list[tuple[int, ...]]) -> bool:
    """Sorted by (size, indices) and reduced: no summand contains two other
    summand positions."""
    keys = [(len(m), m) for m in form]
    if keys != sorted(keys):
        return False
    sets = [set(m) for m in form]
    for k, big in enumerate(sets):
        inside = sum(1 for p, s in enumerate(sets) if p != k and s <= big)
        if inside >= 2:
            return False
    return True


# --- finite models as label tables ------------------------------------------

class Model:
    """A finite algebra as label-keyed tables, elements in index order."""

    def __init__(self, name, elements, add, mul, zero, one):
        self.name = name
        self.elements = tuple(elements)
        self.add = add  # add[x][y] -> label
        self.mul = mul
        self.zero = zero
        self.one = one


def model_from_rows(name, elements, add_rows, mul_rows, zero="0", one="1"):
    add = {x: dict(zip(elements, row.split())) for x, row in zip(elements, add_rows)}
    mul = {x: dict(zip(elements, row.split())) for x, row in zip(elements, mul_rows)}
    return Model(name, elements, add, mul, zero, one)


# t3: the chain 0 < a < 1 with 1+1 = a; s3: the same with 1+1 = 1.
T3 = model_from_rows("t3", "0a1", ["0 a 1", "a a a", "1 a a"], ["0 0 0", "0 a a", "0 a 1"])
S3 = model_from_rows("s3", "0a1", ["0 a 1", "a a a", "1 a 1"], ["0 0 0", "0 a a", "0 a 1"])
TWO = model_from_rows("two", "01", ["0 1", "1 1"], ["0 0", "0 1"])
GF2 = model_from_rows("gf2", "01", ["0 1", "1 0"], ["0 0", "0 1"])
GF3 = model_from_rows("gf3", "012", ["0 1 2", "1 2 0", "2 0 1"], ["0 0 0", "0 1 2", "0 2 1"])
BUILTINS = {m.name: m for m in (T3, S3, TWO, GF2, GF3)}


def lplus1_model(k: int) -> Model:
    """Subsets of {1..k} (join = union, meet = intersection) with a fresh
    unit 1 adjoined: 0+1 = 1, any other sum with 1 is the full set, and 1 is
    neutral for *.  Elements sorted by (size, indices), labelled 0, e<ids>,
    a (the full set), then 1."""
    subsets = [frozenset(c) for r in range(k + 1) for c in itertools.combinations(range(1, k + 1), r)]
    full = frozenset(range(1, k + 1))

    def label(s):
        if not s:
            return "0"
        if s == full:
            return "a"
        return "e" + "".join(str(i) for i in sorted(s))

    of = {label(s): s for s in subsets}
    elements = [label(s) for s in subsets] + ["1"]
    add, mul = {}, {}
    for x in elements:
        add[x], mul[x] = {}, {}
        for y in elements:
            if x != "1" and y != "1":
                add[x][y] = label(of[x] | of[y])
                mul[x][y] = label(of[x] & of[y])
            else:
                add[x][y] = "1" if {x, y} == {"0", "1"} else "a"
                mul[x][y] = y if x == "1" else x
    return Model(f"b{k}+1", elements, add, mul, "0", "1")


def product_model(a: Model, b: Model) -> Model:
    pairs = [(x, y) for x in a.elements for y in b.elements]
    lab = {p: f"({p[0]},{p[1]})" for p in pairs}
    add = {lab[p]: {lab[q]: lab[(a.add[p[0]][q[0]], b.add[p[1]][q[1]])] for q in pairs} for p in pairs}
    mul = {lab[p]: {lab[q]: lab[(a.mul[p[0]][q[0]], b.mul[p[1]][q[1]])] for q in pairs} for p in pairs}
    return Model(f"{a.name}x{b.name}", [lab[p] for p in pairs], add, mul,
                 lab[(a.zero, b.zero)], lab[(a.one, b.one)])


def monolith_of_lplus1(k: int) -> str:
    """lplus1 of a subset lattice is subdirectly irreducible; its monolith
    merges only the top a with the new unit 1."""
    m = lplus1_model(k)
    return ",".join("{a,1}" if e == "a" else "{" + e + "}" for e in m.elements if e != "1")


# --- evaluation -------------------------------------------------------------

def evaluate(t: tuple, m: Model, cols: dict[int, list[str]], n: int) -> list[str]:
    """Values of t at n points, given one column of labels per variable."""
    kind = t[0]
    if kind == "v":
        return cols[t[1]]
    if kind == "0":
        return [m.zero] * n
    if kind == "1":
        return [m.one] * n
    left = evaluate(t[1], m, cols, n)
    right = evaluate(t[2], m, cols, n)
    table = m.add if kind == "+" else m.mul
    return [table[x][y] for x, y in zip(left, right)]


def first_counterexample(m: Model, lhs: tuple, rhs: tuple, vs: list[int] | None = None):
    """(True, None) or (False, witness): the first point in itertools.product
    order over m.elements, variables ascending, where lhs and rhs differ.
    The witness is a tuple of (variable, label) pairs."""
    if vs is None:
        vs = sorted(variables(lhs) | variables(rhs))
    if not vs:
        same = evaluate(lhs, m, {}, 1) == evaluate(rhs, m, {}, 1)
        return (True, None) if same else (False, ())
    # one chunk per value of the first variable, so early witnesses stay cheap
    rest = list(itertools.product(m.elements, repeat=len(vs) - 1))
    for head in m.elements:
        points = [(head,) + p for p in rest]
        cols = {v: [p[i] for p in points] for i, v in enumerate(vs)}
        a = evaluate(lhs, m, cols, len(points))
        b = evaluate(rhs, m, cols, len(points))
        if a != b:
            at = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
            return False, tuple(zip(vs, points[at]))
    return True, None


def position(m: Model, witness: tuple) -> int:
    """Index of a witness point in itertools.product order."""
    pos = 0
    for _, label in witness:
        pos = pos * len(m.elements) + m.elements.index(label)
    return pos


def t3_equal(t: tuple, u: tuple) -> bool:
    return first_counterexample(T3, t, u)[0]


def check_form(term: tuple, out: str) -> str | None:
    """None if out is the normal form of term, else a reason."""
    try:
        form = parse_form(out)
    except ValueError as exc:
        return str(exc)
    if not is_canonical(form):
        return f"not a reduced sorted form: {out[:80]}"
    if not t3_equal(term, form_term(form)):
        return f"differs from the input on t3: {out[:80]}"
    return None


# --- identities and axiom reports -------------------------------------------

def _law(s: str) -> tuple:
    """Parse a small law over x, y, z written with full parentheses."""
    toks = s.replace("(", " ( ").replace(")", " ) ").replace("+", " + ").replace("*", " * ").split()
    pos = 0

    def atom():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            t = expr()
            pos += 1
            return t
        return {"0": ZERO, "1": ONE, "x": var(1), "y": var(2), "z": var(3)}[tok]

    def prod():
        nonlocal pos
        t = atom()
        while pos < len(toks) and toks[pos] == "*":
            pos += 1
            t = mul(t, atom())
        return t

    def expr():
        nonlocal pos
        t = prod()
        while pos < len(toks) and toks[pos] == "+":
            pos += 1
            t = add(t, prod())
        return t

    return expr()


# The axiom report of `misr axioms`: name, lhs, rhs, in report order.
SEMIRING_AXIOMS = [
    ("add-commutative", "x+y", "y+x"),
    ("add-associative", "(x+y)+z", "x+(y+z)"),
    ("zero-add-left", "0+x", "x"),
    ("zero-add-right", "x+0", "x"),
    ("mul-associative", "(x*y)*z", "x*(y*z)"),
    ("one-mul-left", "1*x", "x"),
    ("one-mul-right", "x*1", "x"),
    ("distributive-left", "x*(y+z)", "x*y+x*z"),
    ("distributive-right", "(y+z)*x", "y*x+z*x"),
    ("zero-mul-left", "0*x", "0"),
    ("zero-mul-right", "x*0", "0"),
]
FLAG_AXIOMS = [
    ("mul-commutative", "x*y", "y*x"),
    ("mul-idempotent", "x*x", "x"),
    ("boolean-law", "1+x+x", "1"),
    ("absorption-law", "x+y+x*y*z", "x+y"),
]


def axiom_report(m: Model) -> list[tuple[str, bool, tuple | None]]:
    """(name, ok, witness) per axiom, witness as (variable, label) pairs."""
    out = []
    for name, lhs, rhs in SEMIRING_AXIOMS + FLAG_AXIOMS:
        ok, w = first_counterexample(m, _law(lhs), _law(rhs))
        out.append((name, ok, w))
    return out


def axiom_lines(m: Model) -> tuple[str, int]:
    """The stdout and exit code of `misr axioms` on m."""
    report = axiom_report(m)
    ok = {name: good for name, good, _ in report}
    lines = []
    for name, good, w in report:
        lines.append(f"{name}: ok" if good else f"{name}: fails at {witness_text(w)}")
    semiring = all(ok[name] for name, _, _ in SEMIRING_AXIOMS)
    ci = semiring and ok["mul-commutative"] and ok["mul-idempotent"]
    yes = {True: "yes", False: "no"}
    lines.append(f"semiring: {yes[semiring]}")
    lines.append(f"commutative-idempotent: {yes[ci]}")
    lines.append(f"boolean: {yes[ci and ok['boolean-law']]}")
    lines.append(f"absorptive: {yes[ci and ok['absorption-law']]}")
    return "\n".join(lines) + "\n", 0 if semiring else 1


def witness_text(w: tuple) -> str:
    if not w:
        return "the empty assignment"
    return ", ".join(f"x{v}={lab}" for v, lab in w)


# --- free spectrum ----------------------------------------------------------

# Reduced forms in n variables (= n-ary term functions of t3, which the
# closure below confirms), and the term-function counts of two and s3.
FREE_SPECTRUM = (3, 6, 19, 135)
CLONE_COUNTS = {"t3": FREE_SPECTRUM, "two": (2, 3, 6, 20), "s3": (2, 4, 14, 122)}


def clone_size(m: Model, n: int) -> int:
    """Number of n-ary term functions of m: the closure of the constants and
    projections under pointwise + and *, grown by whole generations."""
    points = list(itertools.product(m.elements, repeat=n))
    funcs = {tuple(m.zero for _ in points), tuple(m.one for _ in points)}
    funcs |= {tuple(p[i] for p in points) for i in range(n)}
    while True:
        new = set()
        for f, g in itertools.product(funcs, repeat=2):
            new.add(tuple(m.add[x][y] for x, y in zip(f, g)))
            new.add(tuple(m.mul[x][y] for x, y in zip(f, g)))
        if new <= funcs:
            return len(funcs)
        funcs |= new


# --- seeded term generation -------------------------------------------------

def random_term(rng: Random, nodes: int, vs: list[int], constants: bool = True) -> tuple:
    """A random term with at most `nodes` nodes over the variables vs."""
    if nodes < 3 or rng.random() < 0.15:
        pick = rng.randrange(len(vs) + (2 if constants else 0))
        if pick < len(vs):
            return var(vs[pick])
        return ZERO if pick == len(vs) else ONE
    left_budget = rng.randint(1, nodes - 2)
    left = random_term(rng, left_budget, vs, constants)
    right = random_term(rng, nodes - 1 - size(left), vs, constants)
    return (rng.choice("+*"), left, right)


def covering_term(rng: Random, nodes: int, vs: list[int]) -> tuple:
    """A random term in which every variable of vs occurs."""
    t = random_term(rng, nodes, vs)
    missing = [v for v in vs if v not in variables(t)]
    rng.shuffle(missing)
    for v in missing:
        t = (rng.choice("+*"), t, var(v)) if rng.random() < 0.5 else (rng.choice("+*"), var(v), t)
    return t


def _subterms(t: tuple, path=()):
    yield path, t
    if t[0] in ("+", "*"):
        yield from _subterms(t[1], path + (1,))
        yield from _subterms(t[2], path + (2,))


def _replace(t: tuple, path: tuple, new: tuple) -> tuple:
    if not path:
        return new
    parts = list(t)
    parts[path[0]] = _replace(t[path[0]], path[1:], new)
    return tuple(parts)


def rewrite(rng: Random, t: tuple, steps: int, vs: list[int], absorption: bool = True) -> tuple:
    """Apply `steps` random equational rewrites: commutation, x -> x*x,
    units, distribution and (if allowed) x+y -> x+y+x*y*z.  All hold in every
    commutative multiplicatively idempotent semiring; the last one is the
    absorption law of the variety."""
    for _ in range(steps):
        path, sub = rng.choice(list(_subterms(t)))
        moves = ["square", "unit"]
        if sub[0] in ("+", "*"):
            moves.append("swap")
        if sub[0] == "*" and sub[2][0] == "+":
            moves.append("distribute")
        if sub[0] == "+" and absorption:
            moves.append("absorb")
        move = rng.choice(moves)
        if move == "swap":
            new = (sub[0], sub[2], sub[1])
        elif move == "square":
            new = mul(sub, sub)
        elif move == "unit":
            new = mul(sub, ONE) if rng.random() < 0.5 else add(sub, ZERO)
        elif move == "distribute":
            a, (_, b, c) = sub[1], sub[2]
            new = add(mul(a, b), mul(a, c))
        else:
            new = add(sub, mul(mul(sub[1], sub[2]), var(rng.choice(vs))))
        t = _replace(t, path, new)
    return t


def mutate(rng: Random, t: tuple, vs: list[int]) -> tuple:
    """Replace one random leaf by another leaf; usually changes the function."""
    leaves = [(p, s) for p, s in _subterms(t) if s[0] not in ("+", "*")]
    path, leaf = rng.choice(leaves)
    choices = [var(v) for v in vs] + [ZERO, ONE]
    return _replace(t, path, rng.choice([c for c in choices if c != leaf]))
