"""Shared test helpers: independent mini-evaluator, term generators, a
recursive term printer and parser, the order of a reduced form's
summands, the unreduced expansion of a term, the label-keyed lplus1,
random tables, the exhaustive congruence oracle, the clone closure in
rounds, the listing of reduced forms by placement and a check for cyclic
garbage.

Everything here is deliberately self-contained so that oracle-based tests do
not exercise the code paths they are checking: the evaluator works over
label-keyed dict tables, and the congruence oracle enumerates raw partitions.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
from collections import deque
from random import Random

from hypothesis import strategies as st

from misr import Add, FiniteSemiring, Mul, One, ONE, Term, TermSyntaxError, Var, Zero, ZERO, monomials_over, rep_text
from misr.terms import _describe, _lex

# The three-element chain model used as the equality oracle, transcribed
# independently of the package's builtin tables.
T3_LABELS = ("0", "a", "1")
T3_ADD = {
    ("0", "0"): "0", ("0", "a"): "a", ("0", "1"): "1",
    ("a", "0"): "a", ("a", "a"): "a", ("a", "1"): "a",
    ("1", "0"): "1", ("1", "a"): "a", ("1", "1"): "a",
}
T3_MUL = {
    ("0", "0"): "0", ("0", "a"): "0", ("0", "1"): "0",
    ("a", "0"): "0", ("a", "a"): "a", ("a", "1"): "a",
    ("1", "0"): "0", ("1", "a"): "a", ("1", "1"): "1",
}


def eval_labels(t: Term, env: dict[int, str], add, mul, zero="0", one="1") -> str:
    """Structural evaluation over label-keyed tables; independent of misr.eval_term."""
    if isinstance(t, Zero):
        return zero
    if isinstance(t, One):
        return one
    if isinstance(t, Var):
        return env[t.index]
    if isinstance(t, Add):
        return add[(eval_labels(t.left, env, add, mul, zero, one),
                    eval_labels(t.right, env, add, mul, zero, one))]
    if isinstance(t, Mul):
        return mul[(eval_labels(t.left, env, add, mul, zero, one),
                    eval_labels(t.right, env, add, mul, zero, one))]
    raise TypeError(f"not a term: {t!r}")


def t3_agree(t: Term, u: Term, n_vars: int = 3) -> bool:
    """Do t and u evaluate identically over every T3 assignment?"""
    for point in itertools.product(T3_LABELS, repeat=n_vars):
        env = {i + 1: point[i] for i in range(n_vars)}
        if eval_labels(t, env, T3_ADD, T3_MUL) != eval_labels(u, env, T3_ADD, T3_MUL):
            return False
    return True


def random_term(rng: Random, max_nodes: int, n_vars: int) -> Term:
    """A random term with at most max_nodes AST nodes."""

    def go(budget: int) -> tuple[Term, int]:
        if budget < 3 or rng.random() < 0.3:
            pick = rng.randrange(2 + n_vars)
            if pick == 0:
                return ZERO, 1
            if pick == 1:
                return ONE, 1
            return Var(pick - 1), 1
        left, ln = go(budget - 2)
        right, rn = go(budget - 1 - ln)
        node = Add if rng.random() < 0.5 else Mul
        return node(left, right), 1 + ln + rn

    term, _ = go(max_nodes)
    return term


def reference_to_text(t, parent=0, right=False):
    """Text with canonical variable names and minimal parentheses, by
    structural recursion; parse reads it back as t."""
    match t:
        case Zero():
            return "0"
        case One():
            return "1"
        case Var(i):
            return f"x{i}"
        case Add(l, r):
            s = reference_to_text(l, 1, False) + "+" + reference_to_text(r, 1, True)
            return f"({s})" if parent > 1 or (parent == 1 and right) else s
        case Mul(l, r):
            s = reference_to_text(l, 2, False) + "*" + reference_to_text(r, 2, True)
            return f"({s})" if parent == 2 and right else s
    raise TypeError(f"not a term: {t!r}")


def terms_strategy(max_index: int = 3, max_leaves: int = 20):
    atoms = st.one_of(
        st.just(ZERO),
        st.just(ONE),
        st.integers(1, max_index).map(Var),
    )
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda p: Add(*p)),
            st.tuples(kids, kids).map(lambda p: Mul(*p)),
        ),
        max_leaves=max_leaves,
    )


def monomial_key(m: frozenset[int]) -> tuple[int, list[int]]:
    """The order of a reduced form's summands: size, then sorted indices."""
    return len(m), sorted(m)


def expand(t: Term) -> list[frozenset[int]]:
    """The unreduced expansion of t into monomials, by structural recursion:
    a sum concatenates, a product takes every union of a left and a right
    monomial.  Independent of misr.flatten, which reduces as it goes."""
    match t:
        case Zero():
            return []
        case One():
            return [frozenset()]
        case Var(i):
            return [frozenset((i,))]
        case Add(l, r):
            return expand(l) + expand(r)
        case Mul(l, r):
            left, right = expand(l), expand(r)
            return [a | b for a in left for b in right]
    raise TypeError(f"not a term: {t!r}")


# --- the recursive parser ----------------------------------------------------

def reference_parse(text: str) -> Term:
    """The recursive-descent parser that misr.parse replaced, kept as its
    oracle: three mutually recursive closures, three frames per level of
    parentheses.  It shares misr.terms' lexer and error wording."""
    tokens = _lex(text)
    pos = 0

    def peek() -> tuple[str, object, int]:
        return tokens[pos]

    def advance() -> tuple[str, object, int]:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_sum() -> Term:
        t = parse_product()
        while peek()[0] == "+":
            advance()
            t = Add(t, parse_product())
        return t

    def parse_product() -> Term:
        t = parse_atom()
        while peek()[0] == "*":
            advance()
            t = Mul(t, parse_atom())
        return t

    def parse_atom() -> Term:
        kind, value, col = advance()
        if kind == "0":
            return ZERO
        if kind == "1":
            return ONE
        if kind == "var":
            return Var(value)  # type: ignore[arg-type]
        if kind == "(":
            t = parse_sum()
            kind2, _, col2 = advance()
            if kind2 != ")":
                raise TermSyntaxError("expected ')'", col2)
            return t
        raise TermSyntaxError(f"expected a term, found {_describe(kind)}", col)

    # the parsers refer to each other: a cycle holding the tokens until deleted
    try:
        t = parse_sum()
    finally:
        del parse_sum, parse_product, parse_atom
    kind, _, col = peek()
    if kind != "end":
        raise TermSyntaxError(f"unexpected {_describe(kind)}", col)
    return t


# --- algebras ----------------------------------------------------------------

def rebuild(alg: FiniteSemiring, **changes) -> FiniteSemiring:
    """alg with the given fields changed, built through FiniteSemiring(...)
    so that its checks run; an unknown field name is a TypeError."""
    fields = {name: getattr(alg, name) for name in ("name", "elements", "add", "mul", "zero", "one")}
    return FiniteSemiring(**{**fields, **changes})


def lplus1_by_labels(lat: FiniteSemiring) -> tuple:
    """lplus1(lat) as (name, elements, add, mul, zero, one) with label-keyed
    tables and constants, taken from the rule in lplus1's docstring: a top
    labelled 1 becomes a, the new unit 1 comes last and is neutral for *,
    0+1 = 1+0 = 1, and every other sum involving 1 is the lattice top."""
    assert "1" not in lat.elements or (lat.elements[lat.one] == "1" and "a" not in lat.elements)
    labels = tuple("a" if x == "1" else x for x in lat.elements)
    pairs = list(itertools.product(range(lat.size), repeat=2))
    add = {(labels[x], labels[y]): labels[lat.add[x][y]] for x, y in pairs}
    mul = {(labels[x], labels[y]): labels[lat.mul[x][y]] for x, y in pairs}
    bottom, top = labels[lat.zero], labels[lat.one]
    for x in labels + ("1",):
        add[x, "1"] = add["1", x] = "1" if x == bottom else top
        mul[x, "1"] = mul["1", x] = x
    return f"{lat.name}+1", labels + ("1",), add, mul, bottom, "1"


# --- random tables ------------------------------------------------------------

def random_tables(rng: Random, size: int, commutative: bool) -> FiniteSemiring:
    """Random tables on size elements that map onto random tables on a
    random number of elements, so that the kernel of the map is a
    congruence; both tables are symmetric when commutative is set."""
    quotient = rng.randint(1, size)
    image = list(range(quotient)) + [rng.randrange(quotient) for _ in range(size - quotient)]
    rng.shuffle(image)
    blocks = [[x for x in range(size) if image[x] == q] for q in range(quotient)]

    def symmetric(rows):
        if commutative:
            for x, y in itertools.combinations(range(len(rows)), 2):
                rows[y][x] = rows[x][y]
        return rows

    def table():
        small = symmetric([[rng.randrange(quotient) for _ in range(quotient)] for _ in range(quotient)])
        rows = [[rng.choice(blocks[small[image[x]][image[y]]]) for y in range(size)] for x in range(size)]
        return tuple(map(tuple, symmetric(rows)))

    labels = tuple(f"r{i}" for i in range(size))
    return FiniteSemiring("random", labels, table(), table(), 0, 1)


# --- exhaustive congruence oracle (partitions of small carriers) -------------

def all_partitions(n: int):
    """Every partition of range(n), via restricted growth strings."""

    def rec(i: int, blocks: list[list[int]]):
        if i == n:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def _compatible(add, mul, n: int, block_of: dict[int, int]) -> bool:
    for x in range(n):
        for y in range(x + 1, n):
            if block_of[x] != block_of[y]:
                continue
            for c in range(n):
                if block_of[add[x][c]] != block_of[add[y][c]]:
                    return False
                if block_of[add[c][x]] != block_of[add[c][y]]:
                    return False
                if block_of[mul[x][c]] != block_of[mul[y][c]]:
                    return False
                if block_of[mul[c][x]] != block_of[mul[c][y]]:
                    return False
    return True


def si_by_exhaustion(alg) -> tuple[bool, frozenset[frozenset[int]] | None]:
    """Subdirect irreducibility via all partitions: intersect every
    non-discrete congruence and test whether the intersection is discrete."""
    n = alg.size
    add, mul = alg.add, alg.mul
    congruences = []
    for blocks in all_partitions(n):
        block_of = {x: b for b, block in enumerate(blocks) for x in block}
        if len(blocks) == n:
            continue  # discrete
        if _compatible(add, mul, n, block_of):
            congruences.append(blocks)
    if not congruences:
        # no non-discrete congruence at all cannot happen with n >= 2
        # (the full partition is always compatible), but keep it honest:
        return False, None
    # intersect: x ~ y iff related in every non-discrete congruence
    def related(x, y, blocks):
        return any(x in b and y in b for b in blocks)

    classes = []
    seen = set()
    for x in range(n):
        if x in seen:
            continue
        cls = {x}
        for y in range(n):
            if y != x and all(related(x, y, b) for b in congruences):
                cls.add(y)
        seen |= cls
        classes.append(frozenset(cls))
    monolith = frozenset(classes)
    discrete = all(len(c) == 1 for c in classes)
    return (not discrete), (None if discrete else monolith)


# --- all-pairs meet of principal congruences ------------------------------------

def _principal_roots(add, mul, n: int, a: int, b: int) -> list[int]:
    """Cg(a,b) as a root per element: breadth-first union-find closure under
    both sides of both tables, always run to the end."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    queue = deque([(a, b)])
    while queue:
        x, y = queue.popleft()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        for c in range(n):
            queue.append((add[x][c], add[y][c]))
            queue.append((add[c][x], add[c][y]))
            queue.append((mul[x][c], mul[y][c]))
            queue.append((mul[c][x], mul[c][y]))
    return [find(x) for x in range(n)]


def si_by_meet(alg) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Subdirect irreducibility as the meet of Cg(a,b) over every pair a < b,
    each computed in full: (verdict, monolith blocks in canonical order)."""
    n = alg.size
    label = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        roots = _principal_roots(alg.add, alg.mul, n, a, b)
        ids: dict[tuple[int, int], int] = {}
        label = [ids.setdefault(key, len(ids)) for key in zip(label, roots)]
        if len(ids) == n:
            return False, None
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(label[x], []).append(x)
    return True, tuple(sorted(tuple(b) for b in blocks.values()))


def lplus1_monolith(k: int) -> str:
    """The monolith of lplus1(boolean_lattice(k)) as si prints it: every
    element alone except a and 1, the labels written out here (the proper
    non-empty subsets of {1..k} by size, then lexicographically, as
    e<digits>)."""
    middle = [
        "{e" + "".join(map(str, s)) + "}"
        for size in range(1, k)
        for s in itertools.combinations(range(1, k + 1), size)
    ]
    return ",".join(["{0}", *middle, "{a,1}"])


# --- clone closure in frontier rounds ------------------------------------------

def clone_count_by_rounds(alg, n: int) -> int:
    """The n-ary term functions of alg counted by closing {0, 1, projections}
    in rounds: each round combines every new function with every known one,
    both ways round in both tables, until a round finds nothing new."""
    points = list(itertools.product(range(alg.size), repeat=n))
    known = {tuple(alg.zero for _ in points), tuple(alg.one for _ in points)}
    for i in range(n):
        known.add(tuple(p[i] for p in points))
    add, mul = alg.add, alg.mul
    frontier = list(known)
    while frontier:
        fresh = []
        for f in frontier:
            for g in list(known):
                for h in (
                    tuple(add[x][y] for x, y in zip(f, g)),
                    tuple(add[y][x] for x, y in zip(f, g)),
                    tuple(mul[x][y] for x, y in zip(f, g)),
                    tuple(mul[y][x] for x, y in zip(f, g)),
                ):
                    if h not in known:
                        known.add(h)
                        fresh.append(h)
        frontier = fresh
    return len(known)


# --- reduced forms by placement -----------------------------------------------

def enumerate_by_placement(n: int) -> list[tuple[frozenset[int], ...]]:
    """The reduced forms over x1..xn, sorted by rep_text, built level by
    level: each monomial in turn is appended to every form built so far, in
    as many copies as leave fewer than two other positions inside each."""
    reps: list[tuple[frozenset[int], ...]] = [()]
    for m in monomials_over(n):
        reps = [r + (m,) * c for r in reps for c in range(3 - min(2, sum(p < m for p in r)))]
    reps.sort(key=rep_text)
    return reps


# --- garbage that only the cyclic collector frees -------------------------------

@contextlib.contextmanager
def no_cyclic_garbage():
    """Run the body with the cyclic collector off, then assert that it left
    nothing behind that only that collector can free: everything the body
    dropped was freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0
    finally:
        gc.enable()
