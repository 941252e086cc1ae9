"""The four workloads: a seeded deck of operations each, how an operation
calls misr, its reference answer, and the core calls a traced run replays.

A deck is built from fixed rounds: every round holds the same number of
operations of each kind, and the seed picks the concrete inputs and the
order.  Runs with different seeds therefore do comparable work, and a run
cycles through its deck until its time is up.

`lib` is a namespace of misr's public functions.  In a traced run each
function is wrapped to record a span, so the same `execute` code serves
both modes.  Reference answers come from oracle.py, never from misr.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from random import Random
from typing import NamedTuple

import oracle as O


class Op(NamedTuple):
    kind: str  # label used in reports, such as "antichain.k10"
    args: tuple  # what the program receives
    ref: object  # what the oracle needs
    defect: bool = False  # a known defect input (ROADMAP item 1)


class Raised(NamedTuple):
    """The output of an operation that raised instead of returning."""

    error: str


def _distinct(rng: Random, count: int, upto: int) -> list[int]:
    return rng.sample(range(1, upto + 1), count)


# --- word -------------------------------------------------------------------

CONSTANT_64 = "((1+1)*((1+1)+(1+1)))*((1+1)*((1+1)+(1+1)))"


class Word:
    name = "word"
    modules = ("misr",)
    rounds = 20

    def deck(self, rng: Random, rounds: int | None = None) -> list[Op]:
        ops = []
        for _ in range(rounds or self.rounds):
            for k in range(6, 11):
                ops += [self._antichain(rng, k), self._shared(rng, k), self._units(rng, k)]
            ops.append(Op("constant", (CONSTANT_64,), "1+1"))
            for _ in range(20):
                vs = _distinct(rng, rng.randint(2, 6), 7)
                t = O.random_term(rng, rng.randint(5, 31), vs)
                ops.append(Op("term", (O.text(t),), t))
            for _ in range(10):
                vs = _distinct(rng, rng.randint(2, 6), 7)
                t = O.random_term(rng, rng.randint(5, 21), vs)
                u = O.rewrite(rng, t, rng.randint(1, 3), vs)
                if rng.random() < 0.5:
                    u = O.mutate(rng, u, vs)
                ops.append(Op("pair", (O.text(t), O.text(u)), (t, u)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _antichain(rng: Random, k: int) -> Op:
        # product of k binary sums over 2k distinct variables: all 2^k
        # monomials survive, so the normal form is the full expansion
        vs = _distinct(rng, 2 * k, 2 * k + 4)
        pairs = [vs[2 * i : 2 * i + 2] for i in range(k)]
        t = O.product_of([O.add(O.var(a), O.var(b)) for a, b in pairs])
        form = sorted(tuple(sorted(c)) for c in itertools.product(*pairs))
        return Op(f"antichain.k{k}", (O.text(t),), O.form_text(form))

    @staticmethod
    def _shared(rng: Random, k: int) -> Op:
        # product of k binary sums over 3 shared variables: 2^k summands
        # that reduce to a handful
        vs = _distinct(rng, 3, 7)
        factors = [O.add(*map(O.var, rng.sample(vs, 2))) for _ in range(k)]
        t = O.product_of(factors)
        return Op(f"shared.k{k}", (O.text(t),), t)

    @staticmethod
    def _units(rng: Random, k: int) -> Op:
        # (1+x1)*...*(1+xk) reduces to 1+x1+...+xk
        vs = _distinct(rng, k, 16)
        t = O.product_of([O.add(O.ONE, O.var(v)) for v in vs])
        return Op(f"units.k{k}", (O.text(t),), O.form_text([()] + [(v,) for v in sorted(vs)]))

    def fixtures(self, deck: list[Op]) -> tuple:
        return ()

    def execute(self, lib, objs, op: Op):
        if op.kind == "pair":
            return lib.decide_equal(lib.parse(op.args[0]), lib.parse(op.args[1]))
        return lib.rep_text(lib.reduce_rep(lib.flatten(lib.parse(op.args[0]))))

    def check(self, op: Op, out, objs) -> str | None:
        if op.kind == "pair":
            expected = O.t3_equal(*op.ref)
            return None if out == expected else f"verdict {out}, expected {expected}"
        if isinstance(op.ref, str):
            return None if out == op.ref else f"got {str(out)[:60]}, expected {op.ref[:60]}"
        return O.check_form(op.ref, out)

    def replay(self, lib, objs, op: Op, out) -> None:
        pass


# --- cli --------------------------------------------------------------------

SI_T3 = "subdirectly irreducible; monolith: {0},{a,1}\n"


class Cli:
    name = "cli"
    modules = ("misr", "misr.cli")
    rounds = 40

    def __init__(self, data_dir: str):
        self.data_dir = data_dir  # the shipped .alg files

    def deck(self, rng: Random, rounds: int | None = None) -> list[Op]:
        ops = []
        names = sorted(O.BUILTINS)
        for r in range(rounds or self.rounds):
            for _ in range(8):
                vs = _distinct(rng, rng.randint(2, 5), 5)
                t = O.random_term(rng, rng.randint(5, 63), vs)
                ops.append(Op("normalize", ("normalize", O.text(t)), ("form", t)))
            for _ in range(5):
                ops.append(self._eq(rng))
            for i in range(3):
                ops.append(self._eval(rng, path=(i == 0)))
            for _ in range(4):
                ops.append(self._check(rng))
            # every builtin each round: their costs differ by 40%, and a
            # rotation would put the 90th percentile between two of them
            for name in names:
                report, code = O.axiom_lines(O.BUILTINS[name])
                ops.append(Op(f"axioms.{name}", ("axioms", name), ("exact", code, report)))
            ops.append(Op("si.t3", ("si", "t3"), ("exact", 0, SI_T3)))
            n = r % 3
            ops.append(Op(f"enumerate.n{n}", ("enumerate", "-n", str(n)), ("exact", 0, f"{O.FREE_SPECTRUM[n]}\n")))
            for i in range(3):
                ops.append(self._malformed(rng, (3 * r + i) % 6))
            # ROADMAP item 1: both should exit 2 under the default node cap
            deep = "(" * 3000 + "x" + ")" * 3000
            ops.append(Op("defect.deep", ("normalize", deep), ("error",), defect=True))
            ops.append(Op("defect.long", ("normalize", "+".join(["x"] * 3000)), ("error",), defect=True))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _eq(rng: Random) -> Op:
        while True:
            vs = _distinct(rng, rng.randint(2, 5), 5)
            t = O.random_term(rng, rng.randint(5, 25), vs)
            u = O.rewrite(rng, t, rng.randint(1, 3), vs)
            if rng.random() < 0.5:
                u = O.mutate(rng, u, vs)
            if O.size(u) <= 64:
                return Op("eq", ("eq", O.text(t), O.text(u)), ("eq", t, u))

    def _eval(self, rng: Random, path: bool) -> Op:
        name = rng.choice(sorted(O.BUILTINS))
        model = O.BUILTINS[name]
        vs = _distinct(rng, rng.randint(1, 3), 3)
        t = O.random_term(rng, rng.randint(3, 21), vs)
        env = {v: rng.choice(model.elements) for v in vs}
        assignment = ",".join(f"x{v}={lab}" for v, lab in env.items())
        cols = {v: [lab] for v, lab in env.items()}
        value = O.evaluate(t, model, cols, 1)[0]
        spec = f"{self.data_dir}/{name}.alg" if path else name
        kind = "eval.file" if path else "eval"
        return Op(kind, ("eval", spec, O.text(t), assignment), ("exact", 0, value + "\n"))

    @staticmethod
    def _check(rng: Random) -> Op:
        name = rng.choice(sorted(O.BUILTINS))
        vs = _distinct(rng, rng.randint(1, 3), 3)
        lhs = O.random_term(rng, rng.randint(3, 15), vs)
        rhs = O.rewrite(rng, lhs, rng.randint(1, 2), vs)
        if rng.random() < 0.5:
            rhs = O.mutate(rng, rhs, vs)
        ok, w = O.first_counterexample(O.BUILTINS[name], lhs, rhs)
        expected = ("exact", 0, "holds\n") if ok else ("exact", 1, f"fails at {O.witness_text(w)}\n")
        return Op("check", ("check", name, f"{O.text(lhs)} = {O.text(rhs)}"), expected)

    @staticmethod
    def _malformed(rng: Random, which: int) -> Op:
        t = O.text(O.random_term(rng, rng.randint(5, 21), [1, 2, 3]))
        if which == 0:  # a token that cannot appear there
            at = rng.randint(0, len(t))
            argv = ("normalize", t[:at] + rng.choice(["*+", ")", "(", "?"]) + t[at:])
        elif which == 1:  # over the default --max-nodes cap of 64
            big = O.random_term(rng, 120, [1, 2, 3])
            while O.size(big) <= 64:
                big = O.add(big, O.random_term(rng, 40, [1, 2, 3]))
            argv = ("normalize", O.text(big))
        elif which == 2:  # an element label t3 does not have
            argv = ("eval", "t3", "x1+x2", "x1=b,x2=0")
        elif which == 3:  # an identity needs exactly one '='
            argv = ("check", "t3", t)
        elif which == 4:  # over the default arity cap of 3
            argv = ("enumerate", "-n", "4")
        else:  # missing operand: argparse usage error
            argv = ("eq", t)
        return Op(f"malformed.{which}", argv, ("error",))

    def fixtures(self, deck: list[Op]) -> tuple:
        return tuple(("load", f"{self.data_dir}/{name}.alg") for name in sorted(O.BUILTINS))

    def execute(self, lib, objs, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.main(list(op.args))
        return code, out.getvalue(), err.getvalue()

    def check(self, op: Op, out, objs) -> str | None:
        code, stdout, stderr = out
        how = op.ref[0]
        if how == "error":
            if code == 2 and stdout == "" and "error:" in stderr:
                return None
            return f"exit {code}, stdout {stdout[:40]!r}, expected exit 2 with an error"
        if stderr:
            return f"unexpected stderr {stderr[:60]!r}"
        if how == "exact":
            _, want_code, want = op.ref
            if (code, stdout) == (want_code, want):
                return None
            return f"exit {code} {stdout[:60]!r}, expected exit {want_code} {want[:60]!r}"
        lines = stdout.split("\n")
        if how == "form":
            if code != 0 or len(lines) != 2 or lines[1]:
                return f"exit {code} {stdout[:60]!r}"
            return O.check_form(op.ref[1], lines[0])
        _, t, u = op.ref  # eq
        if O.t3_equal(t, u):
            return None if (code, stdout) == (0, "equal\n") else f"exit {code} {stdout[:60]!r}, expected equal"
        if code != 1 or len(lines) != 4 or lines[0] != "distinct" or lines[3]:
            return f"exit {code} {stdout[:60]!r}, expected distinct"
        return O.check_form(t, lines[1]) or O.check_form(u, lines[2])

    def replay(self, lib, objs, op: Op, out) -> None:
        """Repeat, outside cli.main, the parser build, the argument parsing
        and the core calls that main made for this argv."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            parser = lib.build_parser()
            try:
                args = lib.parse_args(parser, list(op.args))
            except SystemExit:
                return
            try:
                self._replay_command(lib, args)
            except (ValueError, OSError, RecursionError):
                pass

    @staticmethod
    def _replay_command(lib, args) -> None:
        misr = lib.misr

        def capped(text: str):
            t = lib.parse(text)
            if lib.term_size(t) > args.max_nodes:
                raise ValueError("over the node cap")
            return t

        def algebra(spec: str):
            return lib.builtin(spec) if spec in misr.BUILTIN_NAMES else lib.load_algebra(spec)

        cmd = args.command
        if cmd == "normalize":
            lib.rep_text(lib.reduce_rep(lib.flatten(capped(args.term))))
        elif cmd == "eq":
            reps = [lib.reduce_rep(lib.flatten(capped(s))) for s in (args.lhs, args.rhs)]
            if reps[0] != reps[1]:
                for rep in reps:
                    lib.rep_text(rep)
        elif cmd == "eval":
            alg = algebra(args.algebra)
            t = lib.parse(args.term)
            env = {}
            for part in args.assignment.split(","):
                name, label = part.split("=")
                env[int(name.strip()[1:])] = alg.index(label.strip())
            lib.eval_term(alg, t, env)
        elif cmd == "check":
            alg = algebra(args.algebra)
            sides = args.identity.split("=")
            if len(sides) != 2:
                raise ValueError("not an identity")
            lib.holds(alg, misr.Identity(lib.parse(sides[0]), lib.parse(sides[1])))
        elif cmd == "axioms":
            lib.check_axioms(algebra(args.algebra))
        elif cmd == "si":
            lib.is_subdirectly_irreducible(algebra(args.algebra))
        elif cmd == "enumerate":
            lib.enumerate_reduced(args.n, args.max_arity)


# --- models -----------------------------------------------------------------

T3, S3, TWO = ("builtin", "t3"), ("builtin", "s3"), ("builtin", "two")
B = {k: ("lplus1", k) for k in range(1, 5)}
T3xT3 = ("product", T3, T3)
TWOxT3 = ("product", TWO, T3)
B2xTWO = ("product", B[2], TWO)

# Identity sizes are drawn within a window of nodes (lhs and rhs together),
# so that the cost per point is alike across seeds.
IDENTITY_NODES = (34, 38)
# (algebra, variables) for identities that hold: each sweeps all size^n points
LIGHT_SWEEPS = [(T3, 4), (T3, 6), (T3, 7), (TWO, 8), (S3, 6)]
# t3 with 5 variables at a ladder of sizes: many distinct costs around the
# median latency, so that the median moves smoothly when the machine does
LADDER = [(20, 22), (24, 26), (28, 30), (32, 34), (36, 38), (40, 42)]
HEAVY_SWEEPS = [(T3, 8), (B[3], 4), (T3xT3, 4), (B[2], 5)]  # one per round
# (algebra, most variables) for identities that fail; each is drawn until its
# first witness lies among the first FALSE_BUDGET points
FALSE_BUDGET = 100
FALSE_CHECKS = [(T3, 8), (S3, 8), (TWO, 8), (B[2], 6), (B[4], 4), (T3xT3, 5)]
AXIOMS = [(B[1], T3xT3), (B[2], TWOxT3), (B[3], B2xTWO), (B[4], T3xT3)]  # one pair per round
SI_ALGEBRAS = [B[1], B[2], B[3], B[3], B[4], B[4], T3xT3, TWOxT3, B2xTWO]


def model_of(item: tuple) -> O.Model:
    """The oracle's own copy of a fixture algebra."""
    if item[0] == "builtin":
        return O.BUILTINS[item[1]]
    if item[0] == "lplus1":
        return O.lplus1_model(item[1])
    return O.product_model(model_of(item[1]), model_of(item[2]))


def alg_name(item: tuple) -> str:
    return model_of(item).name


class Models:
    name = "models"
    modules = ("misr",)
    rounds = 8

    def deck(self, rng: Random, rounds: int | None = None) -> list[Op]:
        ops = []
        for r in range(rounds or self.rounds):
            for alg, n in LIGHT_SWEEPS + [HEAVY_SWEEPS[r % len(HEAVY_SWEEPS)]]:
                ops.append(self._holds(rng, alg, n, true=True))
            for nodes in LADDER:
                ops.append(self._holds(rng, T3, 5, true=True, nodes=nodes))
            for alg, most in FALSE_CHECKS:
                ops.append(self._holds(rng, alg, rng.randint(4, most), true=False))
            for alg in AXIOMS[r % len(AXIOMS)]:
                ops.append(Op(f"axioms.{alg_name(alg)}", ("axioms", alg), None))
            for alg in SI_ALGEBRAS:
                if alg[0] == "lplus1":  # SI, monolith merges a and 1
                    ref = (True, O.monolith_of_lplus1(alg[1]))
                else:  # a product of two non-trivial algebras is not SI
                    ref = (False, None)
                ops.append(Op(f"si.{alg_name(alg)}", ("si", alg), ref))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _holds(rng: Random, alg: tuple, n: int, true: bool, nodes: tuple = IDENTITY_NODES) -> Op:
        vs = list(range(1, n + 1))
        model = model_of(alg)
        while True:
            lhs = O.covering_term(rng, rng.randint(2 * n - 1, nodes[1] // 2), vs)
            # s3 is outside the variety: keep its rewrites to semiring laws
            rhs = O.rewrite(rng, lhs, 2, vs, absorption=(alg != S3))
            if not nodes[0] <= O.size(lhs) + O.size(rhs) <= nodes[1]:
                continue
            if true:
                break
            rhs = O.mutate(rng, rhs, vs)
            ok, witness = O.first_counterexample(model, lhs, rhs)
            if not ok and O.position(model, witness) < FALSE_BUDGET:
                break
        text = f"{O.text(lhs)} = {O.text(rhs)}"
        kind = f"holds.{'true' if true else 'false'}.{alg_name(alg)}.n{n}"
        return Op(kind, ("holds", alg, ("identity", text)), (lhs, rhs))

    def fixtures(self, deck: list[Op]) -> tuple:
        items = []
        for op in deck:
            items += op.args[1:]
        return tuple(dict.fromkeys(items))

    def execute(self, lib, objs, op: Op):
        what, alg = op.args[0], objs[op.args[1]]
        if what == "holds":
            return lib.holds(alg, objs[op.args[2]])
        if what == "axioms":
            return lib.check_axioms(alg)
        return lib.is_subdirectly_irreducible(alg)

    def check(self, op: Op, out, objs) -> str | None:
        what, item = op.args[0], op.args[1]
        alg, model = objs[item], model_of(item)
        if what == "holds":
            ok, env = out
            got = (ok, None if env is None else tuple((v, alg.elements[e]) for v, e in sorted(env.items())))
            want = O.first_counterexample(model, *op.ref)
        elif what == "axioms":
            got = [(c.name, c.ok, None if c.witness is None else tuple((v, alg.elements[e]) for v, e in c.witness))
                   for c in out.checks]
            want = O.axiom_report(model)
        else:
            irreducible, monolith = out
            got = (irreducible, None if monolith is None else monolith.render(alg.elements))
            want = op.ref
        return None if got == want else f"got {got}, expected {want}"[:200]

    def replay(self, lib, objs, op: Op, out) -> None:
        """holds: time eval_term on both sides at each point holds visited.
        si: time principal_congruence on each pair the SI test visited."""
        what, alg = op.args[0], objs[op.args[1]]
        if what == "holds":
            ident = objs[op.args[2]]
            vs = ident.variable_list()
            visited = holds_points(alg, ident, out)
            calls = (
                (alg, side, dict(zip(vs, values)))
                for values in itertools.islice(itertools.product(range(alg.size), repeat=len(vs)), visited)
                for side in (ident.lhs, ident.rhs)
            )
            lib.batch("algebras.eval_term", lib.misr.eval_term, calls)
        elif what == "si":
            meet = lib.misr.Partition.full(alg.size)
            for a, b in itertools.combinations(range(alg.size), 2):
                meet = meet.meet(lib.principal_congruence(alg, a, b))
                if meet.is_discrete:
                    break


def holds_points(alg, ident, result) -> int:
    """Points holds evaluated: the witness's position + 1, or size^n."""
    ok, env = result
    vs = ident.variable_list()
    if ok:
        return alg.size ** len(vs)
    position = 0
    for v in vs:
        position = position * alg.size + env[v]
    return position + 1


# --- spectrum ---------------------------------------------------------------

class Spectrum:
    name = "spectrum"
    modules = ("misr",)
    rounds = 10
    models = ("t3", "two", "s3")
    # Copies per round of the calls at n = 3; every other call appears once.
    # The costs span four orders of magnitude in a few lumps, so the weights
    # put the median inside the enumerate_reduced(3) lump and the 90th
    # percentile inside the clone_count(s3, 3) lump, not on a boundary
    # between lumps or on a call of a few microseconds.
    COPIES_N3 = {"enumerate": 11, "t3": 1, "two": 1, "s3": 3}

    def deck(self, rng: Random, rounds: int | None = None) -> list[Op]:
        ops = []
        for _ in range(rounds or self.rounds):
            for n in range(4):
                copies = self.COPIES_N3["enumerate"] if n == 3 else 1
                ops += [Op(f"enumerate.n{n}", ("enumerate", n), O.FREE_SPECTRUM[n])] * copies
                for name in self.models:
                    copies = self.COPIES_N3[name] if n == 3 else 1
                    ops += [Op(f"clone.{name}.n{n}", ("clone", name, n), O.CLONE_COUNTS[name][n])] * copies
        rng.shuffle(ops)
        return ops

    def fixtures(self, deck: list[Op]) -> tuple:
        return tuple(("builtin", name) for name in self.models)

    def execute(self, lib, objs, op: Op):
        if op.args[0] == "enumerate":
            return lib.enumerate_reduced(op.args[1])
        return lib.clone_count(objs[("builtin", op.args[1])], op.args[2])

    def check(self, op: Op, out, objs) -> str | None:
        if op.args[0] == "clone":
            return None if out == op.ref else f"{out} functions, expected {op.ref}"
        n = op.args[1]
        forms = [[tuple(sorted(m)) for m in rep] for rep in out]
        if not all(O.is_canonical(f) for f in forms):
            return "a listed form is not reduced"
        vs = list(range(1, n + 1))
        points = list(itertools.product(O.T3.elements, repeat=n))
        cols = {v: [p[i] for p in points] for i, v in enumerate(vs)}
        functions = {tuple(O.evaluate(O.form_term(f), O.T3, cols, len(points))) for f in forms}
        if len(forms) != op.ref or len(functions) != op.ref:
            return f"{len(forms)} forms, {len(functions)} functions on t3, expected {op.ref}"
        return None

    def replay(self, lib, objs, op: Op, out) -> None:
        pass


def workloads(data_dir: str) -> dict:
    return {w.name: w for w in (Word(), Cli(data_dir), Models(), Spectrum())}
