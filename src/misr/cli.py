"""Command line interface.

Exit codes: 0 for an affirmative result, 1 for a negative verdict
(distinct, fails, not subdirectly irreducible, not a semiring), 2 for
malformed input or usage errors.  Results go to stdout, diagnostics to
stderr, and output is deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from .algebras import (
    FiniteSemiring,
    _format_witness,
    builtin,
    BUILTIN_NAMES,
    boolean_lattice,
    check_axioms,
    eval_term,
    format_algebra,
    holds,
    load_algebra,
    lplus1,
    parse_identity,
)
from .congruences import is_subdirectly_irreducible
from .enumeration import DEFAULT_ARITY_CAP, _listing
from .normal import normalize, rep_text
from .terms import Term, TermSyntaxError, Var, parse, term_size

DEFAULT_MAX_NODES = 64
# the most assignments `check` sweeps, such as 3**16 on t3 or 65**4 on the
# 65-element lplus1(B_6); holds itself takes any number
MAX_CHECK_ASSIGNMENTS = 10**8


def _parse_capped(text: str, max_nodes: int) -> Term:
    t = parse(text)
    size = term_size(t)
    if size > max_nodes:
        raise ValueError(
            f"term has {size} nodes, exceeding the --max-nodes limit of {max_nodes}"
        )
    return t


def _resolve_algebra(spec: str) -> FiniteSemiring:
    """Builtin names win; anything else is a file path."""
    if spec in BUILTIN_NAMES:
        return builtin(spec)
    try:
        return load_algebra(spec)
    except FileNotFoundError:
        raise ValueError(
            f"no builtin algebra or file named {spec!r}; "
            f"the builtins are {', '.join(BUILTIN_NAMES)}"
        ) from None


def _parse_assignment(text: str, alg: FiniteSemiring) -> dict[int, int]:
    """Bindings like "x1=a,x2=(a,1)": a comma starts a new binding only
    where a name and '=' follow it, so labels may contain commas."""
    env: dict[int, int] = {}
    if not text.strip():
        return env
    for part in re.split(r",(?=[^,=]*=)", text):
        name, eq, label = part.partition("=")
        if not eq:
            raise ValueError(f"malformed assignment entry {part.strip()!r}")
        name, label = name.strip(), label.strip()
        try:
            var = parse(name)
        except TermSyntaxError:
            raise ValueError(f"malformed variable name {name!r}") from None
        if not isinstance(var, Var):
            raise ValueError(f"malformed variable name {name!r}")
        if var.index in env:
            raise ValueError(f"duplicate binding for x{var.index}")
        env[var.index] = alg.index(label)
    return env


def _cmd_normalize(args: argparse.Namespace) -> int:
    t = _parse_capped(args.term, args.max_nodes)
    print(rep_text(normalize(t)))
    return 0


def _cmd_eq(args: argparse.Namespace) -> int:
    t = _parse_capped(args.lhs, args.max_nodes)
    u = _parse_capped(args.rhs, args.max_nodes)
    nt, nu = normalize(t), normalize(u)
    if nt == nu:
        print("equal")
        return 0
    print("distinct")
    print(rep_text(nt))
    print(rep_text(nu))
    return 1


def _cmd_eval(args: argparse.Namespace) -> int:
    alg = _resolve_algebra(args.algebra)
    t = parse(args.term)
    env = _parse_assignment(args.assignment, alg)
    print(alg.elements[eval_term(alg, t, env)])
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    alg = _resolve_algebra(args.algebra)
    ident = parse_identity(args.identity)
    n, k = len(ident.variable_list()), alg.size
    if k**n > MAX_CHECK_ASSIGNMENTS:
        raise ValueError(
            f"{n} variables over {k} elements make {k}**{n} (about 10**{n * math.log10(k):.1f}) "
            f"assignments, more than the limit of {MAX_CHECK_ASSIGNMENTS}"
        )
    ok, env = holds(alg, ident)
    if ok:
        print("holds")
        return 0
    assert env is not None
    print(f"fails at {_format_witness(alg, env.items())}")
    return 1


def _cmd_axioms(args: argparse.Namespace) -> int:
    alg = _resolve_algebra(args.algebra)
    report = check_axioms(alg)
    for check in report.checks:
        if check.ok:
            print(f"{check.name}: ok")
        else:
            print(f"{check.name}: fails at {_format_witness(alg, check.witness)}")
    print(f"semiring: {'yes' if report.is_semiring else 'no'}")
    print(
        "commutative-idempotent: "
        + ("yes" if report.is_commutative_idempotent else "no")
    )
    print(f"boolean: {'yes' if report.is_boolean else 'no'}")
    print(f"absorptive: {'yes' if report.is_absorptive else 'no'}")
    return 0 if report.is_semiring else 1


def _cmd_si(args: argparse.Namespace) -> int:
    alg = _resolve_algebra(args.algebra)
    irreducible, monolith = is_subdirectly_irreducible(alg)
    if irreducible:
        assert monolith is not None
        print(f"subdirectly irreducible; monolith: {monolith.render(alg.elements)}")
        return 0
    print("not subdirectly irreducible")
    return 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    walk, text = _listing(args.n, args.max_arity)
    if not args.list:  # counted as they are generated: no form is kept
        print(sum(1 for _ in walk))
        return 0
    lines = sorted(map(text, walk))  # the texts sort as enumerate_reduced's forms
    print(len(lines))
    for line in lines:
        print(line.decode())
    return 0


def _cmd_build_lplus1(args: argparse.Namespace) -> int:
    alg = lplus1(boolean_lattice(args.k))
    sys.stdout.write(format_algebra(alg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misr",
        description=(
            "Normal forms and finite models for commutative multiplicatively "
            "idempotent semirings satisfying x+y+x*y*z = x+y."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="print the canonical normal form of a term")
    p.add_argument("term")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("eq", help="decide whether two terms are equal in the variety")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.set_defaults(func=_cmd_eq)

    p = sub.add_parser("eval", help="evaluate a term in a finite algebra")
    p.add_argument("algebra", help="builtin name or algebra file path")
    p.add_argument("term")
    p.add_argument(
        "assignment",
        nargs="?",
        default="",
        help="comma-separated bindings like 'x1=a,x2=0'",
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="check an identity 'lhs = rhs' in a finite algebra")
    p.add_argument("algebra")
    p.add_argument("identity")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("axioms", help="report which axioms and laws an algebra satisfies")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("si", help="test subdirect irreducibility and print the monolith")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_si)

    p = sub.add_parser("enumerate", help="count (or list) the reduced forms over n variables")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--max-arity", type=int, default=DEFAULT_ARITY_CAP)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "build-lplus1",
        help="emit the algebra file for the subset lattice of {1..k} with a unit adjoined",
    )
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_build_lplus1)

    return parser


# built on main's first call: building is most of an in-process call's time
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
