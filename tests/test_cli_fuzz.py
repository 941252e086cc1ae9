"""A seeded fuzz test of main: random terms, flags and arities under every
command, and mutated algebra files under `si`, `axioms`, `eval` and `check`.

Every call must end in exit 0 or 1 with nothing on stderr, or in exit 2 with
one `error:` line or argparse's usage and error, and never in an exception.
Terms stay short (at most 15 tokens), so no input here is deep or long
enough to exhaust the recursion limit, and every carrier has at most three
elements, so `axioms` and `check` stay fast.
"""

from __future__ import annotations

from random import Random

from misr import BUILTIN_NAMES, builtin, format_algebra
from misr.cli import main
from support import random_term, reference_to_text

CALLS = 5000
COMMANDS = ("normalize", "eq", "eval", "check", "axioms", "si", "enumerate", "build-lplus1")
TOKENS = ("x", "y", "z", "x1", "x2", "x3", "x7", "x12", "x0", "0", "1", "+", "*", "(", ")", " ",
          "=", "a", "e1", "xy", "x-1", "2", "-", ",", "\t", "é")
FLAGS = ("--max-nodes", "--list", "--max-arity", "-n", "-k", "--help", "-h", "--bogus", "-", "--")
NUMBERS = ("0", "1", "2", "3", "1", "2", "3", "4", "-1", "7", "64", "1e3", "x", "")
LABELS = ("0", "1", "a", "b", "e1", "2", "(0,1)", "", "x1", " a ")


def random_text(rng: Random) -> str:
    """A term, an identity or garbage, of at most 15 tokens."""
    if rng.random() < 0.3:
        tokens = [rng.choice(TOKENS) for _ in range(rng.randint(0, 15))]
    else:  # at most 7 nodes: 13 tokens with parentheses, then one edit
        tokens = [reference_to_text(random_term(rng, rng.randint(1, 7), 4))]
        if rng.random() < 0.2:
            tokens.insert(rng.randint(0, 1), rng.choice(TOKENS))
    return "".join(tokens)


def random_identity(rng: Random) -> str:
    """Mostly two sides, sometimes one or three."""
    sides = [random_text(rng) for _ in range(rng.choice((1, 2, 2, 2, 2, 2, 2, 3)))]
    return "=".join(sides)


def random_assignment(rng: Random) -> str:
    """Bindings of x1..x4, then with one in four a junk binding or a duplicate."""
    pairs = [f"x{i}={rng.choice(LABELS[:3])}" for i in range(1, 5)]
    if rng.random() < 0.25:
        name = rng.choice(("x1", "x2", "x", "y", "x0", "1", "", "x1+x2", "x1 "))
        pairs.insert(rng.randint(0, 4), f"{name}{rng.choice(('=', '', '=='))}{rng.choice(LABELS)}")
    return ",".join(pairs)


def mutated(rng: Random, text: str) -> str:
    """text after one to three edits of its lines or characters."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        edit = rng.randrange(7)
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(i, lines[i])
        elif edit == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == 3:  # one word replaced by a label or junk
            words = lines[i].split(" ")
            words[rng.randrange(len(words))] = rng.choice(LABELS + ("algebra", "zero:", "add:", "mul:"))
            lines[i] = " ".join(words)
        elif edit == 4:
            cut = rng.randint(0, len(text))
            return text[:cut]
        else:
            line = lines[i]
            at = rng.randint(0, len(line))
            lines[i] = line[:at] + rng.choice((" ", "\t", "x", "0", "é", "\x00", "")) + line[at + 1:]
        text = "\n".join(lines)
    return text


def algebra_specs(rng: Random, tmp_path) -> list[str]:
    """Builtin names, missing and unreadable paths, and files: the builtins'
    own texts (a third of them) and mutations of them (the rest)."""
    specs = list(BUILTIN_NAMES) * 10
    specs += ["nope", "", str(tmp_path), str(tmp_path / "missing.alg"), "bad\x00path"]
    texts = [format_algebra(builtin(name)) for name in BUILTIN_NAMES]
    for i in range(150):
        text = rng.choice(texts)
        path = tmp_path / f"m{i}.alg"
        path.write_text(mutated(rng, text) if i % 3 else text, encoding="utf-8")
        specs.append(str(path))
    return specs


def random_argv(rng: Random, specs: list[str]) -> list[str]:
    command = rng.choice(COMMANDS) if rng.random() < 0.97 else rng.choice(("", "help", "-v", "Normalize"))
    positional = {
        "normalize": lambda: [random_text(rng)],
        "eq": lambda: [random_text(rng), random_text(rng)],
        "eval": lambda: [rng.choice(specs), random_text(rng), random_assignment(rng)][: rng.choice((2, 3))],
        "check": lambda: [rng.choice(specs), random_identity(rng)],
        "axioms": lambda: [rng.choice(specs)],
        "si": lambda: [rng.choice(specs)],
    }.get(command, list)()
    options = {  # each flag with the chance that it is given
        "normalize": {"--max-nodes": 0.3}, "eq": {"--max-nodes": 0.3},
        "enumerate": {"-n": 0.95, "--list": 0.5, "--max-arity": 0.3}, "build-lplus1": {"-k": 0.95},
    }.get(command, {})
    args = []
    for flag, chance in options.items():
        if rng.random() < chance:
            args += [flag] if flag == "--list" else [flag, rng.choice(NUMBERS)]
    if rng.random() < 0.15:  # an arity off by one or two
        if positional and rng.random() < 0.5:
            del positional[rng.randrange(len(positional))]
        else:
            positional.append(rng.choice((random_text(rng), rng.choice(specs))))
    if rng.random() < 0.1:
        args.append(rng.choice(FLAGS))
    words = positional + args
    if rng.random() < 0.1:
        rng.shuffle(words)
    return [command] + words if command else words


def test_main_ends_in_an_exit_code_with_one_error_line(capsys, tmp_path):
    rng = Random(20261020)
    specs = algebra_specs(rng, tmp_path)
    codes = []
    for _ in range(CALLS):
        argv = random_argv(rng, specs)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        if code == 2 and err.startswith("usage: "):
            assert ": error: " in err.splitlines()[-1], (argv, err)
        elif code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        else:
            assert err == "", (argv, err)
        codes.append(code)
    # every way of ending is reached often
    assert min(codes.count(c) for c in (0, 1, 2)) >= CALLS // 40, [codes.count(c) for c in (0, 1, 2)]
