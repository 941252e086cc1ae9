"""End-to-end tests driving main() the way the console script does.

Every golden output here was computed by hand from the operation tables
before being frozen; the t3 cases are cross-checked against the
independent table transcription in support.py.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from misr import (
    BUILTIN_NAMES,
    builtin,
    direct_product,
    enumerate_reduced,
    format_algebra,
    parse,
    parse_algebra,
    rep_text,
)
import misr.cli
from misr.cli import main
from support import T3_ADD, T3_MUL, eval_labels, lplus1_monolith


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- normalize ----------------------------------------------------------------

@pytest.mark.parametrize(
    "term, expected",
    [
        ("0*x1", "0"),
        ("1+1+x", "1+1"),
        ("1+x1+x1*x2+x1*x2", "1+x1"),
        ("(x+y)*(x+y)", "x1+x2"),
        ("z*y*x", "x1*x2*x3"),
    ],
)
def test_normalize_goldens(capsys, term, expected):
    code, out, err = run_cli(capsys, "normalize", term)
    assert code == 0
    assert out == expected + "\n"
    assert err == ""
    # oracle: input and output must agree pointwise on the t3 tables
    for vx in "0a1":
        for vy in "0a1":
            env = {1: vx, 2: vy, 3: "1"}
            assert eval_labels(parse(term), env, T3_ADD, T3_MUL) == eval_labels(
                parse(expected), env, T3_ADD, T3_MUL
            )


def test_normalize_agrees_with_t3_tables(capsys):
    term = "1+x+x*y+x*y"
    code, out, _ = run_cli(capsys, "normalize", term)
    assert code == 0
    got = out.strip()
    env = {1: "a", 2: "1"}
    assert eval_labels(parse(term), env, T3_ADD, T3_MUL) == eval_labels(
        parse(got), env, T3_ADD, T3_MUL
    )


@pytest.mark.parametrize(
    "inner, expected", [("x", "x1"), ("x*(y+1)", "x1+x1*x2")], ids=["x", "x*(y+1)"]
)
def test_normalize_parentheses_600_deep(capsys, inner, expected):
    # the parser takes one frame a level, so 600 levels fit under the
    # default limit; three frames a level would not
    assert sys.getrecursionlimit() <= 1000
    code, out, err = run_cli(capsys, "normalize", "(" * 600 + inner + ")" * 600)
    assert (code, out, err) == (0, expected + "\n", "")


# --- eq ------------------------------------------------------------------------

def test_eq_equal(capsys):
    code, out, _ = run_cli(capsys, "eq", "x+y", "y+x")
    assert code == 0
    assert out == "equal\n"


def test_eq_distinct_prints_both_normal_forms(capsys):
    code, out, _ = run_cli(capsys, "eq", "x", "x+x")
    assert code == 1
    assert out == "distinct\nx1\nx1+x1\n"


# --- eval ----------------------------------------------------------------------

def test_eval_with_assignment(capsys):
    code, out, _ = run_cli(capsys, "eval", "t3", "x*y+1", "x1=a,x2=1")
    assert code == 0
    assert out == "a\n"
    assert T3_ADD[(T3_MUL[("a", "1")], "1")] == "a"


def test_eval_closed_term_needs_no_assignment(capsys):
    code, out, _ = run_cli(capsys, "eval", "t3", "1+1")
    assert code == 0
    assert out == "a\n"


def test_eval_unbound_variable(capsys):
    code, out, err = run_cli(capsys, "eval", "t3", "x1+x2", "x1=0")
    assert code == 2
    assert out == ""
    assert "unbound variable x2" in err


def test_eval_unknown_label(capsys):
    code, _, err = run_cli(capsys, "eval", "t3", "x1", "x1=q")
    assert code == 2
    assert "error:" in err


def test_eval_malformed_assignment(capsys):
    code, _, err = run_cli(capsys, "eval", "t3", "x1", "x1=0,zz")
    assert code == 2
    assert "error:" in err


def test_eval_long_sum(capsys):
    # the sum is 2999 Add nodes deep, past the default recursion limit
    code, out, _ = run_cli(capsys, "eval", "t3", "+".join(["x"] * 3000), "x1=1")
    assert code == 0
    assert out == "a\n"


# --- check ---------------------------------------------------------------------

def test_check_holds(capsys):
    code, out, _ = run_cli(capsys, "check", "t3", "x+y+x*y*z = x+y")
    assert code == 0
    assert out == "holds\n"


def test_check_separating_identity_on_s3(capsys):
    code, out, _ = run_cli(capsys, "check", "s3", "1+x1+x1*x2+x1*x2 = 1+x1")
    assert code == 1
    assert out == "fails at x1=1, x2=a\n"


def test_check_long_sum(capsys):
    code, out, _ = run_cli(capsys, "check", "t3", "+".join(["x"] * 3000) + " = x+x")
    assert code == 0
    assert out == "holds\n"


def test_check_nullary_witness(capsys):
    code, out, _ = run_cli(capsys, "check", "t3", "1+1 = 1")
    assert code == 1
    assert out == "fails at the empty assignment\n"


def test_check_refuses_too_many_assignments_before_any_work(capsys, tmp_path):
    assert main(["build-lplus1", "-k", "4"]) == 0
    path = tmp_path / "b4.alg"
    path.write_text(capsys.readouterr().out)
    # 17**8, about 7.0e9 assignments: holds would sweep them for hours
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "check", str(path), "x1+x2+x3+x4+x5+x6+x7+x8 = x8+x7+x6+x5+x4+x3+x2+x1*x1"
    )
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == (
        "error: 8 variables over 17 elements make 17**8 (about 10**9.8) assignments, "
        f"more than the limit of {misr.cli.MAX_CHECK_ASSIGNMENTS}\n"
    )


def test_check_answers_up_to_its_limit(capsys, monkeypatch):
    monkeypatch.setattr(misr.cli, "MAX_CHECK_ASSIGNMENTS", 27)
    assert run_cli(capsys, "check", "t3", "x+y+x*y*z = x+y") == (0, "holds\n", "")
    assert run_cli(capsys, "check", "t3", "x*y*z = x") == (1, "fails at x1=a, x2=0, x3=0\n", "")
    code, out, err = run_cli(capsys, "check", "t3", "x1+x2+x3+x4 = x4+x3+x2+x1")
    assert code == 2 and out == ""
    assert err.startswith("error: 4 variables over 3 elements make 3**4") and err.endswith("limit of 27\n")


# --- axioms ----------------------------------------------------------------------

def test_axioms_t3(capsys):
    code, out, _ = run_cli(capsys, "axioms", "t3")
    assert code == 0
    lines = out.splitlines()
    assert "boolean-law: fails at x1=a" in lines
    assert lines[-4:] == [
        "semiring: yes",
        "commutative-idempotent: yes",
        "boolean: no",
        "absorptive: yes",
    ]


def test_axioms_gf3(capsys):
    code, out, _ = run_cli(capsys, "axioms", "gf3")
    assert code == 0
    lines = out.splitlines()
    assert "mul-idempotent: fails at x1=2" in lines
    assert "commutative-idempotent: no" in lines


def test_axioms_non_semiring_exits_one(capsys, tmp_path):
    # break associativity of addition in a 2-element table
    path = tmp_path / "bad.alg"
    path.write_text(
        "algebra bad\nelements: 0 1\nzero: 0\none: 1\nadd:\n1 1\n1 0\nmul:\n0 0\n0 1\n"
    )
    code, out, _ = run_cli(capsys, "axioms", str(path))
    assert code == 1
    assert "semiring: no" in out.splitlines()


# --- si --------------------------------------------------------------------------

def test_si_t3(capsys):
    code, out, _ = run_cli(capsys, "si", "t3")
    assert code == 0
    assert out == "subdirectly irreducible; monolith: {0},{a,1}\n"


@pytest.mark.parametrize("module", ["misr", "misr.cli"])
def test_module_execution(module):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", module, "si", "t3"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "subdirectly irreducible; monolith: {0},{a,1}\n"


def test_si_product_is_reducible(capsys, tmp_path):
    sq = direct_product(builtin("two"), builtin("two"))
    path = tmp_path / "sq.alg"
    path.write_text(format_algebra(sq))
    code, out, _ = run_cli(capsys, "si", str(path))
    assert code == 1
    assert out == "not subdirectly irreducible\n"


# --- enumerate ---------------------------------------------------------------------

def test_enumerate_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "2")
    assert code == 0
    assert out == "19\n"


def test_enumerate_list(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "1", "--list")
    assert code == 0
    assert out.splitlines() == ["6", "0", "1", "1+1", "1+x1", "x1", "x1+x1"]


def test_enumerate_list_prints_the_library_order(capsys):
    code, out, err = run_cli(capsys, "enumerate", "-n", "3", "--list")
    assert code == 0 and err == ""
    assert out.splitlines() == ["135"] + [rep_text(r) for r in enumerate_reduced(3)]


def test_enumerate_counts_without_keeping_the_forms(capsys):
    main(["enumerate", "-n", "0"])  # builds the parser before the measurement
    tracemalloc.start()
    try:
        code = main(["enumerate", "-n", "4", "--max-arity", "4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out == "3\n4134\n"
    # the 4134 forms alone take more than 300 KB
    assert peak < 64 * 1024


@pytest.mark.parametrize("k", range(5))
def test_enumerate_count_and_list_agree_with_the_library(capsys, k):
    count = len(enumerate_reduced(k, cap=4))
    argv = ["enumerate", "-n", str(k), "--max-arity", "4"]
    assert run_cli(capsys, *argv) == (0, f"{count}\n", "")
    code, out, err = run_cli(capsys, *argv, "--list")
    lines = out.splitlines()
    assert (code, err, lines[0], len(lines)) == (0, "", str(count), count + 1)


def test_enumerate_over_cap(capsys):
    code, out, err = run_cli(capsys, "enumerate", "-n", "4")
    assert code == 2
    assert "exceeds" in err
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_enumerate_raised_cap(capsys):
    code, out, err = run_cli(capsys, "enumerate", "-n", "4", "--max-arity", "4")
    assert code == 0
    assert out == "4134\n"
    assert err == ""


def test_enumerate_lowered_cap(capsys):
    code, _, err = run_cli(capsys, "enumerate", "-n", "2", "--max-arity", "1")
    assert code == 2
    assert "exceeds" in err


@pytest.mark.parametrize("n", ["6", "40"])
def test_enumerate_above_five_variables(capsys, n):
    code, out, err = run_cli(capsys, "enumerate", "-n", n, "--max-arity", n, "--list")
    assert code == 2
    assert out == ""
    assert err == f"error: arity {n} exceeds 5, the largest that can be listed\n"


# --- build-lplus1 --------------------------------------------------------------------

def test_build_lplus1_k1_is_t3(capsys):
    code, out, _ = run_cli(capsys, "build-lplus1", "-k", "1")
    assert code == 0
    built = parse_algebra(out)
    t3 = builtin("t3")
    assert built.elements == t3.elements
    assert built.add == t3.add and built.mul == t3.mul
    assert (built.zero, built.one) == (t3.zero, t3.one)


def test_build_lplus1_k2_size(capsys):
    code, out, _ = run_cli(capsys, "build-lplus1", "-k", "2")
    assert code == 0
    assert parse_algebra(out).size == 5


def test_build_lplus1_k6_is_subdirectly_irreducible(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build-lplus1", "-k", "6")
    assert code == 0
    path = tmp_path / "b6.alg"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "si", str(path))
    assert code == 0
    assert out == f"subdirectly irreducible; monolith: {lplus1_monolith(6)}\n"


def test_build_lplus1_k7_rejected(capsys):
    code, out, err = run_cli(capsys, "build-lplus1", "-k", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# --- guards and plumbing ---------------------------------------------------------------

def test_max_nodes_cap(capsys):
    big = "+".join(["x1"] * 100)
    code, _, err = run_cli(capsys, "normalize", big)
    assert code == 2
    assert "--max-nodes" in err
    code, out, _ = run_cli(capsys, "normalize", big, "--max-nodes", "1000")
    assert code == 0
    assert out == "x1+x1\n"


def test_syntax_error_reported_with_position(capsys):
    code, _, err = run_cli(capsys, "normalize", "x*(y")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="int() converts digit strings of any length",
)
def test_variable_index_longer_than_int_converts(capsys):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run_cli(capsys, "normalize", "x" + digits)
    assert code == 2
    assert out == ""
    assert err == "error: variable index is too long (column 1)\n"


def test_algebra_file_roundtrip_via_path(capsys, tmp_path):
    path = tmp_path / "t3copy.alg"
    path.write_text(format_algebra(builtin("t3")))
    code, out, _ = run_cli(capsys, "eval", str(path), "x+1", "x1=0")
    assert code == 0
    assert out == "1\n"


def test_eval_binds_labels_that_contain_commas(capsys, tmp_path):
    path = tmp_path / "t3xtwo.alg"
    path.write_text(format_algebra(direct_product(builtin("t3"), builtin("two"))))
    code, out, _ = run_cli(capsys, "eval", str(path), "x*y", "x1=(a,1),x2=(1,0)")
    assert code == 0
    assert out == f"({T3_MUL[('a', '1')]},0)\n"
    # the witness check prints evaluates the two sides apart
    code, out, _ = run_cli(capsys, "check", str(path), "x*y = x")
    assert code == 1 and out.startswith("fails at ")
    witness = out.removeprefix("fails at ").rstrip("\n")
    sides = [run_cli(capsys, "eval", str(path), t, witness) for t in ("x*y", "x")]
    assert [code for code, _, _ in sides] == [0, 0]
    assert sides[0][1] != sides[1][1]


@pytest.mark.parametrize(
    "assignment", ["x1=a,", "x1=b,x2=0", "x1", ",x1=a", "x1+x2=a", "(=a", "x1=a,x1=1"]
)
def test_eval_rejects_malformed_bindings(capsys, assignment):
    code, out, err = run_cli(capsys, "eval", "t3", "x1", assignment)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "data, line",
    [
        ("algebra two\nelements: 0 é\nzero: 0\none: é\nadd:\n0 é\né é\nmul:\n0 0\n0 é\n".encode(), 2),
        (format_algebra(builtin("two")).encode().replace(b"1 1", b"1 \xff"), 7),
    ],
    ids=["utf8-label", "invalid-byte"],
)
def test_non_ascii_algebra_file(capsys, tmp_path, data, line):
    path = tmp_path / "bad.alg"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "si", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: line {line}: non-ASCII character") and err.count("\n") == 1


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """[argv, redirect target or None, shown stdout] for each `$ misr` line
    in the sh block of README's "Command line" section."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ misr "):
            argv, target = shlex.split(line.removeprefix("$ misr "), comments=True), None
            if ">" in argv:
                argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
            examples.append([argv, target, ""])
        elif line:
            examples[-1][2] += line + "\n"
    return examples


def test_readme_command_line_examples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # for the files the examples write and read
    ran = 0
    for argv, target, shown in readme_examples():
        if target is None and not shown:
            continue
        main(argv)
        out = capsys.readouterr().out
        if target is None:
            assert out == shown, argv
        else:
            Path(target).write_text(out)
        ran += 1
    assert ran >= 9


def test_missing_algebra_file(capsys):
    code, _, err = run_cli(capsys, "si", "no-such-algebra")
    assert code == 2
    assert "error:" in err


def test_mistyped_builtin_name(capsys):
    code, out, err = run_cli(capsys, "eval", "t4", "x")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'t4'" in err
    assert all(name in err for name in BUILTIN_NAMES)


def test_usage_errors(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "enumerate")[0] == 2
