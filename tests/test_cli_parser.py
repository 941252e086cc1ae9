"""main() builds its argument parser once per process: later calls reuse it,
carry nothing over from one call to the next, and leave no garbage that only
the cyclic collector can free."""

from __future__ import annotations

import argparse

import pytest

from misr.cli import build_parser, main
from support import no_cyclic_garbage


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_one_parser(capsys, monkeypatch):
    main(["normalize", "x"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(50):
        main(["normalize", "x+y*z"])
    assert built == []
    build_parser()  # the count does see a parser being built
    assert built


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_max_nodes_does_not_carry_over(capsys):
    big = "+".join(["x"] * 100)
    assert run_cli(capsys, "normalize", "--max-nodes", "200", big) == (0, "x1+x1\n", "")
    code, out, err = run_cli(capsys, "normalize", big)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_usage_error_does_not_carry_over(capsys):
    assert run_cli(capsys, "eq", "x")[0] == 2
    assert run_cli(capsys, "eq", "1+x+x*y", "1+x") == (0, "equal\n", "")


# argparse's usage errors are left out: printing the usage leaves a few cycles
@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "x+y+x*y*z"],
        ["normalize", "x*(y"],
        ["eq", "1+x+x*y", "1+x"],
        ["eq", "x", "y"],
        ["eval", "t3", "x*y+1", "x1=a,x2=1"],
        ["check", "s3", "1+x+x*y+x*y = 1+x"],
        ["check", "t3", "x + y = y+*x"],
        ["axioms", "gf3"],
        ["si", "t3"],
        ["enumerate", "-n", "2", "--list"],
    ],
    ids=" ".join,
)
def test_main_leaves_no_cyclic_garbage(capsys, argv):
    main(argv)  # builds the parser and loads what the command reads
    with no_cyclic_garbage():
        main(argv)
