"""What `import misr` costs: the modules it loads into a fresh interpreter,
and the files it reads."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import misr

SRC = str(Path(misr.__file__).resolve().parent.parent)

# Each of these takes milliseconds to import and would be loaded for misr alone.
HEAVY = {"dataclasses", "inspect", "ast", "dis", "typing"}


@pytest.mark.parametrize("flags", [["-I"], ["-I", "-S"]], ids=["isolated", "isolated-no-site"])
def test_import_loads_no_heavy_module(flags):
    # -S keeps site from loading typing first, so that misr's own imports show;
    # the audit hook sees every file opened, and builtin("t3") shows that it does
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); pre = set(sys.modules); "
        "opened = []; sys.addaudithook(lambda event, args: event == 'open' and opened.append(str(args[0]))); "
        "import misr, misr.cli; "
        "print(misr.__file__); print(*sorted(set(sys.modules) - pre)); "
        "algs = lambda: [path for path in opened if path.endswith('.alg')]; print(len(algs())); "
        "misr.builtin('t3'); misr.builtin('t3'); print(*algs())"
    )
    out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True).stdout
    path, added, read_at_import, read_by_builtin = out.splitlines()
    assert Path(path).resolve() == Path(misr.__file__).resolve()
    assert {"misr.terms", "misr.cli"} <= set(added.split())
    assert HEAVY.isdisjoint(added.split())
    assert read_at_import == "0"
    assert [Path(p).name for p in read_by_builtin.split()] == ["t3.alg"]


def test_damaged_builtin_fails_only_the_commands_that_use_it(tmp_path):
    package = tmp_path / "misr"
    shutil.copytree(Path(misr.__file__).resolve().parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    (package / "data" / "gf3.alg").write_text("not an algebra\n\x00\xff\n")
    (package / "data" / "s3.alg").unlink()

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "misr", *argv],
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
            capture_output=True,
            text=True,
            timeout=60,
        )

    for argv, out in [
        (["normalize", "x+y+x*y*z"], "x1+x2\n"),
        (["si", "t3"], "subdirectly irreducible; monolith: {0},{a,1}\n"),
    ]:
        done = run(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (0, out, "")
    for name in ("gf3", "s3"):
        done = run("si", name)
        assert done.returncode == 2
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr
