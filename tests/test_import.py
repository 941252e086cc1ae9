"""What `import misr` costs: the modules it loads into a fresh interpreter."""

from __future__ import annotations

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
    # -S keeps site from loading typing first, so that misr's own imports show
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); pre = set(sys.modules); import misr, misr.cli; "
        "print(misr.__file__); print(*sorted(set(sys.modules) - pre))"
    )
    out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True).stdout
    path, added = out.splitlines()
    assert Path(path).resolve() == Path(misr.__file__).resolve()
    assert {"misr.terms", "misr.cli"} <= set(added.split())
    assert HEAVY.isdisjoint(added.split())
