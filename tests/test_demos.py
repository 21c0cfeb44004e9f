"""Smoke tests: every demo script runs, and every public name resolves."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import dualnum

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_present():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_every_public_name_resolves():
    missing = [name for name in dualnum.__all__ if not hasattr(dualnum, name)]
    assert missing == []
    assert len(set(dualnum.__all__)) == len(dualnum.__all__)


def test_import_leaves_reference_unloaded():
    # the oracles are for verification; importing the library must not
    # load them
    src = str(Path(dualnum.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, dualnum; print('dualnum.reference' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
