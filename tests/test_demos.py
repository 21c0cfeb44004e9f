"""Smoke tests: every demo script runs, and every public name resolves."""

import runpy
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
