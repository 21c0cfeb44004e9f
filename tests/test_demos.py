"""Smoke tests: every demo script runs, and every public name resolves."""

import importlib
import os
import re
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


def api_sketch_names():
    """Names the README's API sketch table shows in backticks: every word
    of a span that is a plain list of names, else the name a span's
    expression starts with (an operator list starts with none)."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## API sketch", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    names = []
    for span in re.findall(r"`([^`]+)`", "\n".join(rows)):
        if re.fullmatch(r"[\w.]+( [\w.]+)*", span):
            names += span.split()
        elif lead := re.match(r"[A-Za-z_][\w.]*", span):
            names.append(lead.group())
    return names


def resolves(name):
    """``name`` is an attribute of dualnum, or of dualnum.reference when it
    carries the ``reference.`` prefix."""
    obj = dualnum
    if name.startswith("reference."):
        obj = importlib.import_module("dualnum.reference")
        name = name[len("reference."):]
    for part in name.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_api_sketch_names_resolve():
    names = api_sketch_names()
    assert {"compose", "sin", "MechanismParams", "reference.tinv_entry"} <= set(
        names)
    assert [name for name in names if not resolves(name)] == []


def fresh_python(code, *flags):
    """stdout of ``python *flags -c code`` in a new interpreter that
    imports this checkout's dualnum."""
    src = str(Path(dualnum.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("module", ["dualnum.reference", "scipy", "numpy"])
def test_import_leaves_module_unloaded(module):
    # the oracles are for verification, scipy serves only splines above
    # the sweep's cutoff and numpy only splines: importing the library
    # loads none of them
    out = fresh_python(
        f"import sys, dualnum; print({module!r} in sys.modules)")
    assert out == "False\n"


def test_array_free_subcommands_leave_numpy_unloaded():
    out = fresh_python(
        "import contextlib, io, sys\n"
        "from dualnum import cli\n"
        "for argv in (['nr-example1'], ['mechanism'],"
        " ['mechanism', '--fn', 'identity'], ['duffing']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv + ['--json', '--check']) == 0, argv\n"
        "print(sorted({'numpy', 'dualnum.spline'} & set(sys.modules)))")
    assert out == "[]\n"


def test_spline_names_load_on_first_use():
    # the module loads with the first spline name; numpy does not, since
    # curves of up to 96 knots need none
    out = fresh_python(
        "import sys, dualnum\n"
        "data = dualnum.SplineData\n"
        "import dualnum.spline\n"
        "print('numpy' in sys.modules, data is dualnum.spline.SplineData)")
    assert out == "False True\n"


def test_lazy_name_is_kept_after_first_use():
    # the first read stores the value in the package's globals, so later
    # reads are plain attribute reads that skip __getattr__
    out = fresh_python(
        "import sys, dualnum\n"
        "before = 'eval_dual' in vars(dualnum)\n"
        "loaded = sorted({'numpy', 'dualnum.spline'} & set(sys.modules))\n"
        "dualnum.eval_dual\n"
        "import dualnum.spline\n"
        "print(before, loaded,\n"
        "      vars(dualnum).get('eval_dual') is dualnum.spline.eval_dual)")
    assert out == "False [] True\n"


def write_bump_csv(path, rows):
    """``rows`` evenly spaced samples of a bump over [1, 3] peaking at
    2.1, so both spline subcommands' defaults lie in range."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for i in range(rows):
            x = 1.0 + 2.0 * i / (rows - 1)
            fh.write(f"{x!r},{1.0 - (x - 2.1) ** 2!r}\n")
    return str(path)


def test_spline_subcommands_leave_numpy_unloaded(tmp_path):
    # bundled data and CSV files of up to 96 rows run on plain floats; a
    # 2-row bump is a straight line, so its peak search fails (exit 2)
    runs = [["spline"], ["diffusivity"]]
    for rows in (2, 17, 65, 96):
        path = write_bump_csv(tmp_path / f"bump{rows}.csv", rows)
        runs += [["spline", "--csv", path], ["diffusivity", "--csv", path]]
    out = fresh_python(
        "import contextlib, io, sys\n"
        "from dualnum import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [cli.main(argv + ['--json']) for argv in {runs!r}]\n"
        "print(codes, 'numpy' in sys.modules)")
    assert out == "[0, 0, 0, 2, 0, 0, 0, 0, 0, 0] False\n"


def test_import_leaves_dataclasses_and_ode_unloaded():
    out = fresh_python(
        "import sys, dualnum\n"
        "print(sorted({'dataclasses', 'inspect', 'dualnum.ode'}"
        " & set(sys.modules)))")
    assert out == "[]\n"


def test_subcommands_but_duffing_leave_dataclasses_unloaded(tmp_path):
    # dataclasses imports inspect, ast, dis and tokenize: several ms of a
    # fresh process's start-up.  Only dualnum.ode still needs it.
    path = write_bump_csv(tmp_path / "bump96.csv", 96)
    runs = [[name, "--check"] for name in ("nr-example1", "mechanism",
                                           "spline", "diffusivity")]
    runs += [["mechanism", "--fn", "identity", "--check"],
             ["spline", "--csv", path], ["diffusivity", "--csv", path]]
    out = fresh_python(
        "import contextlib, io, sys\n"
        "from dualnum import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv + ['--json']) for argv in {runs!r}]\n"
        "print(codes, sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out == "[0, 0, 0, 0, 0, 0, 0] []\n"


def test_import_and_subcommands_leave_typing_unloaded():
    # no dualnum module imports typing, for annotations or otherwise.  Run
    # without site, since a .pth file there may import typing itself.
    runs = [[name, "--check"] for name in ("nr-example1", "mechanism",
                                           "spline", "diffusivity",
                                           "duffing")]
    runs += [["mechanism", "--fn", "identity", "--check"]]
    out = fresh_python(
        "import sys, dualnum\n"
        "imported = 'typing' in sys.modules\n"
        "import contextlib, io\n"
        "from dualnum import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv + ['--json']) for argv in {runs!r}]\n"
        "print(imported, codes, 'typing' in sys.modules)", "-S")
    assert out == "False [0, 0, 0, 0, 0, 0] False\n"


def test_ode_names_load_on_first_use():
    out = fresh_python(
        "import sys, dualnum\n"
        "names = {'OdeProblem', 'duffing_problem', 'rk4', 'rk4dual'}\n"
        "listed = names <= set(dir(dualnum))\n"
        "loaded = 'dualnum.ode' in sys.modules\n"
        "from dualnum import OdeProblem\n"
        "import dualnum.ode\n"
        "print(listed, loaded, OdeProblem is dualnum.ode.OdeProblem)")
    assert out == "True False True\n"


def test_a_97_row_csv_loads_numpy(tmp_path):
    path = write_bump_csv(tmp_path / "bump97.csv", 97)
    out = fresh_python(
        "import contextlib, io, sys\n"
        "from dualnum import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main([name, '--csv', {path!r}, '--json'])\n"
        "             for name in ('spline', 'diffusivity')]\n"
        "print(codes, 'numpy' in sys.modules)")
    assert out == "[0, 0] True\n"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from dualnum import *", namespace)
    assert [name for name in dualnum.__all__ if name not in namespace] == []
    assert set(dualnum.__all__) <= set(dir(dualnum))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dualnum.no_such_name


def test_fixture_subcommands_leave_scipy_unloaded():
    # every bundled fixture spline is small enough for the sweep
    out = fresh_python(
        "import contextlib, io, sys\n"
        "from dualnum import cli\n"
        "for name in ('nr-example1', 'mechanism', 'spline', 'diffusivity',"
        " 'duffing'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main([name, '--json', '--check']) == 0, name\n"
        "print('scipy' in sys.modules)")
    assert out == "False\n"


def test_splines_of_up_to_96_knots_leave_scipy_unloaded():
    # the cutoff is a promise, not only a tuning: scipy's import costs a
    # fresh process far more than the sweep loses to dgttrs below it
    out = fresh_python(
        "import sys, dualnum\n"
        "for n in (96, 97):\n"
        "    data = dualnum.SplineData(range(n), [i % 7 for i in range(n)])\n"
        "    model = dualnum.build_spline(data)\n"
        "    dualnum.eval_dual(model, dualnum.variable(2.5))\n"
        "    dualnum.find_derivative_root(model, 2.5)\n"
        "    print(n, 'scipy' in sys.modules)")
    assert out == "96 False\n97 True\n"
