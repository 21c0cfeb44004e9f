import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualnum
from dualnum.cli import _solve, main, read_xy_csv
from dualnum import (NonConvergenceError, RootConfig, ValidationError,
                     constant, find_root, variable)
from dualnum import fixtures


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


COMMANDS = ["nr-example1", "mechanism", "spline", "diffusivity", "duffing"]


class TestSolveCheck:
    def test_non_convergence_carries_abs_residual(self):
        # three fixed-count iterates and the settle end short of x on
        # F < 0, which the residual check then rejects
        def negative_double_root(u, x):
            return -((u - x) * (u - x))

        cfg, x = RootConfig(0.0, max_iters=3, tol=0.0), variable(0.75)
        u = find_root(cfg, negative_double_root, x)
        F = negative_double_root(constant(u.f0), constant(0.75)).f0
        assert F < 0.0
        with pytest.raises(NonConvergenceError) as err:
            _solve(cfg, negative_double_root, x)
        assert err.value.residual == -F


class TestExitCodes:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_success_is_zero(self, capsys, command):
        code, out, _ = run(capsys, command)
        assert code == 0
        assert out

    def test_usage_error_is_one(self, capsys):
        code, _, _ = run(capsys, "no-such-command")
        assert code == 1

    def test_validation_error_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0, 2.0\n0.5, 1.0\n")
        code, _, err = run(capsys, "spline", "--csv", str(bad))
        assert code == 1
        assert "increasing" in err

    def test_numerical_failure_is_two(self, capsys, tmp_path):
        # strictly increasing amplitudes: no interior extremum exists
        monotone = tmp_path / "monotone.csv"
        freq = np.linspace(1.0, 10.0, 25)
        monotone.write_text(
            "\n".join(f"{x},{y}" for x, y in zip(freq, np.exp(freq / 4.0))))
        code, _, err = run(capsys, "diffusivity", "--csv", str(monotone))
        assert code == 2
        assert "extremum" in err

    def test_two_row_diffusivity_starts_mid_range(self, capsys, tmp_path):
        # two rows have no interior sample: the default search starts at
        # the midpoint and finds the straight line has no extremum
        line = tmp_path / "line.csv"
        line.write_text("0.0,1.0\n1.0,2.0\n")
        code, _, err = run(capsys, "diffusivity", "--csv", str(line))
        assert code == 2
        assert "extremum" in err

    def test_default_start_is_the_first_strongest_sample(self, capsys,
                                                          tmp_path):
        # two interior samples tie for the maximum: the search starts at
        # the first, as np.argmax picks, and finds the peak beside it
        twin = tmp_path / "twin.csv"
        ys = [0.0, 0.5, 1.0, 0.5, 0.0, -0.5, 0.0, 0.5, 1.0, 0.5, 0.0]
        twin.write_text("\n".join(f"{i},{y}" for i, y in enumerate(ys)))
        code, out, _ = run_json(capsys, "diffusivity", "--csv", str(twin))
        assert code == 0 and 1.5 < out["results"][0]["value"] < 2.5

    @pytest.mark.parametrize("fn", ["2sin2", "identity"])
    def test_unconverged_mechanism_is_two(self, capsys, fn):
        # the mechanism cannot assemble at x0 = 1: the damped solve stalls
        # at iterate 4, where no shorter step lowers |F| = 1.4e-4
        code, out, err = run(capsys, "mechanism", "--x0", "1.0", "--fn", fn,
                             "--json")
        assert (code, out) == (2, "")
        assert err.startswith("numerical failure: stalled at iterate 4: no "
                              "step of up to 10 halvings lowers |F| = "
                              "1.379e-04")

    @pytest.mark.parametrize("t", ["100", "1e300"])
    def test_overflowing_duffing_is_two(self, capsys, t):
        code, out, err = run(capsys, "duffing", "--t", t)
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure:")

    @pytest.mark.parametrize("t, estimate", [("20", "3.338e-02"),
                                             ("40", "1.156e-01")])
    def test_unchecked_duffing_answer_is_two(self, capsys, t, estimate):
        # RK4's 100-step answer is off by 2.6e-2 at t = 20 and 0.31 at 40
        code, out, err = run(capsys, "duffing", "--t", t, "--json")
        assert (code, out) == (2, "")
        assert err == (f"numerical failure: RK4 error estimate {estimate} "
                       f"> 1e-06 at time {float(t)} (100 steps against 50)\n")

    @pytest.mark.parametrize("t", [1.0, 2.0, 5.0, 10.0, 20.0])
    def test_duffing_error_estimate_tracks_the_error(self, capsys, t):
        from dualnum import duffing_problem, rk4dual

        def jet(steps):
            d = rk4dual(duffing_problem(steps), dualnum.variable(t))
            return d.f0, d.f1, d.f2

        answer = jet(fixtures.DUFFING_STEPS)
        estimate = max(abs(a - b) for a, b in zip(answer, jet(50))) / 15.0
        # the fine-step reference is 20**4 times more accurate or better
        error = max(abs(a - b) for a, b in zip(answer, jet(int(2000 * t))))
        assert 0.3 <= estimate / error <= 3.0
        code, _, err = run(capsys, "duffing", "--t", str(t), "--json")
        if estimate > 1e-6:
            assert code == 2
            assert f"estimate {estimate:.3e} > 1e-06" in err
        else:
            assert code == 0

    def test_infinite_thickness_is_one(self, capsys):
        code, out, err = run(capsys, "diffusivity", "--thickness", "inf",
                             "--json")
        assert code == 1
        assert out == ""
        assert "thickness" in err

    @pytest.mark.parametrize("x0", ["nan", "inf"])
    def test_non_finite_diffusivity_start_is_one(self, capsys, x0):
        # a non-finite start is rejected, not replaced
        code, out, err = run(capsys, "diffusivity", "--x0", x0, "--json")
        assert (code, out) == (1, "")
        assert err == f"error: --x0 must be finite, got {x0}\n"

    def test_diffusivity_start_outside_data_is_one(self, capsys):
        code, out, err = run(capsys, "diffusivity", "--x0", "99", "--json")
        assert (code, out) == (1, "")
        assert "outside data range" in err

    def test_out_of_range_at_is_one(self, capsys):
        # row y fails first, and its message names the point given
        for at in ("0.5", "99.0"):
            code, _, err = run(capsys, "spline", "--at", at)
            assert (code, err) == (1, f"error: x = {at} outside data range "
                                      f"[1.0, 3.0] (no extrapolation)\n")

    @pytest.mark.parametrize("rows,at,arg", [
        (None, "1.05", "0.7900442049149253"),
        ([(1.0, 0.0), (2.0, 0.7), (3.0, 1.1), (4.0, 1.4)], "2.5",
         "0.8954222681709673"),
    ])
    def test_out_of_range_composition_names_the_given_point(
            self, capsys, tmp_path, rows, at, arg):
        # --at is inside the data, but row g reads the spline at
        # x sin^2 x, which is not: the error names both
        csv = []
        if rows:
            path = tmp_path / "data.csv"
            path.write_text("".join(f"{x},{y}\n" for x, y in rows))
            csv = ["--csv", str(path)]
        code, out, err = run(capsys, "spline", *csv, "--at", at)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: row g reads the spline at x sin^2 x; "
                              f"with --at {at}, x = {arg} outside data "
                              f"range [1.0, ")

    def test_closed_stdout_is_three(self):
        # The reader has gone: every write to a pipe whose read end is
        # closed fails with EPIPE.  No traceback, and a code of its own.
        assert run_to_closed_pipe(["-m", "dualnum", "duffing",
                                   "--json"]) == (3, b"")

    def test_console_script_closed_stdout_is_three(self):
        # The dualnum script that pip generates from pyproject.toml imports
        # the entry point's function and exits with what it returns.
        module, func = re.search(r'^dualnum = "([\w.]+):(\w+)"$',
                                 PYPROJECT.read_text(), re.M).groups()
        script = (f"import sys\nfrom {module} import {func}\n"
                  f"sys.exit({func}())")
        assert run_to_closed_pipe(["-c", script, "duffing",
                                   "--json"]) == (3, b"")

    def test_bad_precision_is_one(self, capsys):
        code, _, _ = run(capsys, "spline", "--precision", "0")
        assert code == 1


class TestChecks:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_fixture_checks_pass(self, capsys, command):
        code, payload, _ = run_json(capsys, command, "--check")
        assert code == 0
        assert payload["status"] == "ok"
        assert payload["checks"]
        assert all(c["pass"] for c in payload["checks"])

    def test_check_failure_sets_exit_code(self, capsys):
        # values at a different evaluation point cannot match the fixture
        code, payload, _ = run_json(capsys, "duffing", "--t", "0.5", "--check")
        assert code == 2
        assert payload["status"] == "check-failed"

    def test_mechanism_identity_residual_check(self, capsys):
        code, payload, _ = run_json(capsys, "mechanism", "--fn", "identity",
                                    "--check")
        assert code == 0
        labels = [r["label"] for r in payload["results"]]
        assert labels == ["phi(x0)", "residual"]
        residual = payload["results"][1]["value"]
        assert abs(residual) <= 1e-9


class TestJsonOutput:
    def test_schema_and_round_trip(self, capsys):
        code, payload, _ = run_json(capsys, "nr-example1")
        assert code == 0
        assert set(payload) == {"results", "status"}
        assert payload["status"] == "ok"
        for row in payload["results"]:
            assert set(row) == {"label", "value", "first", "second",
                                "provenance"}

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "duffing", "--json")
        _, second, _ = run(capsys, "duffing", "--json")
        assert first == second

    def test_full_precision_in_json(self, capsys):
        _, payload, _ = run_json(capsys, "nr-example1")
        u = payload["results"][0]["value"]
        assert abs(u - 1.3085322276188784) < 1e-12


DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
SRC = str(Path(dualnum.__file__).parent.parent)
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


GOLDEN_JSON = [
    ("nr-example1", ["nr-example1"]),
    ("mechanism", ["mechanism"]),
    ("mechanism-identity", ["mechanism", "--fn", "identity"]),
    ("spline", ["spline"]),
    ("diffusivity", ["diffusivity"]),
    ("duffing", ["duffing"]),
]

# Fixture commands under --check, flag variants (a failed check exits 2
# and is pinned too) and one human-readable table.
GOLDEN_CHECKED = [
    ("nr-example1.check.json", ["nr-example1", "--json"], 0),
    ("mechanism.check.json", ["mechanism", "--json"], 0),
    ("mechanism-identity.check.json",
     ["mechanism", "--fn", "identity", "--json"], 0),
    ("spline.check.json", ["spline", "--json"], 0),
    ("diffusivity.check.json", ["diffusivity", "--json"], 0),
    ("duffing.check.json", ["duffing", "--json"], 0),
    ("spline-at-2.25.check.json", ["spline", "--at", "2.25", "--json"], 2),
    ("spline-csv-at-2.0.check.json",
     ["spline", "--csv", str(DATA / "quad.csv"), "--at", "2.0", "--json"],
     2),
    ("mechanism-x0-1.5.check.json",
     ["mechanism", "--x0", "1.5", "--json"], 2),
    ("duffing-t-2.0.check.json", ["duffing", "--t", "2.0", "--json"], 2),
    ("diffusivity-thickness-0.001.check.json",
     ["diffusivity", "--thickness", "0.001", "--json"], 2),
    ("diffusivity-csv.check.json",
     ["diffusivity", "--csv", str(DATA / "bump.csv"), "--json"], 0),
    ("duffing-precision-7.check.txt",
     ["duffing", "--precision", "7"], 0),
]


def run_to_closed_pipe(args):
    """A new interpreter's exit code and stderr with stdout a pipe whose
    read end is closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, *args], env=fresh_env(),
                              stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def fresh_env():
    """The environment of a new interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


# Every golden as (file, full argv, exit code).
GOLDEN_RUNS = ([(f"{golden}.json", argv + ["--json"], 0)
                for golden, argv in GOLDEN_JSON]
               + [(golden, argv + ["--check"], code)
                  for golden, argv, code in GOLDEN_CHECKED])


class TestGoldenJson:
    """``--json`` stdout of each fixture command, pinned byte for byte."""

    @pytest.mark.parametrize("golden,argv", GOLDEN_JSON)
    def test_matches_golden(self, capsys, golden, argv):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out.encode() == (GOLDEN / f"{golden}.json").read_bytes()

    @pytest.mark.parametrize("golden,argv,want_code", GOLDEN_CHECKED)
    def test_checked_run_matches_golden(self, capsys, golden, argv,
                                        want_code):
        code, out, err = run(capsys, *argv, "--check")
        assert (code, err) == (want_code, "")
        assert out.encode() == (GOLDEN / golden).read_bytes()

    # In this process numpy and dualnum.spline are already loaded, so an
    # import that fails only in a cold interpreter shows only here.
    @pytest.mark.parametrize("golden,argv,want_code", GOLDEN_RUNS,
                             ids=[run[0] for run in GOLDEN_RUNS])
    def test_fresh_process_matches_golden(self, golden, argv, want_code):
        proc = subprocess.run([sys.executable, "-m", "dualnum", *argv],
                              env=fresh_env(), capture_output=True)
        assert (proc.returncode, proc.stderr) == (want_code, b"")
        assert proc.stdout == (GOLDEN / golden).read_bytes()


class TestHumanOutput:
    def test_default_four_digits(self, capsys):
        code, out, _ = run(capsys, "duffing")
        assert code == 0
        assert "-0.7475" in out  # value rounds to 4 digits

    def test_precision_flag(self, capsys):
        _, out, _ = run(capsys, "duffing", "--precision", "7")
        assert "-0.7474761" in out


class TestCsvIngestion:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("freq,amp\n1.0, 2.0\n2.0, 3.0\n3.0, 1.0\n")
        data = read_xy_csv(str(path))
        assert np.allclose(data.x, [1.0, 2.0, 3.0])
        assert np.allclose(data.y, [2.0, 3.0, 1.0])

    def test_whitespace_separated(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1.0 2.0\n2.5\t3.0\n")
        data = read_xy_csv(str(path))
        assert np.allclose(data.x, [1.0, 2.5])

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0, 2.0\n2.0, oops\n")
        with pytest.raises(ValidationError, match=":2:"):
            read_xy_csv(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_value_names_line(self, capsys, tmp_path, value):
        path = tmp_path / "data.csv"
        path.write_text(f"1.0, 2.0\n1.5, 2.5\n2.0, {value}\n3.0, 1.0\n")
        code, _, err = run(capsys, "spline", "--csv", str(path))
        assert code == 1
        assert f"{path}:3: data points must be finite" in err

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0, 2.0, 3.0\n")
        with pytest.raises(ValidationError, match=":1:"):
            read_xy_csv(str(path))

    def test_unsorted_rows_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("2.0, 1.0\n1.0, 2.0\n")
        with pytest.raises(ValidationError, match="increasing"):
            read_xy_csv(str(path))
        # the first bad line in file order is named, not a later one
        path.write_text("2.0, 1.0\n1.0, 2.0\n3.0, 1.0\n4.0, oops\n")
        with pytest.raises(ValidationError,
                           match=":2: x values must be strictly increasing"):
            read_xy_csv(str(path))

    def test_missing_file(self):
        with pytest.raises(ValidationError):
            read_xy_csv("/nonexistent/file.csv")

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0, 2.0\n")
        with pytest.raises(ValidationError, match="2 data rows"):
            read_xy_csv(str(path))

    @pytest.mark.parametrize("header", [True, False], ids=["header", "bare"])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, header):
        # Excel's "CSV UTF-8" starts with a BOM: read as text, it made
        # line 1 unparsable, and a bare first data row was taken for a
        # header and dropped
        text = (DATA / "quad.csv").read_text()
        if not header:
            text = text.split("\n", 1)[1]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = run(capsys, "spline", "--csv", str(plain), "--json")
        assert want[0] == 0
        assert run(capsys, "spline", "--csv", str(marked), "--json") == want

    def test_non_utf8_text_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("t/µs,y\n1.0,2.0\n2.0,3.0\n".encode("latin-1"))
        code, out, err = run(capsys, "spline", "--csv", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {path}: ")
        assert "codec can't decode" in err


class TestCommandBehaviour:
    def test_spline_accepts_user_csv(self, capsys, tmp_path):
        path = tmp_path / "quad.csv"
        xs = np.linspace(0.5, 4.0, 15)
        path.write_text("\n".join(f"{x},{x * x}" for x in xs))
        code, payload, _ = run_json(capsys, "spline", "--csv", str(path),
                                    "--at", "2.0")
        assert code == 0
        y_row = payload["results"][0]
        assert abs(y_row["value"] - 4.0) < 1e-3
        assert abs(y_row["first"] - 4.0) < 1e-2

    def test_diffusivity_thickness_scales_result(self, capsys):
        _, base, _ = run_json(capsys, "diffusivity")
        _, doubled, _ = run_json(capsys, "diffusivity", "--thickness",
                                 str(2 * fixtures.SAMPLE_THICKNESS))
        alpha = [r for r in base["results"] if r["label"] == "alpha_s"][0]
        alpha2 = [r for r in doubled["results"] if r["label"] == "alpha_s"][0]
        assert alpha2["value"] == pytest.approx(2 * alpha["value"], rel=1e-12)

    def test_diffusivity_in_range_start_honoured(self, capsys):
        peak = fixtures.radiometry_peak_frequency()
        code, payload, _ = run_json(capsys, "diffusivity", "--x0", str(peak))
        assert code == 0
        f1 = payload["results"][0]
        assert f1["value"] == pytest.approx(peak, rel=1e-6)

    def test_duffing_time_flag(self, capsys):
        code, payload, _ = run_json(capsys, "duffing", "--t", "2.0")
        assert code == 0
        from dualnum import duffing_problem, rk4
        want, _ = rk4(duffing_problem(100), 2.0)
        assert payload["results"][0]["value"] == pytest.approx(want, abs=0)

    def test_mechanism_x0_flag(self, capsys):
        code, payload, _ = run_json(capsys, "mechanism", "--x0", "1.5")
        assert code == 0
        assert payload["status"] == "ok"
