"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and
asserts at the tolerances fixed below.  Relative comparisons use a
``max(1, |value|)`` floor so that near-zero components are held to the
same figure absolutely.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from dualnum import (
    OdeProblem,
    RootConfig,
    SplineData,
    build_spline,
    duffing_problem,
    eval_dual,
    cos,
    exp,
    find_root,
    log,
    rk4,
    rk4dual,
    sin,
    sqrt,
    tan,
    variable,
)
from dualnum import fixtures
from dualnum.cli import main
from dualnum.reference import (
    central_diff,
    jordan_poly_derivs,
    tinv_entry,
    usmani_inverse,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number:2d}: PASS - {description}")


def run_check_command(capsys, *argv):
    start = time.perf_counter()
    code = main(list(argv) + ["--check", "--json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    return code, payload, elapsed


def assert_all_cells_pass(payload, expected_cells):
    checks = payload["checks"]
    assert len(checks) == expected_cells
    failing = [c for c in checks if not c["pass"]]
    assert not failing, f"failing cells: {failing}"


def fd_check(dual_value, real_fn, x, rtol1=1e-6, rtol2=1e-4):
    fd1 = central_diff(real_fn, x, 1)
    fd2 = central_diff(real_fn, x, 2)
    assert abs(dual_value.f1 - fd1) <= rtol1 * max(1.0, abs(dual_value.f1))
    assert abs(dual_value.f2 - fd2) <= rtol2 * max(1.0, abs(dual_value.f2))


def test_criterion_1_implicit_function_table(capsys):
    with criterion(1, "nr-example1 --check: nine cells at 1e-4, under 1 s"):
        code, payload, elapsed = run_check_command(capsys, "nr-example1")
        assert code == 0
        assert_all_cells_pass(payload, 9)
        assert elapsed < 1.0


def test_criterion_2_mechanism_table(capsys):
    with criterion(2, "mechanism --check: six cells at 1e-4, under 1 s"):
        code, payload, elapsed = run_check_command(capsys, "mechanism")
        assert code == 0
        assert_all_cells_pass(payload, 6)
        assert elapsed < 1.0


def test_criterion_3_spline_table(capsys):
    with criterion(3, "spline --check: six cells at 1e-4"):
        code, payload, _ = run_check_command(capsys, "spline")
        assert code == 0
        assert_all_cells_pass(payload, 6)


def test_criterion_4_duffing_table(capsys):
    with criterion(4, "duffing --check: nine cells at 1e-4"):
        code, payload, _ = run_check_command(capsys, "duffing")
        assert code == 0
        assert_all_cells_pass(payload, 9)


def test_criterion_5_diffusivity_pipeline(capsys):
    with criterion(5, "diffusivity pipeline recovers 6.00e-6 m^2/s +/- 2%"):
        code, payload, _ = run_check_command(capsys, "diffusivity")
        assert code == 0
        alpha = [r for r in payload["results"] if r["label"] == "alpha_s"][0]
        want = fixtures.TARGET_DIFFUSIVITY
        assert abs(alpha["value"] - want) <= 0.02 * want


def test_criterion_6_closed_form_inverse():
    with criterion(6, "closed-form inverse vs recurrences (n<=50) and "
                      "identity residual (n<=100) at 1e-10"):
        for n in range(2, 51):
            diagonal = np.array([2.0] + [4.0] * (n - 2) + [2.0])
            general = usmani_inverse(diagonal, np.ones(n - 1),
                                     np.ones(n - 1))
            closed = np.array([[tinv_entry(n, s, k)
                                for k in range(1, n + 1)]
                               for s in range(1, n + 1)])
            assert np.max(np.abs(general - closed)) <= 1e-10
        for n in range(2, 101):
            matrix = (np.diag([2.0] + [4.0] * (n - 2) + [2.0])
                      + np.diag(np.ones(n - 1), 1)
                      + np.diag(np.ones(n - 1), -1))
            closed = np.array([[tinv_entry(n, s, k)
                                for k in range(1, n + 1)]
                               for s in range(1, n + 1)])
            residual = closed @ matrix - np.eye(n)
            assert np.max(np.abs(residual)) <= 1e-10


def test_criterion_7_ad_vs_fd_property_suite():
    with criterion(7, "dual derivatives vs central differences "
                      "(1e-6 / 1e-4 relative, 20+ points per subject)"):
        start = time.perf_counter()
        rng = np.random.RandomState(123)

        # dual elemental -> (float value function, sampler)
        samplers = {
            sin: (math.sin, lambda: rng.uniform(-3, 3)),
            cos: (math.cos, lambda: rng.uniform(-3, 3)),
            tan: (math.tan, lambda: rng.uniform(-1, 1)),
            exp: (math.exp, lambda: rng.uniform(-2, 2)),
            log: (math.log, lambda: rng.uniform(0.2, 5)),
            sqrt: (math.sqrt, lambda: rng.uniform(0.2, 5)),
            abs: (abs, lambda: rng.uniform(0.2, 3) * rng.choice([-1.0, 1.0])),
        }
        assert set(samplers) == {sin, cos, tan, exp, log, sqrt, abs}
        for fn, (value_fn, sampler) in samplers.items():
            for _ in range(20):
                x = float(sampler())
                fd_check(fn(variable(x)), value_fn, x)

        def cube_eq(u, x):
            return u ** 3 - x

        def mixed_eq(u, x):
            return u ** 3 + u * x - exp(x)

        equations = [
            (fixtures.nr_example1_equation, 2.0, (0.4, 1.0)),
            (cube_eq, 1.0, (0.5, 8.0)),
            (mixed_eq, 1.0, (0.0, 1.5)),
        ]
        for equation, u0, span in equations:
            cfg = RootConfig(u0=u0, tol=1e-14)

            def solve_value(x, _eq=equation, _cfg=cfg):
                return find_root(_cfg, _eq, variable(x)).f0

            for x in np.linspace(*span, 20):
                fd_check(find_root(cfg, equation, variable(float(x))),
                         solve_value, float(x))

        sin_x = np.linspace(0.0, math.pi, 17)
        exp_x = np.linspace(0.0, 2.0, 21)
        datasets = [
            (fixtures.ln_sample_data(), (1.05, 2.95)),
            (SplineData(sin_x, np.sin(sin_x)), (0.1, 3.0)),
            (SplineData(exp_x, np.exp(exp_x)), (0.1, 1.9)),
        ]
        for data, span in datasets:
            model = build_spline(data)

            def spline_value(x, _m=model):
                return eval_dual(_m, variable(x)).f0

            # stay clear of knots: the spline's third derivative jumps
            # there, which breaks the central-difference error model, not
            # the dual evaluation
            points = []
            while len(points) < 20:
                x = float(rng.uniform(*span))
                if np.min(np.abs(data.x - x)) > 1e-2:
                    points.append(x)
            for x in points:
                fd_check(eval_dual(model, variable(x)), spline_value, x)

        problem = duffing_problem(100)

        def ode_value(t):
            return rk4(problem, t)[0]

        for t in np.linspace(0.5, 2.0, 20):
            fd_check(rk4dual(problem, variable(float(t))), ode_value, float(t))

        assert time.perf_counter() - start < 30.0


def test_criterion_8_polynomial_oracle_equivalence():
    with criterion(8, "Jordan-block oracle vs dual arithmetic on 100 random "
                      "polynomials at 1e-12"):
        rng = np.random.RandomState(77)
        for _ in range(100):
            degree = int(rng.randint(0, 7))
            coeffs = rng.uniform(-3.0, 3.0, degree + 1)
            x = float(rng.uniform(-2.0, 2.0))
            oracle = jordan_poly_derivs(coeffs, x, 2)

            xd = variable(x)
            acc = xd * 0.0
            for c in coeffs[::-1]:
                acc = acc * xd + float(c)
            dual = np.array([acc.f0, acc.f1, acc.f2])
            scale = np.maximum(1.0, np.abs(dual))
            assert np.max(np.abs(oracle - dual) / scale) <= 1e-12


def test_criterion_9_rk4_order():
    with criterion(9, "RK4 error ratio in [12, 20] when doubling steps"):
        def oscillator(num_steps):
            return OdeProblem(t0=0.0, x10=0.0, x20=1.0,
                              rhs1=lambda t, x1, x2: x2,
                              rhs2=lambda t, x1, x2: -x1,
                              num_steps=num_steps)

        errors = [abs(rk4(oscillator(n), 1.0)[0] - math.sin(1.0))
                  for n in (25, 50, 100, 200)]
        ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        assert all(12.0 <= r <= 20.0 for r in ratios), ratios


def test_criterion_10_spline_structural_invariants():
    with criterion(10, "knot interpolation 1e-12, natural ends 1e-9, "
                       "C1 continuity 1e-12 on 50 random datasets"):
        rng = np.random.RandomState(31)
        for _ in range(50):
            n = int(rng.randint(2, 41))
            x = np.sort(rng.uniform(-5.0, 5.0, n))
            while np.min(np.diff(x)) < 1e-3:
                x = np.sort(rng.uniform(-5.0, 5.0, n))
            data = SplineData(x, rng.uniform(-1.0, 1.0, n))
            model = build_spline(data)

            for xk, yk in zip(data.x, data.y):
                value = eval_dual(model, variable(float(xk))).f0
                assert abs(value - float(yk)) <= 1e-12
            assert abs(2.0 * model.c[0]) <= 1e-9
            assert abs(2.0 * model.c[-1] + 6.0 * model.d[-1]) <= 1e-9
            left = model.b + 2.0 * model.c + 3.0 * model.d
            assert np.max(np.abs(left - model.slopes[1:])) <= 1e-12
