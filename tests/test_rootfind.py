import math

import numpy as np
import pytest

from dualnum import (
    Dual3,
    DivergenceError,
    DomainError,
    MechanismParams,
    NonConvergenceError,
    RootConfig,
    SingularDerivativeError,
    ValidationError,
    constant,
    exp,
    find_root,
    log,
    sin,
    variable,
)
from dualnum import fixtures
from dualnum.reference import central_diff


def identity_eq(u, x):
    return u - x


def cube_eq(u, x):
    return u ** 3 - x


def square_eq(u, x):
    return u * u - x


def sine_eq(u, x):
    return u - sin(x)


def stiff_mixed_eq(u, x):
    # F = u^3 + u*x - exp(x); partials are simple closed forms
    return u ** 3 + u * x - exp(x)


# solvable example equations paired with closed-form u(x) for cross-checks
CLOSED_FORM_EQUATIONS = [
    (identity_eq, lambda xd: xd, (-2.0, 3.0)),
    (cube_eq, lambda xd: xd ** (1.0 / 3.0), (0.5, 8.0)),
    (sine_eq, lambda xd: sin(xd), (-1.2, 1.2)),
]

ALL_EQUATIONS = [identity_eq, cube_eq, sine_eq, stiff_mixed_eq,
                 fixtures.nr_example1_equation]


def cfg(u0, **kw):
    return RootConfig(u0=u0, **kw)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RootConfig(u0=1.0, max_iters=0)
        with pytest.raises(ValidationError):
            RootConfig(u0=1.0, tol=-1.0)
        with pytest.raises(ValidationError, match="tol"):
            RootConfig(u0=1.0, tol=float("inf"))
        with pytest.raises(ValidationError):
            RootConfig(u0=1.0, method="bisect")
        with pytest.raises(ValidationError):
            RootConfig(u0=float("nan"))

    @pytest.mark.parametrize(
        "max_iters", [2.5, 3.0, np.float64(3.0), True, "3", None],
        ids=["fraction", "whole-float", "numpy-float", "bool", "str", "none"])
    def test_non_integer_max_iters_is_rejected(self, max_iters):
        # a float count would otherwise fail later, inside range()
        with pytest.raises(ValidationError, match="max_iters"):
            RootConfig(u0=1.0, max_iters=max_iters)

    def test_numpy_integer_max_iters_is_accepted(self):
        u = find_root(cfg(2.0, max_iters=np.int64(3), tol=0.0), identity_eq,
                      variable(1.5))
        assert u.f0 == 1.5

    @pytest.mark.parametrize("equation", ALL_EQUATIONS)
    def test_equations_map_constants_to_constants(self, equation):
        out = equation(constant(1.3), constant(0.9))
        assert out.f1 == 0.0 and out.f2 == 0.0


class TestNewton:
    def test_reference_values_at_seed(self):
        xd = variable(0.7)
        u = find_root(cfg(2.0, max_iters=100, tol=0.0),
                      fixtures.nr_example1_equation, xd)
        assert np.allclose((u.f0, u.f1, u.f2), (1.3085, 0.1163, -0.9337),
                           atol=1e-4)

    def test_reference_values_through_compositions(self):
        xd = variable(0.7)
        solver_cfg = cfg(2.0, max_iters=100, tol=0.0)
        u = find_root(solver_cfg, fixtures.nr_example1_equation, xd)
        g1 = sin(u) + xd
        g2 = find_root(solver_cfg, fixtures.nr_example1_equation,
                       sin(xd) + xd * xd)
        assert np.allclose((g1.f0, g1.f1, g1.f2), (1.6658, 1.0301, -0.2551),
                           atol=1e-4)
        assert np.allclose((g2.f0, g2.f1, g2.f2), (1.2963, -0.2556, -1.1425),
                           atol=1e-4)

    def test_identity_equation(self):
        for x0 in (-3.0, 0.0, 1.7):
            u = find_root(cfg(10.0), identity_eq, variable(x0))
            assert u == Dual3(x0, 1.0, 0.0)

    def test_cube_root_closed_form(self):
        u = find_root(cfg(1.0), cube_eq, variable(8.0))
        assert np.allclose((u.f0, u.f1, u.f2), (2.0, 1 / 12, -1 / 144),
                           atol=1e-12)

    @pytest.mark.parametrize("equation,closed,span", CLOSED_FORM_EQUATIONS)
    def test_matches_closed_form_on_grid(self, equation, closed, span):
        for x0 in np.linspace(*span, 9):
            xd = variable(float(x0))
            u = find_root(cfg(1.0), equation, xd)
            want = closed(xd)
            assert u.f0 == pytest.approx(want.f0, abs=1e-9)
            assert u.f1 == pytest.approx(want.f1, abs=1e-9)
            assert u.f2 == pytest.approx(want.f2, abs=1e-9)

    def test_constant_seed_returns_constant(self):
        u = find_root(cfg(2.0), fixtures.nr_example1_equation, constant(0.7))
        assert u.f1 == 0.0 and u.f2 == 0.0

    def test_settle_phase_matches_implicit_formulas(self):
        # partials of F = u^3 + u*x - exp(x)
        x0 = 0.8
        u = find_root(cfg(1.0, tol=1e-14), stiff_mixed_eq, variable(x0))
        us = u.f0
        f_u = 3 * us ** 2 + x0
        f_x = us - math.exp(x0)
        f_uu = 6 * us
        f_ux = 1.0
        f_xx = -math.exp(x0)
        first = -f_x / f_u
        second = -(f_uu * first ** 2 + 2 * f_ux * first + f_xx) / f_u
        assert u.f1 == pytest.approx(first, abs=1e-9)
        assert u.f2 == pytest.approx(second, abs=1e-9)

    def test_early_exit_still_settles_derivatives(self):
        loose = find_root(cfg(2.0, tol=1e-10), fixtures.nr_example1_equation,
                          variable(0.7))
        tight = find_root(cfg(2.0, tol=0.0, max_iters=100),
                          fixtures.nr_example1_equation, variable(0.7))
        assert loose.f1 == pytest.approx(tight.f1, abs=1e-9)
        assert loose.f2 == pytest.approx(tight.f2, abs=1e-9)

    def test_finite_differences_of_solver(self):
        rng = np.random.RandomState(7)
        equation = fixtures.nr_example1_equation

        def solve_value(x):
            return find_root(cfg(2.0, tol=1e-14), equation, variable(x)).f0

        for _ in range(10):
            x0 = float(rng.uniform(0.4, 1.0))
            u = find_root(cfg(2.0, tol=1e-14), equation, variable(x0))
            fd1 = central_diff(solve_value, x0, 1)
            fd2 = central_diff(solve_value, x0, 2)
            assert abs(u.f1 - fd1) <= 1e-6 * max(1.0, abs(u.f1))
            assert abs(u.f2 - fd2) <= 1e-4 * max(1.0, abs(u.f2))


class TestHalley:
    def test_agrees_with_newton_on_reference_problem(self):
        xd = variable(0.7)
        n = find_root(cfg(2.0), fixtures.nr_example1_equation, xd)
        h = find_root(cfg(2.0, method="halley"),
                      fixtures.nr_example1_equation, xd)
        assert np.allclose((n.f0, n.f1, n.f2), (h.f0, h.f1, h.f2), atol=1e-9)

    @pytest.mark.parametrize("equation,closed,span", CLOSED_FORM_EQUATIONS)
    def test_agrees_with_newton_everywhere(self, equation, closed, span):
        for x0 in np.linspace(*span, 5):
            xd = variable(float(x0))
            n = find_root(cfg(1.0), equation, xd)
            h = find_root(cfg(1.0, method="halley"), equation, xd)
            assert np.allclose((n.f0, n.f1, n.f2), (h.f0, h.f1, h.f2),
                               atol=1e-9)

    def test_identity_in_one_iteration(self):
        u = find_root(cfg(5.0, method="halley", max_iters=1, tol=0.0),
                      identity_eq, variable(2.5))
        assert u == Dual3(2.5, 1.0, 0.0)

    def test_cube_root(self):
        u = find_root(cfg(1.0, method="halley"), cube_eq, variable(8.0))
        assert np.allclose((u.f0, u.f1, u.f2), (2.0, 1 / 12, -1 / 144),
                           atol=1e-12)

    def test_find_root_dispatch(self):
        # after one real-part iteration the two methods still differ
        xd = variable(8.0)
        halley = find_root(cfg(1.0, method="halley", max_iters=1, tol=0.0),
                           cube_eq, xd)
        newton = find_root(cfg(1.0, max_iters=1, tol=0.0), cube_eq, xd)
        assert halley.f0 == pytest.approx(1.9763, abs=1e-4)
        assert newton.f0 == pytest.approx(2.2544, abs=1e-4)


class TestErrors:
    def test_singular_derivative(self):
        def flat(u, x):
            return u * u + x - x  # dF/du = 0 at u = 0

        with pytest.raises(SingularDerivativeError):
            find_root(cfg(0.0), flat, variable(1.0))

    def test_vanishing_slope_at_an_iterate(self):
        # u0 = 0 is not a root of u^2 - 2, and dF/du is 0 there
        with pytest.raises(SingularDerivativeError, match="iterate 0"):
            find_root(cfg(0.0), square_eq, variable(2.0))

    def test_vanishing_halley_denominator(self):
        # at u = 1, x = -3: 2 F'^2 - F F'' = 2 * 4 - 4 * 2 = 0
        with pytest.raises(SingularDerivativeError, match="Halley"):
            find_root(cfg(1.0, method="halley"), square_eq,
                      variable(-3.0))

    def test_divergence_reports_iterations(self):
        # first Newton step jumps to ~ -5e299, squaring overflows to inf
        def explodes(u, x):
            return u * u + constant(1e300) + (x - x)

        with pytest.raises(DivergenceError) as err:
            find_root(cfg(1.0, tol=0.0, max_iters=10), explodes, variable(1.0))
        assert err.value.iterations == 1
        assert isinstance(err.value.__cause__, DomainError)

    def test_domain_error_at_u0_is_not_divergence(self):
        # no iteration has run, so F's own DomainError reaches the caller
        with pytest.raises(DomainError):
            find_root(cfg(-1.0), lambda u, x: log(u) - x, variable(0.5))

    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_overflowing_step_is_divergence(self, method):
        # the first step, about -1e450, overflows to -inf
        def steep_offset(u, x):
            return 1e-150 * u + constant(1e300) + (x - x)

        with pytest.raises(DivergenceError) as err:
            find_root(cfg(1.0, method=method, tol=0.0, max_iters=5),
                      steep_offset, variable(0.5))
        assert err.value.iterations == 1

    @pytest.mark.parametrize("tol,max_iters,calls", [
        (1e-12, 10, 2 + 2),  # u0 and the exact root u1, then the settle
        (0.0, 5, 6 + 2),
    ])
    def test_one_residual_call_per_iterate(self, tol, max_iters, calls):
        seen = []

        def counted(u, x):
            seen.append(u.f0)
            return identity_eq(u, x)

        root = find_root(cfg(0.0, tol=tol, max_iters=max_iters), counted,
                         variable(0.75))
        assert (root.f0, root.f1, root.f2) == (0.75, 1.0, 0.0)
        assert len(seen) == calls

    def test_non_convergence_carries_residual(self):
        def rootless(u, x):
            return u * u + constant(1.0) + (x - x)

        with pytest.raises(NonConvergenceError) as err:
            find_root(cfg(0.5, tol=1e-12, max_iters=40), rootless,
                      variable(1.0))
        assert math.isfinite(err.value.residual)
        assert abs(err.value.residual) > 1e-12


class TestMechanism:
    def test_cosine_branch_hypothesis(self):
        p = fixtures.MECHANISM_PARAMS
        assert p.s1 ** 2 + p.c1 ** 2 == pytest.approx(1.0, abs=1e-12)
        assert p.s2 ** 2 + p.c2 ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_cosine_rejected(self):
        with pytest.raises(ValidationError):
            MechanismParams(L=1, l=1, a=1, R=1, s1=0.5, s2=0.5, b=2, e=1,
                            c1=0.9, c2=math.sqrt(0.75))

    @pytest.mark.parametrize("field,value", [
        ("s1", 1.5), ("s2", -1.0000001), ("s1", math.nan), ("s2", math.inf),
        ("L", math.nan), ("l", math.inf), ("a", -math.inf), ("R", math.nan),
        ("b", math.inf), ("e", math.nan), ("c1", math.nan), ("c2", math.inf),
    ])
    def test_non_finite_or_out_of_range_constant_rejected(self, field, value):
        good = dict(L=1.0, l=1.0, a=1.0, R=1.0, s1=0.5, s2=0.5, b=2.0, e=1.0)
        with pytest.raises(ValidationError):
            MechanismParams(**{**good, field: value})

    def test_output_angle_reference_values(self):
        params = fixtures.MECHANISM_PARAMS
        solver_cfg = cfg(fixtures.MECHANISM_PHI0, max_iters=100, tol=0.0)
        xd = variable(2.0)
        phi = find_root(solver_cfg, params.loop_closure, xd)
        f_of_phi = 2.0 * sin(phi) * sin(phi)
        assert np.allclose((f_of_phi.f0, f_of_phi.f1, f_of_phi.f2),
                           (1.4279, -1.7693, -1.2856), atol=1e-4)
        phi_of_f = find_root(solver_cfg, params.loop_closure,
                             2.0 * sin(xd) * sin(xd))
        assert np.allclose((phi_of_f.f0, phi_of_f.f1, phi_of_f.f2),
                           (1.7817, -1.6171, -3.5137), atol=1e-4)

    def test_returned_angle_satisfies_loop_equation(self):
        params = fixtures.MECHANISM_PARAMS
        phi = find_root(cfg(fixtures.MECHANISM_PHI0), params.loop_closure,
                        variable(2.0))
        residual = params.loop_closure(constant(phi.f0), constant(2.0)).f0
        assert abs(residual) <= 1e-9

    def test_initial_guess_scan_converges_to_recorded_branch(self):
        params = fixtures.MECHANISM_PARAMS
        roots = []
        for phi0 in np.arange(0.3, 2.01, 0.1):
            phi = find_root(cfg(float(phi0), tol=0.0, max_iters=100),
                            params.loop_closure, variable(2.0))
            roots.append(phi.f0)
        assert np.allclose(roots, roots[0], atol=1e-9)

    def test_derivatives_match_finite_differences(self):
        params = fixtures.MECHANISM_PARAMS

        def angle(theta):
            return find_root(cfg(fixtures.MECHANISM_PHI0, tol=1e-14),
                             params.loop_closure, variable(theta)).f0

        phi = find_root(cfg(fixtures.MECHANISM_PHI0, tol=1e-14),
                        params.loop_closure, variable(2.0))
        assert abs(phi.f1 - central_diff(angle, 2.0, 1)) <= 1e-6 * abs(phi.f1)
        assert abs(phi.f2 - central_diff(angle, 2.0, 2)) <= 1e-4 * abs(phi.f2)

    def test_loop_closure_on_constants_is_constant(self):
        params = fixtures.MECHANISM_PARAMS
        out = params.loop_closure(constant(1.0), constant(2.0))
        assert out.f1 == 0.0 and out.f2 == 0.0
