import math

import numpy as np
import pytest

from dualnum import (
    Dual3,
    DivergenceError,
    DomainError,
    MechanismParams,
    NonConvergenceError,
    NumericalError,
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
from dualnum.core import _Kernel
from dualnum.reference import central_diff
from dualnum.rootfind import _MAX_HALVINGS


def identity_eq(u, x):
    return u - x


def cube_eq(u, x):
    return u ** 3 - x


def square_eq(u, x):
    return u * u - x


def cubic_plus_linear_eq(u, x):
    return u ** 3 + 3.0 * u - x


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

    # a _Kernel has no __name__ for pytest to take an id from
    @pytest.mark.parametrize("equation", ALL_EQUATIONS, ids=[
        "identity_eq", "cube_eq", "sine_eq", "stiff_mixed_eq",
        "nr_example1_equation"])
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

    def test_zero_denominator_takes_the_newton_step(self):
        # at u = 1, x = -8: F = 12, F' = 6, F'' = 6, so 2 F'^2 - F F'' = 0
        u = find_root(cfg(1.0, method="halley"), cubic_plus_linear_eq,
                      variable(-8.0))
        assert u.f0 == pytest.approx(-1.5127453266183286, abs=1e-12)
        assert u.f1 == pytest.approx(1.0 / (3.0 * u.f0 ** 2 + 3.0),
                                     rel=1e-14)

    def test_find_root_dispatch(self):
        # after one real-part iteration the two methods still differ;
        # Newton's full step to 10/3 raises |F|, so it takes half of it
        xd = variable(8.0)
        halley = find_root(cfg(1.0, method="halley", max_iters=1, tol=0.0),
                           cube_eq, xd)
        newton = find_root(cfg(1.0, max_iters=1, tol=0.0), cube_eq, xd)
        assert halley.f0 == pytest.approx(1.9763, abs=1e-4)
        assert newton.f0 == pytest.approx(2.0018, abs=1e-4)


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

    def test_zero_halley_denominator_on_a_rootless_equation(self):
        # at u = 1, x = -3: 2 F'^2 - F F'' = 2 * 4 - 4 * 2 = 0, so the
        # Newton step to -1 is taken; it does not lower |F| = 4, and its
        # half lands on u = 0, where dF/du = 0
        with pytest.raises(SingularDerivativeError,
                           match="dF/du vanished at iterate 1"):
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
        assert isinstance(err.value.__cause__, DomainError)

    @pytest.mark.parametrize("tol,max_iters,calls", [
        (1e-12, 10, 2 + 2),  # u0, and u1 with |F| = 5.6e-13; the settle
        (0.0, 5, 6 + 2),     # u0..u5, none repeated; the settle
    ])
    def test_one_residual_call_per_iterate(self, tol, max_iters, calls):
        # at a double root Newton halves the distance each step, so no
        # iterate repeats within the budget
        seen = []

        def counted(u, x):
            seen.append(u.f0)
            return 4e-12 * (u - x) * (u - x)

        find_root(cfg(0.0, tol=tol, max_iters=max_iters), counted,
                  variable(0.75))
        assert len(seen) == calls
        iterates = seen[:-2]
        assert len(set(iterates)) == len(iterates)

    def test_non_convergence_carries_residual(self):
        def rootless(u, x):
            return u * u + constant(1.0) + (x - x)

        with pytest.raises(NonConvergenceError) as err:
            find_root(cfg(0.5, tol=1e-12, max_iters=40), rootless,
                      variable(1.0))
        assert math.isfinite(err.value.residual)
        assert abs(err.value.residual) > 1e-12

    def test_tolerance_exit_carries_abs_residual(self):
        # F = -(u - x)^2 < 0: Newton halves the distance to x exactly, so
        # three iterates from 0 end at 0.65625, 0.09375 short of x = 0.75
        def negative_double_root(u, x):
            return -((u - x) * (u - x))

        with pytest.raises(NonConvergenceError) as err:
            find_root(cfg(0.0, tol=1e-12, max_iters=3),
                      negative_double_root, variable(0.75))
        assert err.value.residual == 0.09375 ** 2


def fixed_count_root(cfg, F, g):
    """``find_root`` in operator form: its settle passes are
    ``ud - F(ud, g) / slope``, the form the float settle reproduces."""
    newton = cfg.method == "newton"
    x_const = constant(g.f0)
    u = float(cfg.u0)
    fd = F(variable(u), x_const)
    for k in range(cfg.max_iters + 1):
        resid = fd.f0
        if k == cfg.max_iters or (cfg.tol > 0.0 and abs(resid) <= cfg.tol):
            break
        fu = fd.f1
        if fu == 0.0:
            raise SingularDerivativeError(f"dF/du vanished at iterate {k}")
        step = resid / fu
        if not newton:
            denom = 2.0 * fu * fu - resid * fd.f2
            if denom > 0.0:
                step = 2.0 * resid * fu / denom
        if not math.isfinite(u - step):
            raise DivergenceError("non-finite iterate", iterations=k + 1)
        # above sqrt(eps) * max(1, |u|), halve until |F| falls
        damped = abs(step) > 2.0 ** -26 * max(1.0, abs(u))
        for _ in range(_MAX_HALVINGS + 1 if damped else 1):
            try:
                fd = F(variable(u - step), x_const)
            except DomainError as exc:
                raise DivergenceError(str(exc), iterations=k + 1) from exc
            if not damped or abs(fd.f0) < abs(resid):
                break
            step *= 0.5
        else:
            raise NonConvergenceError("stalled", residual=abs(resid))
        u = u - step
    if cfg.tol > 0.0 and abs(resid) > cfg.tol:
        raise NonConvergenceError("not converged", residual=abs(resid))
    slope = fd.f1
    if slope == 0.0:
        raise SingularDerivativeError(f"dF/du vanished at the root u={u}")
    ud = Dual3(u)
    for _ in range(2):
        ud = ud - F(ud, g) / slope
    return ud


def outcome(solve, *args):
    """Components as bits, or the exception class and its payload."""
    try:
        d = solve(*args)
    except (DivergenceError, NonConvergenceError) as exc:
        return type(exc), vars(exc).get("iterations"), repr(
            vars(exc).get("residual"))
    except ArithmeticError as exc:
        return type(exc)
    return tuple(c.hex() for c in (d.f0, d.f1, d.f2))


def signed_zero_eq(u, x):
    # u - x, except at u = -0.0 where it is 2u: a step from -0.0 lands on
    # +0.0, which equals -0.0 yet is a new iterate with another slope
    if u.f0 == 0.0 and math.copysign(1.0, u.f0) < 0.0:
        return 2.0 * u
    return u - x


def _seeded_cases():
    rng = np.random.default_rng(20261018)
    mech = fixtures.MECHANISM_PARAMS.loop_closure
    nr1 = fixtures.nr_example1_equation
    cases = []
    for theta in rng.uniform(0.0, 2.0 * math.pi, 12):
        cases.append((mech, float(rng.uniform(0.3, 2.0)), variable(theta)))
    # where the mechanism cannot assemble, no iterate converges
    for theta in rng.uniform(0.917, 1.143, 3):
        cases.append((mech, 1.0, variable(theta)))
    for x in rng.uniform(0.1, 2.1, 12):
        xd = variable(x)
        cases.append((nr1, 2.0, xd))
        cases.append((nr1, 2.0, sin(xd) + xd * xd))
    return cases


class TestCycleStop:
    """Fixed-count runs through rounding cycles: every iterate is
    computed, and these tests pin the bits, call counts and errors."""

    @pytest.mark.parametrize("tol", [0.0, 1e-12])
    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_bits_match_the_fixed_count_loop(self, method, tol):
        for F, u0, g in _seeded_cases():
            c = cfg(u0, method=method, tol=tol, max_iters=100)
            assert outcome(find_root, c, F, g) == outcome(
                fixed_count_root, c, F, g), (F, u0, g)

    @pytest.mark.parametrize("max_iters", [1, 2, 3, 10])
    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_signed_zero_iterates_are_distinct(self, method, max_iters):
        # +0.0 equals u0 = -0.0 yet is a new iterate with slope 1: a loop
        # that took it for a repeat of u0 would settle from -0.0 with
        # slope 2 and end on (0.25, 0.5, 0)
        c = cfg(-0.0, method=method, tol=0.0, max_iters=max_iters)
        got = outcome(find_root, c, signed_zero_eq, variable(0.5))
        assert got == outcome(fixed_count_root, c, signed_zero_eq,
                              variable(0.5))
        assert got == tuple(c.hex() for c in (0.5, 1.0, 0.0))

    @pytest.mark.parametrize("max_iters", [5, 100])
    def test_fixed_point_stops_the_loop(self, max_iters):
        # u1 is the exact root and every later iterate repeats it; tol=0
        # still evaluates exactly max_iters + 1 iterates (u0 .. u_max),
        # then the two settle passes
        seen = []

        def counted(u, x):
            seen.append(u.f0)
            return identity_eq(u, x)

        root = find_root(cfg(0.0, tol=0.0, max_iters=max_iters), counted,
                         variable(0.75))
        assert (root.f0, root.f1, root.f2) == (0.75, 1.0, 0.0)
        assert seen == [0.0] + [0.75] * (max_iters + 2)

    @pytest.mark.parametrize("max_iters", [1000, 1001])
    def test_cycle_without_convergence_raises_at_once(self, max_iters):
        # Newton on u^2 - 2 from sqrt(2) steps one ulp down and back, so
        # u2 repeats u0.  Both iterates leave |F| = 4.4e-16 > tol; their
        # steps are at the rounding level and so undamped.  Every iterate
        # is evaluated, max_iters + 1 of them, before the raise.  The
        # residual is that of the iterate max_iters lands on
        seen = []

        def counted(u, x):
            seen.append(u.f0)
            return square_eq(u, x)

        c = cfg(math.sqrt(2.0), tol=1e-16, max_iters=max_iters)
        with pytest.raises(NonConvergenceError) as err:
            find_root(c, counted, variable(2.0))
        assert len(seen) == max_iters + 1
        with pytest.raises(NonConvergenceError) as want:
            fixed_count_root(c, counted, variable(2.0))
        assert err.value.residual == want.value.residual


def settle_outcome(solve, *args):
    """Components as bits, or the exception class and its message."""
    try:
        d = solve(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return tuple(c.hex() for c in (d.f0, d.f1, d.f2))


def reversed_eq(u, x):
    return x - u


def signed_parts_eq(u, x):
    # u - x with each zero derivative part's sign flipped: the settle
    # divides -0.0 where u - x would give +0.0, and the reverse
    r = u - x
    return Dual3(r.f0, r.f1 if r.f1 else -r.f1, r.f2 if r.f2 else -r.f2)


def flattening_eq(u, x):
    # 1 + u at u0 = 0, whose damped step is taken in full to u1 = -1.
    # Left of -0.5 F is 0.5 + 1e-310 u, so the settle divides 0.5 by the
    # slope 1e-310: q0 is inf, and the operator form's q1 = (0 - inf 0)
    # / slope is NaN
    if u.f0 < -0.5:
        return 0.5 + 1e-310 * u + (x - x)
    return 1.0 + u + (x - x)


def steep_in_x_eq(u, x):
    # F_u = 1e-300 and F_x = 1e10 at the root u = x = 0.5, so the first
    # settle pass's q1 = 1e10 / 1e-300 is inf and its q2 NaN
    return 1e-300 * (u - x) + 1e10 * (x - x.f0)


class TestFloatSettle:
    """``find_root``'s settle passes on floats against their operator
    form ``ud - F(ud, g) / slope``, bit for bit and error for error."""

    @pytest.mark.parametrize("g1,g2", [(0.0, 0.0), (0.0, -0.0),
                                       (-0.0, 0.0), (-0.0, -0.0)])
    @pytest.mark.parametrize("F", [identity_eq, reversed_eq, cube_eq,
                                   sine_eq, signed_parts_eq])
    def test_signed_zero_parts(self, F, g1, g2):
        for x0 in (0.5, 2.0, -0.0):
            g = Dual3(x0, g1, g2)
            for method in ("newton", "halley"):
                for tol in (0.0, 1e-12):
                    c = cfg(1.3, method=method, tol=tol, max_iters=60)
                    got = settle_outcome(find_root, c, F, g)
                    assert got == settle_outcome(fixed_count_root, c, F, g)
                    # g is a constant, so is the root
                    assert float.fromhex(got[1]) == 0.0
                    assert float.fromhex(got[2]) == 0.0

    @pytest.mark.parametrize("method", ["newton", "halley"])
    @pytest.mark.parametrize("F,kw,message", [
        (flattening_eq, dict(u0=0.0, tol=0.0, max_iters=1),
         "NaN component in Dual3(inf, nan, nan)"),
        (steep_in_x_eq, dict(u0=0.5),
         "NaN component in Dual3(0.0, inf, nan)"),
    ])
    def test_non_finite_quotient(self, method, F, kw, message):
        c = RootConfig(method=method, **kw)
        got = settle_outcome(find_root, c, F, variable(0.5))
        assert got == settle_outcome(fixed_count_root, c, F, variable(0.5))
        assert got == (DomainError, message)


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


def mechanism_float(phi, theta):
    """The loop closure on plain floats, ``phi`` a float or numpy array."""
    p = fixtures.MECHANISM_PARAMS
    L, ell, a, R = p.L, p.l, p.a, p.R
    s1, s2, c1, c2 = p.s1, p.s2, p.c1, p.c2
    be = p.b - p.e
    sth, cth = math.sin(theta), math.cos(theta)
    sph, cph = np.sin(phi), np.cos(phi)
    return (
        a * a * c1 * c1 * c2 * c2
        - 2.0 * a * c1 * c2 * c2 * s1 * be
        - 2.0 * a * c1 * c1 * c2 * c2 * L * cth
        + 2.0 * a * c1 * c2 * c2 * R * cph
        - c1 * c1 * c2 * c2 * be * be
        + 2.0 * c1 * c2 * c2 * L * s1 * be * cth
        + 2.0 * c1 * c2 * L * s2 * be * sth
        - 2.0 * c1 * R * s2 * be * sph
        - 2.0 * R * s1 * be * cph
        + be * be
        - c1 * c1 * c2 * c2 * ell * ell
        + c1 * c1 * c2 * c2 * L * L
        + c1 * c1 * c2 * c2 * R * R * cph * cph
        - 2.0 * c1 * c1 * c2 * L * R * sth * sph
        - c1 * c1 * R * R * (1.0 - 2.0 * sph * sph)
        - 2.0 * c1 * c2 * c2 * L * R * cth * cph
        - 2.0 * c1 * c2 * L * R * s1 * s2 * sth * cph
        + 2.0 * c1 * R * R * s1 * s2 * sph * cph
        + R * R * cph * cph
    )


def nr_example1_float(u, x):
    return math.cos(u * x) - u ** 3 + x + math.sin(u * u * x)


_TURN = np.linspace(0.0, 2.0 * math.pi, 1441)

# Residual calls of a raising solve, settle included.  An undamped solve
# runs its whole budget first: 101 calls or more.
_RAISE_CALLS = 80


def counted_solve(c, F, g):
    """The root, or the ``NumericalError`` raised, and the residual calls."""
    calls = []

    def counted(u, x):
        calls.append(u.f0)
        return F(u, x)

    try:
        return find_root(c, counted, g), len(calls)
    except NumericalError as exc:
        return exc, len(calls)


class TestDampedSteps:
    """The damped real phase on every 16th angle and every 10th x of the
    implicit-sweep benchmark's grids."""

    @pytest.mark.parametrize("arg", ["theta", "2sin2"])
    def test_mechanism_grid_finds_roots_or_raises_early(self, arg):
        F = fixtures.MECHANISM_PARAMS.loop_closure
        for k in range(0, 4096, 16):
            theta = 2.0 * math.pi * k / 4096
            g = variable(theta)
            if arg == "2sin2":
                g = 2.0 * sin(g) * sin(g)
            got, calls = counted_solve(cfg(1.0), F, g)
            scan = mechanism_float(_TURN, g.f0)
            assembles = bool(np.any(scan[:-1] * scan[1:] <= 0.0))
            if assembles:
                assert isinstance(got, Dual3), (theta, got)
                assert abs(mechanism_float(got.f0, g.f0)) <= 1e-10, theta
            else:
                assert isinstance(got, NumericalError), (theta, got)
                assert calls <= _RAISE_CALLS, (theta, calls)

    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_nr_example1_grid_finds_roots(self, method):
        F = fixtures.nr_example1_equation
        for k in range(0, 1501, 10):
            x = 0.1 + 2.0 * k / 4000
            xd = variable(x)
            for g in (xd, sin(xd) + xd * xd):
                got, _ = counted_solve(cfg(2.0, method=method), F, g)
                assert isinstance(got, Dual3), (x, got)
                assert abs(nr_example1_float(got.f0, g.f0)) <= 1e-10, x

    def test_far_x_halley_converges(self):
        # From u0 = 2 at x = 2, undamped Halley wanders for its whole
        # budget on both arguments; damped, it finds each root
        F = fixtures.nr_example1_equation
        xd = variable(2.0)
        for g in (xd, sin(xd) + xd * xd):
            got, calls = counted_solve(cfg(2.0, method="halley"), F, g)
            assert isinstance(got, Dual3), got
            assert abs(nr_example1_float(got.f0, g.f0)) <= 1e-10
            assert calls < 60

    def test_stall_reports_the_residual(self):
        # u^2 + 1 has no real root: |F| stalls at its minimum 1, at u = 0
        def rootless(u, x):
            return u * u + constant(1.0) + (x - x)

        for tol in (0.0, 1e-12):
            got, calls = counted_solve(cfg(0.5, tol=tol), rootless,
                                       variable(1.0))
            assert isinstance(got, NonConvergenceError)
            assert str(got).startswith("stalled at iterate")
            assert 1.0 <= got.residual < 1.25
            assert calls <= _RAISE_CALLS

    def test_equal_residual_is_no_descent(self):
        # Newton on u^2 + 3 from 1 steps to -1, where |F| = 4 again: the
        # damped loop halves the step to u = 0, where dF/du vanishes
        seen = []

        def counted(u, x):
            seen.append(u.f0)
            return u * u + constant(3.0) + (x - x)

        with pytest.raises(SingularDerivativeError, match="iterate 1"):
            find_root(cfg(1.0, tol=0.0), counted, variable(1.0))
        assert seen == [1.0, -1.0, 0.0]


def route_outcome(c, F, g):
    """``find_root(c, F, g)`` as bits, or the class raised with its
    message and payload."""
    try:
        d = find_root(c, F, g)
    except ArithmeticError as exc:
        return (type(exc), str(exc), vars(exc).get("iterations"),
                repr(vars(exc).get("residual")))
    return tuple(v.hex() for v in (d.f0, d.f1, d.f2))


def dual3_route(K):
    """``K`` behind a plain callable, which ``find_root`` calls on Dual3s."""
    return lambda u, x: K(u, x)


def square_floats(u0, u1, u2, x0, x1, x2):
    # u * u - x by the Dual3 operators' formulas
    return (u0 * u0 - x0, u1 * u0 + u0 * u1 - x1,
            u2 * u0 + 2.0 * u1 * u1 + u0 * u2 - x2)


def spoiled_kernel(n, bad):
    """A ``_Kernel`` for u^2 - x whose call ``n`` and every later call
    returns ``bad``, and the list of its calls.  Each route gets its
    own, so both count from 0."""
    calls = []

    def floats(*components):
        calls.append(components)
        return bad if len(calls) > n else square_floats(*components)
    return _Kernel(floats), calls


# two preset configs: the default and the CLI's fixed count
_CONFIGS = {"default": {}, "fixed-count": dict(tol=0.0, max_iters=100)}


class TestKernelRoute:
    """``find_root`` runs a ``_Kernel``'s float code itself, and any other
    callable on Dual3s: both routes give the same bits, the same raise and
    the same message."""

    @pytest.mark.parametrize("config", _CONFIGS)
    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_mechanism_grid(self, method, config):
        K = fixtures.MECHANISM_PARAMS.loop_closure
        c = cfg(fixtures.MECHANISM_PHI0, method=method, **_CONFIGS[config])
        raised = 0
        for k in range(0, 4096, 32):
            theta = variable(2.0 * math.pi * k / 4096)
            for g in (theta, 2.0 * sin(theta) * sin(theta)):
                got = route_outcome(c, K, g)
                assert got == route_outcome(c, dual3_route(K), g), (k, g)
                raised += len(got) == 4
        # the angles where the mechanism cannot assemble
        assert raised > 0

    @pytest.mark.parametrize("config", _CONFIGS)
    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_nr_example1_grid_and_far_x(self, method, config):
        K = fixtures.nr_example1_equation
        c = cfg(fixtures.NR_EXAMPLE1_U0, method=method, **_CONFIGS[config])
        # every 15th timed x and the far-x probe, each as itself and as
        # sin x + x^2; then x as itself out to where u^2 x overflows in
        # the first residual
        gs = []
        for k in [*range(0, 1501, 15), *range(1525, 4001, 25)]:
            xd = variable(0.1 + 2.0 * k / 4000)
            gs += [xd, sin(xd) + xd * xd]
        gs += [variable(x) for x in (1e154, -1e300, 1e308)]
        raised = set()
        for g in gs:
            got = route_outcome(c, K, g)
            assert got == route_outcome(c, dual3_route(K), g), g
            if len(got) == 4:
                raised.add(got[0])
        assert {DomainError, NonConvergenceError} <= raised

    @pytest.mark.parametrize("config", _CONFIGS)
    @pytest.mark.parametrize("method", ["newton", "halley"])
    @pytest.mark.parametrize("bad,kinds", [
        ((math.inf, 1.0, 0.0), {DomainError, DivergenceError}),
        ((0.0, math.nan, 0.0), {DomainError, DivergenceError}),
        ((0.5, 1.0, -math.inf), {DomainError, DivergenceError}),
        # an iterate's F = 0 ends the real loop; from the first settle
        # pass on, f1 = 1.5e308 twice overflows the second pass's u~
        ((0.0, -1.5e308, 0.0), {DomainError}),
    ], ids=["inf-f0", "nan-f1", "inf-f2", "huge-f1"])
    def test_non_finite_residual_at_each_call(self, method, config, bad,
                                              kinds):
        # the spoiled call is the first residual, an iterate or a settle
        # pass: the first raises DomainError unwrapped, an iterate's
        # DivergenceError, a settle pass's DomainError
        c = cfg(1.3, method=method, **_CONFIGS[config])
        g = variable(0.5)
        clean, calls = spoiled_kernel(math.inf, bad)
        find_root(c, clean, g)
        raised = set()
        for n in range(len(calls)):
            got = route_outcome(c, spoiled_kernel(n, bad)[0], g)
            assert got == route_outcome(
                c, dual3_route(spoiled_kernel(n, bad)[0]), g), n
            if len(got) == 4:
                raised.add(got[0])
        assert raised == kinds

    @pytest.mark.parametrize("method,floats,message", [
        # F / F_u overflows, so the candidate is -inf
        ("newton", lambda u0, u1, u2, x0, x1, x2: (1e300, 1e-300 * u1, 0.0),
         "non-finite component in Dual3(-inf, 1.0, 0.0)"),
        ("halley", lambda u0, u1, u2, x0, x1, x2: (1e300, 1e-300 * u1, 0.0),
         "non-finite component in Dual3(-inf, 1.0, 0.0)"),
        # Halley's 2 F F_u and its denominator both overflow: a NaN step
        ("halley", lambda u0, u1, u2, x0, x1, x2: (1e200, 1e200 * u1, 0.0),
         "NaN component in Dual3(nan, 1.0, 0.0)"),
    ], ids=["newton-inf", "halley-inf", "halley-nan"])
    def test_overflowing_step(self, method, floats, message):
        K = _Kernel(floats)
        c = cfg(1.0, method=method)
        got = route_outcome(c, K, variable(0.5))
        assert got == route_outcome(c, dual3_route(K), variable(0.5))
        assert got[0] is DivergenceError
        assert got[1].endswith(message)

    @pytest.mark.parametrize("method", ["newton", "halley"])
    @pytest.mark.parametrize("name", ["mechanism", "nr-example1"])
    def test_a_solve_builds_one_dual3(self, monkeypatch, method, name):
        # the iterates and settle passes run on floats; only the root is
        # built, by rootfind's _mk, and no Dual3 operator runs
        import dualnum.core
        import dualnum.rootfind

        F, u0, x0 = {
            "mechanism": (fixtures.MECHANISM_PARAMS.loop_closure,
                          fixtures.MECHANISM_PHI0, fixtures.MECHANISM_X0),
            "nr-example1": (fixtures.nr_example1_equation,
                            fixtures.NR_EXAMPLE1_U0, fixtures.NR_EXAMPLE1_X0),
        }[name]
        g = variable(x0)
        calls = {"core": 0, "rootfind": 0}

        def counted(module, key):
            mk = module._mk

            def wrapper(*components):
                calls[key] += 1
                return mk(*components)
            monkeypatch.setattr(module, "_mk", wrapper)

        counted(dualnum.core, "core")
        counted(dualnum.rootfind, "rootfind")
        root = find_root(cfg(u0, method=method), F, g)
        assert type(root) is Dual3
        assert calls == {"core": 0, "rootfind": 1}
