import math

import numpy as np
import pytest

from dualnum import (
    DivergenceError,
    NoExtremumError,
    NumericalError,
    OutOfRangeError,
    SingularDerivativeError,
    SplineData,
    UnsupportedSizeError,
    ValidationError,
    build_spline,
    diffusivity,
    eval_dual,
    find_derivative_root,
    sin,
    tinv_entry,
    variable,
)
from dualnum import fixtures
from dualnum import spline as spline_module
from dualnum.reference import Tridiagonal, usmani_inverse


def slope_matrix(n):
    full = np.diag([2.0] + [4.0] * (n - 2) + [2.0])
    full += np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return full


def random_data(rng, n):
    x = np.sort(rng.uniform(-5.0, 5.0, n))
    while np.min(np.diff(x)) < 1e-3:
        x = np.sort(rng.uniform(-5.0, 5.0, n))
    return SplineData(x, rng.uniform(-1.0, 1.0, n))


def jittered_model(rng, n, peaked, jitter):
    """Spline on n knots, each gap within ``jitter`` of the mean gap:
    concave with one interior maximum, or monotone and convex."""
    gaps = rng.uniform(1.0 - jitter, 1.0 + jitter, n - 1)
    span = rng.uniform(1.0, 20.0)
    x = rng.uniform(0.5, 5.0) + np.concatenate(([0.0], np.cumsum(gaps))) * (
        span / gaps.sum())
    if peaked:
        u = (x - x[0] - span * rng.uniform(0.3, 0.7)) / (
            span * rng.uniform(0.6, 1.0))
        y = 1.0 - u * u - 0.2 * u ** 4
    else:
        y = np.exp(rng.uniform(0.5, 3.0) * (x - x[0]) / span)
    return build_spline(SplineData(x, y))


class TestValidation:
    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            SplineData(np.array([1.0]), np.array([2.0]))

    def test_non_increasing_x(self):
        with pytest.raises(ValidationError):
            SplineData(np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0]))

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            SplineData(np.array([0.0, np.inf]), np.array([0.0, 1.0]))


class TestBuild:
    def test_bundled_fixture_interpolates_knots(self):
        data = fixtures.ln_sample_data()
        model = build_spline(data)
        for xk, yk in zip(data.x, data.y):
            got = eval_dual(model, variable(float(xk))).f0
            assert got == pytest.approx(float(yk), abs=1e-12)

    def test_two_point_line(self):
        model = build_spline(SplineData(np.array([0.0, 1.0]),
                                        np.array([0.0, 1.0])))
        assert np.allclose(model.slopes, [1.0, 1.0], atol=1e-14)
        assert np.allclose([model.a[0], model.b[0], model.c[0], model.d[0]],
                           [0.0, 1.0, 0.0, 0.0], atol=1e-14)

    def test_constant_data_is_flat(self):
        model = build_spline(SplineData(np.arange(5.0), np.full(5, 2.5)))
        assert np.allclose(model.slopes, 0.0, atol=0)
        v = eval_dual(model, variable(1.3))
        assert (v.f0, v.f1, v.f2) == (2.5, 0.0, 0.0)

    def test_structural_invariants_on_random_data(self):
        rng = np.random.RandomState(11)
        for _ in range(50):
            n = int(rng.randint(2, 41))
            data = random_data(rng, n)
            model = build_spline(data)
            # knot interpolation
            assert np.allclose(model.a, data.y[:-1], atol=0)
            ends = model.a + model.b + model.c + model.d
            assert np.max(np.abs(ends - data.y[1:])) <= 1e-12
            # natural end conditions (second derivative in t)
            assert abs(2.0 * model.c[0]) <= 1e-9
            assert abs(2.0 * model.c[-1] + 6.0 * model.d[-1]) <= 1e-9
            # C1 continuity across knots: Y_i'(1) == D_{i+1}
            left = model.b + 2.0 * model.c + 3.0 * model.d
            assert np.max(np.abs(left - model.slopes[1:])) <= 1e-12

    def test_uniform_line_reproduced_everywhere(self):
        x = np.linspace(-2.0, 4.0, 13)
        model = build_spline(SplineData(x, 0.75 * x - 1.25))
        for xv in np.linspace(-2.0, 4.0, 101):
            v = eval_dual(model, variable(float(xv)))
            assert v.f0 == pytest.approx(0.75 * xv - 1.25, abs=1e-10)
            assert v.f1 == pytest.approx(0.75, abs=1e-10)
            assert v.f2 == pytest.approx(0.0, abs=1e-10)


class TestClosedFormInverse:
    def test_two_by_two_entries(self):
        assert tinv_entry(2, 1, 1) == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert tinv_entry(2, 1, 2) == pytest.approx(-1.0 / 3.0, abs=1e-14)
        assert tinv_entry(2, 2, 2) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.RandomState(3)
        for _ in range(25):
            n = int(rng.randint(2, 51))
            s = int(rng.randint(1, n + 1))
            k = int(rng.randint(1, n + 1))
            assert tinv_entry(n, s, k) == tinv_entry(n, k, s)

    def test_inverse_identity_residual_n9(self):
        n = 9
        inv = np.array([[tinv_entry(n, s, k) for k in range(1, n + 1)]
                        for s in range(1, n + 1)])
        residual = inv @ slope_matrix(n) - np.eye(n)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_matches_general_recurrences(self):
        for n in range(2, 51):
            tri = Tridiagonal(np.array([2.0] + [4.0] * (n - 2) + [2.0]),
                              np.ones(n - 1), np.ones(n - 1))
            general = usmani_inverse(tri)
            closed = np.array([[tinv_entry(n, s, k) for k in range(1, n + 1)]
                               for s in range(1, n + 1)])
            assert np.max(np.abs(general - closed)) <= 1e-10

    def test_slopes_match_closed_form_solution(self):
        rng = np.random.RandomState(5)
        for n in range(2, 101):
            data = random_data(rng, n)
            model = build_spline(data)
            rhs = np.empty(n)
            rhs[0] = 3.0 * (data.y[1] - data.y[0])
            rhs[-1] = 3.0 * (data.y[-1] - data.y[-2])
            if n > 2:
                rhs[1:-1] = 3.0 * (data.y[2:] - data.y[:-2])
            inv = np.array([[tinv_entry(n, s, k) for k in range(1, n + 1)]
                            for s in range(1, n + 1)])
            assert np.max(np.abs(inv @ rhs - model.slopes)) <= 1e-9

    def test_index_validation(self):
        with pytest.raises(ValidationError):
            tinv_entry(1, 1, 1)
        with pytest.raises(ValidationError):
            tinv_entry(5, 0, 3)
        with pytest.raises(ValidationError):
            tinv_entry(5, 1, 6)

    def test_size_cap(self):
        with pytest.raises(UnsupportedSizeError):
            tinv_entry(501, 1, 1)


@pytest.fixture(scope="module")
def model():
    return build_spline(fixtures.ln_sample_data())


class TestEvalDual:
    def test_reference_value_and_slope(self, model):
        y = eval_dual(model, variable(1.75))
        assert y.f0 == pytest.approx(0.5596, abs=1e-4)
        assert y.f1 == pytest.approx(0.5727, abs=1e-4)

    def test_product_composition(self, model):
        xd = variable(1.75)
        y = eval_dual(model, xd)
        f = xd * sin(y) * sin(y)
        assert f.f0 == pytest.approx(0.4931, abs=1e-4)
        assert f.f1 == pytest.approx(1.1836, abs=1e-4)

    def test_dual_argument_composition(self, model):
        xd = variable(1.75)
        g = eval_dual(model, xd * sin(xd) * sin(xd))
        assert g.f0 == pytest.approx(0.5272, abs=1e-4)
        assert g.f1 == pytest.approx(0.2097, abs=1e-4)

    def test_out_of_range_message(self, model):
        with pytest.raises(OutOfRangeError) as err:
            eval_dual(model, variable(0.99))
        assert str(err.value) == (
            "x = 0.99 outside data range [1.0, 3.0] (no extrapolation)")

    def test_out_of_range(self, model):
        with pytest.raises(OutOfRangeError):
            eval_dual(model, variable(0.99))
        with pytest.raises(OutOfRangeError):
            eval_dual(model, variable(3.01))

    def test_endpoints_evaluate(self, model):
        assert eval_dual(model, variable(1.0)).f0 == pytest.approx(0.0, abs=1e-12)
        assert eval_dual(model, variable(3.0)).f0 == pytest.approx(
            1.0986123, abs=1e-12)

    def test_interior_knot_uses_right_segment(self, model):
        # value and first derivative are continuous across the knot;
        # approaching from the right must agree with the knot itself
        at = eval_dual(model, variable(1.75))
        right = eval_dual(model, variable(1.75 + 1e-9))
        assert at.f0 == pytest.approx(right.f0, abs=1e-8)
        assert at.f1 == pytest.approx(right.f1, abs=1e-8)

    def test_derivatives_match_finite_differences(self, model):
        from dualnum.reference import central_diff

        def value(x):
            return eval_dual(model, variable(x)).f0

        rng = np.random.RandomState(2)
        count = 0
        while count < 20:
            x = float(rng.uniform(1.05, 2.95))
            if np.min(np.abs(model.data.x - x)) <= 1e-2:
                continue  # FD stencil must not straddle a knot
            count += 1
            v = eval_dual(model, variable(x))
            assert abs(v.f1 - central_diff(value, x, 1)) <= \
                1e-6 * max(1.0, abs(v.f1))
            assert abs(v.f2 - central_diff(value, x, 2)) <= \
                1e-4 * max(1.0, abs(v.f2))


def numpy_lookup_eval(model, x):
    """eval_dual written with np.searchsorted and numpy-scalar reads, as
    before the knot lookup read plain floats."""
    knots = model.data.x
    i = int(np.searchsorted(knots, x.f0, side="right")) - 1
    i = min(max(i, 0), len(model.data) - 2)
    h = float(knots[i + 1] - knots[i])
    t = (x - float(knots[i])) * (1.0 / h)
    return ((t * float(model.d[i]) + float(model.c[i])) * t
            + float(model.b[i])) * t + float(model.a[i])


class TestLookupEdges:
    def test_knots_and_end_ulps_match_numpy_lookup(self):
        # Interior knots take their right-hand segment, the last knot the
        # final segment at t = 1, one ulp inside an end its edge segment.
        rng = np.random.RandomState(23)
        for n in (2, 3, 9, 40):
            model = jittered_model(rng, n, peaked=True, jitter=0.4)
            knots = [float(k) for k in model.data.x]
            lo, hi = knots[0], knots[-1]
            points = knots + [math.nextafter(lo, hi), math.nextafter(hi, lo)]
            for p in points:
                for xd in (variable(p), variable(p) * 2.0 - p):
                    assert repr(eval_dual(model, xd)) == repr(
                        numpy_lookup_eval(model, xd))


def fifty_step_root(model, x0):
    """find_derivative_root before its early exit: always 50 Newton steps.

    Returns the last iterate and the number of range escapes.
    """
    knots = model.data.x
    lo, hi = float(knots[0]), float(knots[-1])
    inner_lo = lo + 0.5 * float(knots[1] - knots[0])
    inner_hi = hi - 0.5 * float(knots[-1] - knots[-2])
    x = min(max(float(x0), inner_lo), inner_hi)
    escapes = 0
    for _ in range(50):
        v = eval_dual(model, variable(x))
        if v.f2 == 0.0:
            raise SingularDerivativeError("second derivative vanished")
        nxt = x - v.f1 / v.f2
        if not math.isfinite(nxt):
            raise DivergenceError("non-finite iterate")
        if nxt < lo or nxt > hi:
            escapes += 1
            if escapes >= 2:
                raise NoExtremumError("left the data range twice")
            nxt = min(max(nxt, inner_lo), inner_hi)
        x = nxt
    return x, escapes


def newton_step(model, x):
    v = eval_dual(model, variable(x))
    return x - v.f1 / v.f2


class TestDerivativeRootEarlyExit:
    def test_same_result_as_fifty_steps(self):
        rng = np.random.RandomState(17)
        seen = set()
        for i in range(60):
            peaked = i % 3 != 0
            jitter = 0.4 if i % 2 else 0.0
            model = jittered_model(rng, int(rng.randint(9, 65)), peaked,
                                   jitter)
            knots = model.data.x
            for x0 in (knots[0], knots[-1], knots[len(knots) // 2],
                       rng.uniform(knots[0], knots[-1])):
                try:
                    want, escapes = fifty_step_root(model, x0)
                except NumericalError as exc:
                    with pytest.raises(type(exc)):
                        find_derivative_root(model, x0)
                    seen.add(type(exc).__name__)
                    continue
                assert find_derivative_root(model, x0) == want
                fixed = newton_step(model, want) == want
                seen.add((peaked, jitter, escapes, fixed))
        assert "NoExtremumError" in seen
        # converged without escaping on even, peaked and uneven knots
        assert (True, 0.0, 0, True) in seen
        assert (True, 0.4, 0, True) in seen
        # escaped once, was clamped back, then converged
        assert any(k[2:] == (1, True) for k in seen if isinstance(k, tuple))
        # an unconverged cycle still returns the 50th iterate
        assert any(k[3] is False for k in seen if isinstance(k, tuple))

    def test_clamp_onto_iterate_still_counts_as_escape(self):
        # From the left end the start is clamped to inner_lo; the first
        # step leaves the range and is clamped back onto inner_lo itself,
        # so the clamped step equals its input.  That must count as an
        # escape: the second one raises.
        x = np.linspace(0.0, 2.0, 11)
        model = build_spline(SplineData(x, np.exp(x)))
        assert newton_step(model, 0.1) < 0.0
        with pytest.raises(NoExtremumError):
            fifty_step_root(model, 0.0)
        with pytest.raises(NoExtremumError):
            find_derivative_root(model, 0.0)

    def test_evaluation_count(self, monkeypatch):
        # The fixed-point exit is what makes the search cheap: a search
        # that converges in a few steps must not go on to 50.
        model = build_spline(fixtures.radiometry_fixture())
        knots = model.data.x
        calls = []

        def counting_eval(m, x):
            calls.append(x.f0)
            return eval_dual(m, x)

        monkeypatch.setattr(spline_module, "eval_dual", counting_eval)
        for start in (float(knots[len(knots) // 2]), float(knots[2])):
            calls.clear()
            peak = find_derivative_root(model, start)
            assert len(calls) <= 10
            assert peak == fifty_step_root(model, start)[0]


class TestDerivativeRoot:
    def test_parabola_maximum_from_far_edge(self):
        x = np.linspace(0.0, 10.0, 21)
        model = build_spline(SplineData(x, -(x - 5.0) ** 2))
        assert find_derivative_root(model, 10.0) == pytest.approx(
            5.0, abs=1e-6)

    def test_sine_maximum(self):
        x = np.linspace(0.0, math.pi, 17)
        model = build_spline(SplineData(x, np.sin(x)))
        assert find_derivative_root(model, 1.0) == pytest.approx(
            math.pi / 2.0, abs=1e-3)

    def test_monotone_data_has_no_extremum(self):
        x = np.linspace(0.0, 2.0, 11)
        model = build_spline(SplineData(x, np.exp(x)))
        with pytest.raises(NoExtremumError):
            find_derivative_root(model, 1.0)

    def test_flat_data_is_singular(self):
        x = np.linspace(0.0, 2.0, 11)
        model = build_spline(SplineData(x, np.full(11, 1.0)))
        with pytest.raises(SingularDerivativeError):
            find_derivative_root(model, 1.0)

    def test_start_outside_range(self):
        x = np.linspace(0.0, 2.0, 11)
        model = build_spline(SplineData(x, np.sin(x)))
        with pytest.raises(OutOfRangeError):
            find_derivative_root(model, 5.0)


class TestDiffusivity:
    def test_formula_inversion_fixture(self):
        peak = fixtures.radiometry_peak_frequency()
        assert diffusivity(fixtures.SAMPLE_THICKNESS, peak) == pytest.approx(
            fixtures.TARGET_DIFFUSIVITY, rel=1e-12)

    def test_pipeline_on_synthetic_curve(self):
        model = build_spline(fixtures.radiometry_fixture())
        start = float(model.data.x[len(model.data) // 2])
        peak = find_derivative_root(model, start)
        alpha = diffusivity(fixtures.SAMPLE_THICKNESS, peak)
        assert alpha == pytest.approx(fixtures.TARGET_DIFFUSIVITY, rel=0.02)

    def test_linearity(self):
        base = diffusivity(522e-6, 5.0)
        assert diffusivity(522e-6, 10.0) == pytest.approx(2 * base, rel=1e-15)
        assert diffusivity(2 * 522e-6, 5.0) == pytest.approx(2 * base, rel=1e-15)

    @pytest.mark.parametrize("thickness,freq", [(0.0, 1.0), (-1.0, 1.0),
                                                (1.0, 0.0), (1.0, -2.0)])
    def test_positivity_validation(self, thickness, freq):
        with pytest.raises(ValidationError):
            diffusivity(thickness, freq)
