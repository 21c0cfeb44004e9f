import copy
import math
import pickle
import struct
from array import array

import numpy as np
import pytest

from dualnum import (
    DomainError,
    Dual3,
    NoExtremumError,
    NumericalError,
    OutOfRangeError,
    SingularDerivativeError,
    SplineData,
    SplineModel,
    ValidationError,
    build_spline,
    diffusivity,
    eval_dual,
    find_derivative_root,
    sin,
    variable,
)
from dualnum import fixtures, spline
from dualnum.spline import (_FACTORS, _PIVOTS, _SWEEP_MAX_KNOTS, _solve,
                            _sweep)
from dualnum.reference import (
    UnsupportedSizeError,
    tinv_entry,
    usmani_inverse,
)


def slope_matrix(n):
    full = np.diag([2.0] + [4.0] * (n - 2) + [2.0])
    full += np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return full


def slope_rhs(y):
    rhs = np.empty(len(y))
    rhs[0] = 3.0 * (y[1] - y[0])
    rhs[-1] = 3.0 * (y[-1] - y[-2])
    rhs[1:-1] = 3.0 * (y[2:] - y[:-2])
    return rhs


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

    def test_caller_array_stays_writable_and_unshared(self):
        x, y = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5)
        data = SplineData(x, y)
        assert x.flags.writeable and y.flags.writeable
        x[1] = 5.0
        assert data.x[1] == 0.25
        assert not data.x.flags.writeable

    def test_buffer_edit_does_not_reach_a_built_model(self):
        xa = array("d", [0.0, 0.25, 0.5, 0.75, 1.0])
        ya = array("d", [0.0, 1.0, 0.0, 1.0, 0.0])
        data = SplineData(xa, ya)
        model = build_spline(data)
        before = eval_dual(model, variable(0.6))
        xa[1] = 5.0  # would break the strictly increasing check
        ya[2] = 9.0
        assert list(data.x) == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert list(data.y) == [0.0, 1.0, 0.0, 1.0, 0.0]
        after = eval_dual(model, variable(0.6))
        assert (after.f0, after.f1, after.f2) == (
            before.f0, before.f1, before.f2)

    @pytest.mark.parametrize("n", [3, _SWEEP_MAX_KNOTS + 1],
                             ids=["sweep", "banded"])
    def test_overflowing_differences_are_rejected(self, n):
        y = np.where(np.arange(n) % 2 == 0, 1e308, -1e308)
        data = SplineData(np.arange(float(n)), y)
        # no overflow warning either: the suite turns warnings into errors
        with pytest.raises(ValidationError, match="overflow"):
            build_spline(data)

    @pytest.mark.parametrize("n", [5, _SWEEP_MAX_KNOTS + 1],
                             ids=["sweep", "banded"])
    def test_overflowing_coefficients_are_rejected(self, n):
        # the right-hand side is finite; the cubic coefficients are not
        y = np.zeros(n)
        y[1:4] = [-3e307, 3e307, -3e307]
        assert np.isfinite(slope_rhs(y)).all()
        with pytest.raises(ValidationError, match="overflow"):
            build_spline(SplineData(np.arange(float(n)), y))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="equal length"):
            SplineData([0.0, 1.0, 2.0], [1.0, 2.0])


class TestBuild:
    @pytest.mark.parametrize("n", [9, _SWEEP_MAX_KNOTS + 1],
                             ids=["sweep", "banded"])
    def test_coefficients_round_as_written(self, n):
        model = build_spline(random_data(np.random.default_rng(n), n))
        y, s = model.data.y, model.slopes
        dy = y[1:] - y[:-1]
        assert model.c.tobytes() == (3.0 * dy - 2.0 * s[:-1] - s[1:]).tobytes()
        assert model.d.tobytes() == (-2.0 * dy + s[:-1] + s[1:]).tobytes()

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
            # C1 continuity in t across knots: Y_i'(1) == D_{i+1}
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


class TestSweepMatchesBandedSolve:
    # Bitwise equality assumes LAPACK compiled without fused multiply-add
    # contraction, as in x86-64 OpenBLAS builds; the sweep's own rounding
    # does not depend on the platform.
    # sizes up to two past the cutoff, where the sweep hands over to the
    # one dgttrs call, a few well above it, and the largest curves the
    # benchmark builds
    SIZES = list(range(2, _SWEEP_MAX_KNOTS + 3)) + [160, 257, 1000, 4096,
                                                    65536]

    @staticmethod
    def banded_solve(rhs):
        from scipy.linalg import solve_banded

        n = len(rhs)
        banded = np.zeros((3, n))
        banded[0, 1:] = 1.0
        banded[1, :] = 4.0
        banded[1, 0] = banded[1, -1] = 2.0
        banded[2, :-1] = 1.0
        return solve_banded((1, 1), banded, rhs)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_slope_bits_equal_solve_banded(self, scale):
        rng = np.random.RandomState(23)
        for n in self.SIZES:
            x = np.arange(float(n))
            y = rng.uniform(-1.0, 1.0, n) * scale
            # mostly +-0: the sign of every zero slope must match too
            signed_zeros = np.where(rng.rand(n) < 0.5, -0.0, 0.0)
            sparse = np.where(rng.rand(n) < 0.8, signed_zeros, y)
            for ys in (y, sparse, signed_zeros):
                got = build_spline(SplineData(x, ys)).slopes
                want = self.banded_solve(slope_rhs(ys))
                assert got.tobytes() == want.tobytes(), n

    def test_sweep_bits_on_any_right_hand_side(self):
        # Right-hand sides no ordinates produce, such as -0, +0, -0 in
        # the last three rows, reach LAPACK's zero DU2(i) r[i + 2] term,
        # on both sides of the cutoff: the sweep up to it, dgttrs above.
        rng = np.random.RandomState(31)
        for n in self.SIZES:
            signed_zeros = np.where(rng.rand(n) < 0.5, -0.0, 0.0)
            mixed = np.where(rng.rand(n) < 0.8, signed_zeros,
                             rng.uniform(-1.0, 1.0, n))
            for rhs in (signed_zeros, mixed):
                want = self.banded_solve(rhs).tobytes()
                if n <= _SWEEP_MAX_KNOTS:
                    got = np.array(_sweep(rhs.tolist()))
                else:
                    got = _solve(rhs.copy())
                assert got.tobytes() == want, n

    def test_pivot_table_is_the_lapack_factorisation(self):
        # dgttrf on T: no interchanges, the table's pivots on the diagonal
        # and their reciprocals as multipliers; the last entry is the
        # recurrence's fixed point, the pivot of every later row.
        from scipy.linalg.lapack import dgttrf

        n = len(_PIVOTS) + 1
        diagonal = np.array([2.0] + [4.0] * (n - 2) + [2.0])
        dl, d, _, _, ipiv, info = dgttrf(np.ones(n - 1), diagonal,
                                         np.ones(n - 1))
        assert info == 0 and ipiv.tolist() == list(range(1, n + 1))
        assert d[:-1].tolist() == list(_PIVOTS)
        assert dl.tolist() == list(_FACTORS)
        assert d[-1] == 2.0 - _FACTORS[-1]
        assert _PIVOTS[-1] == 4.0 - 1.0 / _PIVOTS[-1]


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
            diagonal = np.array([2.0] + [4.0] * (n - 2) + [2.0])
            general = usmani_inverse(diagonal, np.ones(n - 1),
                                     np.ones(n - 1))
            closed = np.array([[tinv_entry(n, s, k) for k in range(1, n + 1)]
                               for s in range(1, n + 1)])
            assert np.max(np.abs(general - closed)) <= 1e-10

    def test_slopes_match_closed_form_solution(self):
        # sizes on both sides of the sweep's cutoff, up to the closed
        # form's limit of 500; the slopes depend on the ordinates alone
        rng = np.random.RandomState(5)
        for n in list(range(2, 101)) + [256, 500]:
            data = SplineData(np.arange(float(n)), rng.uniform(-1.0, 1.0, n))
            model = build_spline(data)
            rhs = slope_rhs(data.y)
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


def dual_chain_eval(model, x):
    """Reference for eval_dual: the segment found by np.searchsorted, read
    as numpy scalars, and the chain ``(x - x_i) * (1/h)``, then
    ``((t d + c) t + b) t + a``, run as eight ``Dual3`` operations.
    eval_dual runs the same chain on floats and must give the same bits,
    or raise DomainError where this does."""
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
                        dual_chain_eval(model, xd))


class TestModelViews:
    """A model comes only from build_spline, and a copy runs that build
    again, evaluation views included."""

    @staticmethod
    def outcomes(model):
        rng = np.random.RandomState(4)
        knots = model.data.x
        points = knots.tolist() + rng.uniform(knots[0], knots[-1],
                                              20).tolist()
        values = [eval_outcome(eval_dual, model, Dual3(p, 1.0, -0.5))
                  for p in points]
        roots = [find_derivative_root(model, p) for p in points]
        return values, struct.pack(f"<{len(roots)}d", *roots)

    @pytest.mark.parametrize("n", [9, _SWEEP_MAX_KNOTS + 1])
    @pytest.mark.parametrize("clone", [
        lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"])
    def test_copy_evaluates_bit_identically(self, n, clone):
        model = jittered_model(np.random.RandomState(n), n, peaked=True,
                               jitter=0.3)
        twin = clone(model)
        for name in ("slopes", "a", "b", "c", "d"):
            got, want = getattr(twin, name), getattr(model, name)
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert not (twin.data.x.flags.writeable or twin.data.y.flags.writeable)
        assert self.outcomes(twin) == self.outcomes(model)
        assert "memoryview" not in repr(model)

    def test_only_build_spline_makes_a_model(self):
        m = jittered_model(np.random.RandomState(8), 12, peaked=True,
                           jitter=0.3)
        for args in (m.data, m.slopes, m.a, m.b, m.c, m.d), ():
            with pytest.raises(TypeError, match="build_spline"):
                SplineModel(*args)

    def test_records_compare_by_identity(self):
        x, y = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0])
        data = SplineData(x, y)
        assert data != SplineData(x, y)
        model = build_spline(data)
        assert model == model
        assert (copy.deepcopy(model) == model) is False
        assert len({data, model, build_spline(data)}) == 3


def eval_outcome(evaluate, model, x):
    """The result's bytes, or the class of the numerical error raised."""
    try:
        v = evaluate(model, x)
    except NumericalError as exc:
        return type(exc)
    assert all(map(math.isfinite, (v.f0, v.f1, v.f2)))
    return struct.pack("<3d", v.f0, v.f1, v.f2)


class TestEvalDualBits:
    # 1e154 overflows f2 on the steeper of these curves, so both sides'
    # DomainError is compared too; 1e-157 makes f1 * f1 products subnormal
    F1 = (0.0, -0.0, 1.0, -1.0, 1e-300, 1e-157, 1e150, 1e154, 5e-324)

    @pytest.mark.parametrize("n", [2, 3, 4, 9, 40, 97, 300])
    @pytest.mark.parametrize("even", [True, False], ids=["even", "uneven"])
    def test_float_chain_gives_the_dual_chain_bits(self, n, even):
        rng = np.random.RandomState(n + 1000 * even)
        if even:
            x = np.linspace(rng.uniform(-3.0, 3.0), rng.uniform(4.0, 40.0), n)
        else:
            x = np.sort(rng.uniform(-5.0, 5.0, n))
        y = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
        model = build_spline(SplineData(x, y))
        lo, hi = float(x[0]), float(x[-1])
        points = x.tolist() + [math.nextafter(lo, hi), math.nextafter(hi, lo)]
        points += rng.uniform(lo, hi, 8).tolist()
        for p in points:
            for f1 in self.F1:
                for f2 in (0.0, -0.0, float(rng.standard_normal())):
                    xd = Dual3(p, f1, f2)
                    want = eval_outcome(dual_chain_eval, model, xd)
                    assert eval_outcome(eval_dual, model, xd) == want

    @pytest.mark.parametrize("knots, values, xd", [
        ([0.0, 1e-3, 2e-3], [0.0, 1e3, 0.0], Dual3(5e-4, 1e300, 0.0)),
        # flat data: only a scalar product's 2.0 * f1 * 0.0 term, inf * 0
        # once f1 passes half the float range, stops these two: in x - k0
        # times 1/h, and (for a short segment) in t * d
        ([0.0, 4.0, 8.0], [1.0, 1.0, 1.0], Dual3(1.0, 1.7e308, 0.0)),
        ([0.0, 0.5, 1.0], [1.0, 1.0, 1.0], Dual3(0.25, 8e307, 0.0)),
    ], ids=["steep", "flat", "flat-short"])
    def test_overflowing_tangent_is_domain_error(self, knots, values, xd):
        model = build_spline(SplineData(knots, values))
        for evaluate in (dual_chain_eval, eval_dual):
            with pytest.raises(DomainError):
                evaluate(model, xd)


def oracle_roots(model):
    """Every zero of the spline's slope: ``np.roots`` of each segment's
    t-slope quadratic ``3d t^2 + 2c t + b``, kept where t is real and in
    [0, 1], mapped to x."""
    knots = model.data.x
    xs = []
    for i in range(len(knots) - 1):
        coeffs = np.trim_zeros(
            [3.0 * model.d[i], 2.0 * model.c[i], model.b[i]], "f")
        for t in np.roots(coeffs):
            if t.imag == 0.0 and 0.0 <= t.real <= 1.0:
                xs.append(knots[i] + t.real * (knots[i + 1] - knots[i]))
    return xs


def slope_scale(model):
    y, x = model.data.y, model.data.x
    return float(np.max(y) - np.min(y)) / float(x[-1] - x[0])


def check_against_oracle(model, x0):
    """The search raises NoExtremumError exactly when the oracle finds no
    zero; otherwise it returns the oracle zero nearest x0, and the slope
    there is small.  Returns whether a zero was found."""
    roots = oracle_roots(model)
    if not roots:
        with pytest.raises(NoExtremumError, match="extremum"):
            find_derivative_root(model, x0)
        return False
    got = find_derivative_root(model, x0)
    want = min(roots, key=lambda r: abs(r - x0))
    knots = model.data.x
    assert knots[0] <= got <= knots[-1]
    assert got == pytest.approx(want, abs=1e-9 * (knots[-1] - knots[0]))
    assert abs(eval_dual(model, variable(got)).f1) <= 1e-9 * slope_scale(model)
    return True


class TestDerivativeRootSearch:
    def test_matches_segment_quadratic_roots(self):
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
                seen.add((jitter, check_against_oracle(model, float(x0))))
        # found and not found, on even and on uneven knots
        assert seen == {(0.0, True), (0.0, False), (0.4, True), (0.4, False)}

    def test_uneven_knot_peaks_are_found(self):
        # Peaked data on gaps within 40% of the mean: the x-slope jumps at
        # every knot, yet the zero must be found from both ends and the
        # middle.
        rng = np.random.RandomState(29)
        for _ in range(40):
            model = jittered_model(rng, int(rng.randint(9, 65)), True, 0.4)
            knots = model.data.x
            for x0 in (knots[0], knots[len(knots) // 2], knots[-1]):
                assert check_against_oracle(model, float(x0))

    def test_nearest_of_several_zeros(self):
        x = np.linspace(0.0, 4.0 * math.pi, 41)
        model = build_spline(SplineData(x, np.sin(x)))
        for x0, want in ((0.0, 0.5), (4.0, 1.5), (12.5, 3.5)):
            assert find_derivative_root(model, x0) == pytest.approx(
                want * math.pi, abs=1e-3)

    def test_zeros_inside_one_segment(self):
        # every knot slope is positive, yet the slope dips below zero and
        # back inside segment 1: a maximum and a minimum there
        model = build_spline(SplineData(np.arange(4.0), [0.0, 1.0, 0.98, 2.0]))
        assert np.all(model.slopes > 0.0)
        found = {find_derivative_root(model, x0) for x0 in (0.0, 3.0)}
        assert len(found) == 2 and all(1.0 < r < 2.0 for r in found)
        for x0 in (0.0, 1.5, 3.0):
            assert check_against_oracle(model, x0)

    def test_zero_at_the_last_knot_stays_in_range(self):
        # the slope 3 (1 - t)^2 of the last segment touches zero at t = 1,
        # where 0.24 + (3.1 - 0.24) rounds to one ulp above 3.1
        model = build_spline(SplineData([-0.76, 0.24, 3.1], [0.0, 5.0, 6.0]))
        assert list(model.slopes) == [6.0, 3.0, 0.0]
        assert 0.24 + (3.1 - 0.24) > 3.1
        assert find_derivative_root(model, 0.0) == 3.1

    def test_huge_data_gives_the_same_root(self):
        # The candidate products overflow to +-inf with their signs kept,
        # silently (warnings are errors in this suite); the roots come
        # from power-of-two scaled coefficients, so a power-of-two scale
        # of the data moves no bit of the result.
        x = np.linspace(0.0, 10.0, 21)
        y = -(x - 4.3) ** 2
        model = build_spline(SplineData(x, y))
        huge = build_spline(SplineData(x, y * 2.0 ** 700))
        for x0 in (0.0, 10.0):
            assert find_derivative_root(huge, x0) == find_derivative_root(
                model, x0)

    def test_zero_slope_at_a_knot(self):
        # symmetric data: the slope vanishes exactly at the middle knot,
        # where both neighbouring segments have their zero
        model = build_spline(SplineData(np.arange(3.0), [0.0, 1.0, 0.0]))
        assert list(model.slopes) == [1.5, 0.0, -1.5]
        for x0 in (0.0, 1.0, 2.0):
            assert find_derivative_root(model, x0) == 1.0


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

    @pytest.mark.parametrize("x0", [0.0, 1.0, 2.0],
                             ids=["left", "middle", "right"])
    def test_monotone_data_has_no_extremum(self, x0):
        x = np.linspace(0.0, 2.0, 11)
        model = build_spline(SplineData(x, np.exp(x)))
        with pytest.raises(NoExtremumError, match="extremum"):
            find_derivative_root(model, x0)

    def test_straight_slope_segment(self):
        # segment 1 has d == 0: its slope b + 2 c t is linear, zero at t = 1/2
        model = build_spline(SplineData(np.arange(4.0), [-3.0, -1.0, -1.0, -3.0]))
        assert model.d[1] == 0.0 and model.c[1] != 0.0
        for x0 in (0.0, 3.0):
            assert find_derivative_root(model, x0) == 1.5

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


def root_outcome(model, x0):
    """The bytes of the extremum found from ``x0``, or the class of the
    numerical error raised."""
    try:
        return struct.pack("<d", find_derivative_root(model, x0))
    except NumericalError as exc:
        return type(exc)


class TestFloatPathMatchesArrayPath:
    """Up to _SWEEP_MAX_KNOTS knots a spline is built and searched on
    plain floats, above it with numpy arrays.  Both internals, run on the
    same data at every size from 2 to 130, give the same bits and errors,
    and pick the same candidate segments in the same order."""

    FAMILIES = ("random", "signed-zeros", "tiny", "huge", "overflow", "dips")

    @staticmethod
    def ordinates(rng, n, family):
        y = rng.uniform(-1.0, 1.0, n)
        if family == "signed-zeros":
            return np.where(rng.rand(n) < 0.8,
                            np.where(rng.rand(n) < 0.5, -0.0, 0.0), y)
        if family == "tiny":
            return y * 1e-300
        if family == "huge":  # the candidate products overflow
            return y * 1e300
        if family == "overflow":
            return np.where(np.arange(n) % 2 == 0, 1e308, -1e308)
        if family == "dips":  # rising, with a dip inside every 2nd segment
            i = np.arange(n)
            return i // 2 + np.where(i % 2 == 1, 1.0, -0.02 * (i > 0))
        return y

    @pytest.fixture
    def any_size(self, monkeypatch):
        """Both paths at every size: the sweep's tables extended by their
        fixed point, and solve_banded (dgtsv, the same bits) for the
        2-row system, which scipy's dgttrs wrapper refuses."""
        from scipy.linalg import solve_banded

        extra = 130 - len(_PIVOTS)
        monkeypatch.setattr(spline, "_PIVOTS", _PIVOTS + _PIVOTS[-1:] * extra)
        monkeypatch.setattr(spline, "_FACTORS",
                            _FACTORS + _FACTORS[-1:] * extra)
        two_rows = np.array([[0.0, 1.0], [2.0, 2.0], [1.0, 0.0]])
        monkeypatch.setattr(spline, "_solve", lambda r: solve_banded(
            (1, 1), two_rows, r, check_finite=False) if r.size == 2
            else _solve(r))

    @staticmethod
    def models(data):
        """The model each path builds, or its ValidationError's message."""
        out = []
        for fill in spline._fill_floats, spline._fill_ndarrays:
            try:
                out.append(spline._model(data, *fill(data._views[1])))
            except ValidationError as exc:
                out.append(str(exc))
        return out

    @pytest.mark.parametrize("n", range(2, 131))
    def test_same_bits_errors_and_candidates(self, any_size, n):
        rng = np.random.RandomState(n)
        if n % 2:
            x = np.arange(n) * 0.75 - 2.0
        else:
            x = random_data(rng, n).x
        for family in self.FAMILIES:
            data = SplineData(x, self.ordinates(rng, n, family))
            floats, arrays = self.models(data)
            if family == "overflow":
                assert floats == arrays == "ordinate differences overflow " \
                                           "a float"
                continue
            for name in ("slopes", "a", "b", "c", "d"):
                got, want = getattr(floats, name), getattr(arrays, name)
                assert got.tobytes() == want.tobytes(), (family, name)
            knots = data.x.tolist()
            points = knots + rng.uniform(knots[0], knots[-1], 5).tolist()
            for p in points:
                xd = Dual3(p, 1.0, -0.5)
                assert eval_outcome(eval_dual, floats, xd) == eval_outcome(
                    eval_dual, arrays, xd), (family, p)
            assert spline._candidates_floats(floats) == \
                spline._candidates_ndarrays(arrays), family
            for x0 in knots[0], knots[n // 2], knots[-1], points[-1]:
                assert root_outcome(floats, x0) == root_outcome(arrays, x0)

    def test_candidates_agree_on_zero_signs(self):
        # Coefficients no data need produce: zeros of either sign, and
        # slopes that touch zero exactly at a turn, as -(1 - 3t)^2 does
        # (b, c, d = -1, 3, -3), where only np.sign's zero tells.
        rng = np.random.RandomState(7)
        values = np.array([-3.0, -1.0, -0.0, 0.0, 1.0, 3.0])
        data = SplineData(np.arange(40.0), np.zeros(40))
        for _ in range(200):
            slopes, c, d = (rng.choice(values, n) for n in (40, 39, 39))
            model = spline._model(data, slopes, c, d)
            assert spline._candidates_floats(model) == \
                spline._candidates_ndarrays(model)


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

    def test_fixture_holds_the_linspace_curve(self):
        # built on floats, it keeps the bits np.linspace gave it
        data = fixtures.radiometry_fixture()
        peak, width = fixtures.radiometry_peak_frequency(), 4e-3
        freq = np.linspace(peak - 0.8 * width, peak + 0.8 * width, 33)
        assert data.x.tobytes() == freq.tobytes()
        assert data.y.tobytes() == (
            1.0 - ((freq - peak) / width) ** 2).tobytes()

    def test_linearity(self):
        base = diffusivity(522e-6, 5.0)
        assert diffusivity(522e-6, 10.0) == pytest.approx(2 * base, rel=1e-15)
        assert diffusivity(2 * 522e-6, 5.0) == pytest.approx(2 * base, rel=1e-15)

    @pytest.mark.parametrize("thickness,freq", [
        (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
        (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
        (1e308, 1e3),  # finite inputs, overflowing result
    ])
    def test_positivity_validation(self, thickness, freq):
        with pytest.raises(ValidationError):
            diffusivity(thickness, freq)
