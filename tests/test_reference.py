import math

import numpy as np
import pytest

from dualnum import ValidationError, variable
from dualnum import reference
from dualnum.reference import (
    MAX_USMANI_SIZE,
    SingularMatrixError,
    UnsupportedSizeError,
    central_diff,
    jordan_poly_derivs,
    usmani_inverse,
)


class TestCentralDiff:
    def test_sin_first_derivative_at_zero(self):
        assert central_diff(math.sin, 0.0, 1) == pytest.approx(1.0, abs=1e-10)

    def test_exp_second_derivative_at_one(self):
        assert central_diff(math.exp, 1.0, 2) == pytest.approx(math.e, abs=1e-6)

    @pytest.mark.parametrize("order", [1, 2])
    def test_constant_function(self, order):
        assert central_diff(lambda x: 4.2, 3.3, order) == pytest.approx(
            0.0, abs=1e-10)

    def test_order_validation(self):
        with pytest.raises(ValidationError):
            central_diff(math.sin, 0.0, 3)

    def test_non_finite_samples(self):
        from dualnum import NumericalError
        with pytest.raises(NumericalError):
            central_diff(lambda x: float("inf"), 0.0, 1)


@pytest.mark.parametrize("oracle", [
    lambda x: central_diff(math.sin, x, 1),
    lambda x: central_diff(math.sin, x, 2),
    lambda x: jordan_poly_derivs([1, 2], x, 2),
], ids=["central_diff-1", "central_diff-2", "jordan_poly_derivs"])
@pytest.mark.parametrize("x", [float("nan"), math.inf, 10 ** 400, "2"],
                         ids=["nan", "inf", "10**400", "str"])
def test_oracle_point_must_be_finite(oracle, x):
    with pytest.raises(ValidationError,
                       match="x must be (finite|a real number)"):
        oracle(x)


class TestJordanPolyDerivs:
    def test_cube_at_two(self):
        got = jordan_poly_derivs([0.0, 0.0, 0.0, 1.0], 2.0, 2)
        assert np.array_equal(got, [8.0, 12.0, 12.0])

    def test_constant_polynomial(self):
        got = jordan_poly_derivs([5.0], 1.7, 2)
        assert np.array_equal(got, [5.0, 0.0, 0.0])

    def test_monomials_match_dual_route_exactly(self):
        for k in range(9):
            coeffs = [0.0] * k + [1.0]
            for x in (-3, -1, 0, 1, 2, 3):
                got = jordan_poly_derivs(coeffs, float(x), 2)
                d = variable(float(x)) ** k if k > 0 else None
                if k == 0:
                    want = (1.0, 0.0, 0.0)
                else:
                    want = (d.f0, d.f1, d.f2)
                assert tuple(got) == want

    def test_random_polynomials_match_dual_route(self):
        rng = np.random.RandomState(19)
        for _ in range(30):
            degree = int(rng.randint(1, 7))
            coeffs = rng.uniform(-3.0, 3.0, degree + 1)
            x = float(rng.uniform(-2.0, 2.0))
            got = jordan_poly_derivs(coeffs, x, 2)

            xd = variable(x)
            acc = xd * 0.0
            for c in coeffs[::-1]:
                acc = acc * xd + float(c)
            want = np.array([acc.f0, acc.f1, acc.f2])
            scale = np.maximum(1.0, np.abs(want))
            assert np.max(np.abs(got - want) / scale) <= 1e-12

    def test_higher_order(self):
        got = jordan_poly_derivs([0.0, 0.0, 0.0, 0.0, 1.0], 1.0, 4)
        assert np.allclose(got, [1.0, 4.0, 12.0, 24.0, 24.0], atol=1e-12)

    def test_empty_coefficients(self):
        with pytest.raises(ValidationError):
            jordan_poly_derivs([], 1.0, 2)


def dense(a, b, c):
    """The tridiagonal matrix with diagonal a, superdiagonal b and
    subdiagonal c."""
    return np.diag(a) + np.diag(b, 1) + np.diag(c, -1)


class TestUsmaniInverse:
    def test_hand_inverted_two_by_two(self):
        got = usmani_inverse(np.array([2.0, 2.0]), np.array([1.0]),
                             np.array([1.0]))
        want = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert np.allclose(got, want, atol=1e-14)

    def test_identity(self):
        assert np.array_equal(
            usmani_inverse(np.ones(6), np.zeros(5), np.zeros(5)), np.eye(6))

    def test_random_diagonally_dominant_residual(self):
        rng = np.random.RandomState(23)
        for _ in range(10):
            n = 10
            b = rng.uniform(-1.0, 1.0, n - 1)
            c = rng.uniform(-1.0, 1.0, n - 1)
            a = 3.0 + rng.uniform(0.0, 1.0, n)
            inv = usmani_inverse(a, b, c)
            assert np.max(np.abs(dense(a, b, c) @ inv - np.eye(n))) <= 1e-9

    def test_asymmetric_matrix(self):
        a = np.array([4.0, 5.0, 6.0])
        b, c = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        assert np.allclose(usmani_inverse(a, b, c),
                           np.linalg.inv(dense(a, b, c)), atol=1e-12)

    def test_singular_matrix(self):
        # rows sum to the same multiple of an eigenvector: det = 0
        with pytest.raises(SingularMatrixError):
            usmani_inverse(np.array([1.0, 1.0]), np.array([1.0]),
                           np.array([1.0]))

    def test_every_size_ignores_uninitialised_scratch(self, monkeypatch):
        # scratch arrays start as NaN, so a read of an unwritten slot
        # fails on every run, whatever the allocator hands back
        rng = np.random.RandomState(29)
        for n in range(1, MAX_USMANI_SIZE + 1):
            a = 4.0 + rng.uniform(0.0, 1.0, n)
            b = rng.uniform(-1.0, 1.0, n - 1)
            c = rng.uniform(-1.0, 1.0, n - 1)
            want = np.linalg.inv(dense(a, b, c))
            with monkeypatch.context() as m:
                m.setattr(reference.np, "empty",
                          lambda shape: np.full(shape, np.nan))
                got = usmani_inverse(a, b, c)
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-12, n

    def test_size_cap(self):
        with pytest.raises(UnsupportedSizeError):
            usmani_inverse(np.ones(201), np.zeros(200), np.zeros(200))

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            usmani_inverse(np.ones(3), np.ones(3), np.ones(2))

    @pytest.mark.parametrize("which", range(3))
    def test_non_finite_entry(self, which):
        arrays = [np.ones(3), np.zeros(2), np.zeros(2)]
        arrays[which][1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            usmani_inverse(*arrays)
