"""Independent verification machinery.

Nothing here shares a code path with the dual arithmetic: derivatives
come from central differences, from polynomial evaluation on a Jordan
block, from the two-sided theta/phi recurrences for a tridiagonal
inverse, or from the closed-form inverse of the spline's knot-slope
matrix.  The two exceptions, :func:`loop_closure` and
:func:`nr_example1_equation`, each check a straight-line float kernel
against the ``Dual3`` operators whose formulas it writes out.  The test
suite plays these against the main modules.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Dual3, cos, sin
from .errors import NumericalError, ValidationError, check_finite

_EPS = float(np.finfo(float).eps)

MAX_USMANI_SIZE = 200

_SQRT3 = math.sqrt(3.0)
_ALPHA = 2.0 + _SQRT3
_ALPHA_CONJ = 2.0 - _SQRT3
_BETA = 2.0 * _SQRT3 + 3.0
_BETA_CONJ = 2.0 * _SQRT3 - 3.0
_LN_ALPHA = math.log(_ALPHA)
_LN_ALPHA_CONJ = math.log(_ALPHA_CONJ)
_LN_RATIO = _LN_ALPHA_CONJ - _LN_ALPHA

# alpha**n overflows the exp/log evaluation beyond this size.
MAX_CLOSED_FORM_SIZE = 500


class UnsupportedSizeError(ValidationError):
    """Problem size exceeds what an oracle can evaluate safely."""


class SingularMatrixError(NumericalError):
    """Matrix inverse requested for a singular matrix."""


def central_diff(f: "Callable[[float], float]", x: float, order: int) -> float:
    """Central finite difference of first or second order at ``x``.

    Step sizes balance truncation against cancellation: ``eps**(1/3)``
    scaled by ``max(1, |x|)`` for order 1 and ``eps**(1/4)`` for order 2.
    """
    x = check_finite("x", x)
    if order == 1:
        h = _EPS ** (1.0 / 3.0) * max(1.0, abs(x))
        hi, lo = f(x + h), f(x - h)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NumericalError(f"non-finite sample near x = {x}")
        return (hi - lo) / (2.0 * h)
    if order == 2:
        h = _EPS ** (1.0 / 4.0) * max(1.0, abs(x))
        hi, mid, lo = f(x + h), f(x), f(x - h)
        if not (math.isfinite(hi) and math.isfinite(mid) and math.isfinite(lo)):
            raise NumericalError(f"non-finite sample near x = {x}")
        return (hi - 2.0 * mid + lo) / (h * h)
    raise ValidationError(f"order must be 1 or 2, got {order}")


def jordan_poly_derivs(poly_coeffs, x: float, order: int) -> np.ndarray:
    """Polynomial derivatives read off a Jordan-block evaluation.

    Evaluates the polynomial (coefficients constant-term first) at the
    matrix ``X = x I + N`` with ``N`` the unit superdiagonal shift, using
    matrix products only.  Row 0 of the result holds ``f^(k)(x)/k!`` in
    column ``k``; scaling by ``k!`` gives the derivatives.  No derivative
    rule of any kind is used.
    """
    x = check_finite("x", x)
    coeffs = np.asarray(poly_coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValidationError("polynomial coefficients must be a non-empty 1-d list")
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    m = order + 1
    xmat = x * np.eye(m) + np.eye(m, k=1)
    acc = np.zeros((m, m))
    for coef in coeffs[::-1]:
        acc = acc @ xmat + coef * np.eye(m)
    return np.array([acc[0, k] * math.factorial(k) for k in range(m)])


def usmani_inverse(a, b, c) -> np.ndarray:
    """Inverse of the tridiagonal matrix with diagonal ``a``, superdiagonal
    ``b`` and subdiagonal ``c``, from the two-sided theta/phi recurrences.

    theta ascends from ``theta_0 = 1, theta_1 = a_1``; phi descends from
    ``phi_{n+1} = 1, phi_n = a_n``; entry ``(i, j)`` is a signed product
    of off-diagonals with ``theta_{i-1} phi_{j+1} / theta_n`` (transposed
    roles below the diagonal).  Deliberately the O(n^2) textbook form:
    this is a verification route, not a solver.
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    n = a.size
    if n < 1:
        raise ValidationError("matrix must have at least one row")
    if b.size != n - 1 or c.size != n - 1:
        raise ValidationError(f"off-diagonals must have length {n - 1}, "
                              f"got {b.size} and {c.size}")
    if not all(np.isfinite(v).all() for v in (a, b, c)):
        raise ValidationError("matrix entries must be finite")
    if n > MAX_USMANI_SIZE:
        raise UnsupportedSizeError(
            f"usmani_inverse supports n <= {MAX_USMANI_SIZE}, got {n}"
        )

    theta = np.empty(n + 1)
    phi = np.empty(n + 2)
    # overflow surfaces as a NumericalError below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        theta[0] = 1.0
        theta[1] = a[0]
        for i in range(2, n + 1):
            theta[i] = (a[i - 1] * theta[i - 1]
                        - b[i - 2] * c[i - 2] * theta[i - 2])
        phi[n + 1] = 1.0
        phi[n] = a[n - 1]
        for i in range(n - 1, 0, -1):
            phi[i] = a[i - 1] * phi[i + 1] - b[i - 1] * c[i - 1] * phi[i + 2]
    # phi[0] is never written: phi runs from index 1
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi[1:]))):
        raise NumericalError("theta/phi recurrences overflowed")
    if theta[n] == 0.0:
        raise SingularMatrixError("matrix is singular (theta_n = 0)")

    inv = np.empty((n, n))
    for i in range(1, n + 1):
        prod = 1.0
        for j in range(i, n + 1):
            if j > i:
                prod *= b[j - 2]
            sign = 1.0 if (i + j) % 2 == 0 else -1.0
            inv[i - 1, j - 1] = sign * prod * theta[i - 1] * phi[j + 1] / theta[n]
        prod = 1.0
        for j in range(i - 1, 0, -1):
            prod *= c[j - 1]
            sign = 1.0 if (i + j) % 2 == 0 else -1.0
            inv[i - 1, j - 1] = sign * prod * theta[j - 1] * phi[i + 1] / theta[n]
    return inv


def tinv_entry(n: int, s: int, k: int) -> float:
    """Entry ``(s, k)`` of the inverse of the n-by-n knot-slope matrix.

    The matrix is the spline's ``T``: diagonal ``2, 4, ..., 4, 2`` and unit
    off-diagonals.  Closed form in the constants ``alpha = 2 + sqrt(3)``
    and conjugates, evaluated through exp/log so no intermediate power
    overflows; the symmetry of the matrix reduces ``s > k`` to the
    transposed entry.  Indices are 1-based.
    """
    if n < 2:
        raise ValidationError(f"matrix size must be >= 2, got {n}")
    if n > MAX_CLOSED_FORM_SIZE:
        raise UnsupportedSizeError(
            f"closed-form inverse supports n <= {MAX_CLOSED_FORM_SIZE}, got {n}"
        )
    if not (1 <= s <= n and 1 <= k <= n):
        raise ValidationError(f"indices ({s}, {k}) out of range for n = {n}")
    if s > k:
        s, k = k, s
    sign = 1.0 if (s + k) % 2 == 0 else -1.0
    lead = 0.5 * (1.0 + math.exp((s - 1) * _LN_RATIO))
    denom = _BETA_CONJ - math.exp(n * _LN_RATIO) * _BETA
    bracket = (
        _ALPHA * math.exp((k + 1) * _LN_ALPHA_CONJ + (s - 1) * _LN_ALPHA)
        + _ALPHA_CONJ * math.exp((s + k) * _LN_ALPHA + n * _LN_RATIO)
    )
    return sign * lead * bracket / denom


def loop_closure(params, phi: Dual3, theta: Dual3) -> Dual3:
    """The RRRCR loop-closure residual of ``params``, a
    :class:`~dualnum.rootfind.MechanismParams`, in ``Dual3`` operators.

    ``MechanismParams.loop_closure`` runs these operators' expressions on
    floats; this form is the oracle it matches bit for bit.
    """
    L, ell, a, R = params.L, params.l, params.a, params.R
    s1, s2, c1, c2 = params.s1, params.s2, params.c1, params.c2
    be = params.b - params.e
    sth, cth = sin(theta), cos(theta)
    sph, cph = sin(phi), cos(phi)
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


def nr_example1_equation(u: Dual3, x: Dual3) -> Dual3:
    """f(u, x) = cos(u x) - u^3 + x + sin(u^2 x) in ``Dual3`` operators.

    ``fixtures.nr_example1_equation`` runs this expression on floats;
    this form is the oracle it matches bit for bit.
    """
    return cos(u * x) - u ** 3 + x + sin(u * u * x)
