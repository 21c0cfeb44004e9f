"""Independent verification machinery.

Nothing here shares a code path with the dual arithmetic: derivatives
come from central differences, from polynomial evaluation on a Jordan
block, or from the two-sided theta/phi recurrences for a tridiagonal
inverse.  The test suite plays these against the main modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    NumericalError,
    SingularMatrixError,
    UnsupportedSizeError,
    ValidationError,
)

_EPS = float(np.finfo(float).eps)

MAX_USMANI_SIZE = 200


def central_diff(f: Callable[[float], float], x: float, order: int) -> float:
    """Central finite difference of first or second order at ``x``.

    Step sizes balance truncation against cancellation: ``eps**(1/3)``
    scaled by ``max(1, |x|)`` for order 1 and ``eps**(1/4)`` for order 2.
    """
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


@dataclass(frozen=True)
class Tridiagonal:
    """General tridiagonal matrix: diagonal ``a``, super ``b``, sub ``c``."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        n = a.size
        if n < 1:
            raise ValidationError("matrix must have at least one row")
        if b.size != n - 1 or c.size != n - 1:
            raise ValidationError(
                f"off-diagonals must have length {n - 1}, "
                f"got {b.size} and {c.size}"
            )
        for name, arr in (("a", a), ("b", b), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite entries in {name}")
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return int(self.a.size)

    def dense(self) -> np.ndarray:
        full = np.diag(self.a)
        if self.n > 1:
            full += np.diag(self.b, 1) + np.diag(self.c, -1)
        return full


def usmani_inverse(m: Tridiagonal) -> np.ndarray:
    """Full inverse from the two-sided theta/phi recurrences.

    theta ascends from ``theta_0 = 1, theta_1 = a_1``; phi descends from
    ``phi_{n+1} = 1, phi_n = a_n``; entry ``(i, j)`` is a signed product
    of off-diagonals with ``theta_{i-1} phi_{j+1} / theta_n`` (transposed
    roles below the diagonal).  Deliberately the O(n^2) textbook form:
    this is a verification route, not a solver.
    """
    n = m.n
    if n > MAX_USMANI_SIZE:
        raise UnsupportedSizeError(
            f"usmani_inverse supports n <= {MAX_USMANI_SIZE}, got {n}"
        )
    a, b, c = m.a, m.b, m.c

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
