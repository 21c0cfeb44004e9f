"""Natural cubic spline interpolation with dual evaluation.

Each segment is a cubic ``Y_i(t) = a_i + b_i t + c_i t^2 + d_i t^3`` on
the unit parameter ``t in [0, 1]``; the knot slopes ``D`` (in ``t``)
solve the symmetric tridiagonal system ``T D = R`` with diagonal
``2, 4, ..., 4, 2``, unit off-diagonals, and ``R`` built from scaled
centred differences of the ordinates.  Natural ends mean zero second
derivative (in ``t``) at both ends of the parameterisation.

The system is solved by O(n) banded elimination.  Independently,
:func:`tinv_entry` evaluates each entry of ``T^{-1}`` from a closed form
built on the constants ``alpha = 2 + sqrt(3)`` and its conjugate; the
two routes cross-validate each other in the test suite.

Note on smoothness in ``x``: the construction is C2 in the segment
parameter ``t``.  Mapped to ``x``, second-derivative continuity across
knots holds only for uniformly spaced abscissae; value and first
derivative are continuous for any spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .core import Dual3, variable
from .errors import (
    DivergenceError,
    NoExtremumError,
    OutOfRangeError,
    SingularDerivativeError,
    UnsupportedSizeError,
    ValidationError,
)

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

# Newton steps taken by find_derivative_root.
DERIVATIVE_ROOT_ITERS = 50


@dataclass(frozen=True)
class SplineData:
    """Validated interpolation data: finite, strictly increasing x."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
            raise ValidationError("x and y must be 1-d arrays of equal length")
        if x.size < 2:
            raise ValidationError(f"need at least 2 points, got {x.size}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValidationError("data points must be finite")
        if not np.all(np.diff(x) > 0.0):
            raise ValidationError("x values must be strictly increasing")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return int(self.x.size)


@dataclass(frozen=True)
class SplineModel:
    """Built spline: knot slopes ``D`` plus per-segment cubic coefficients.

    Immutable after construction; concurrent evaluation is safe.
    """

    data: SplineData
    slopes: np.ndarray  # D, length n: knot slopes in the t parameter
    a: np.ndarray       # per-segment coefficients, length n - 1
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("slopes", "a", "b", "c", "d"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def build_spline(data: SplineData) -> SplineModel:
    """Solve the tridiagonal knot-slope system and fill segment coefficients."""
    x, y = data.x, data.y
    n = len(data)

    rhs = np.empty(n)
    rhs[0] = 3.0 * (y[1] - y[0])
    rhs[-1] = 3.0 * (y[-1] - y[-2])
    if n > 2:
        rhs[1:-1] = 3.0 * (y[2:] - y[:-2])

    banded = np.zeros((3, n))
    banded[0, 1:] = 1.0
    banded[1, :] = 4.0
    banded[1, 0] = banded[1, -1] = 2.0
    banded[2, :-1] = 1.0
    slopes = solve_banded((1, 1), banded, rhs)

    dy = y[1:] - y[:-1]
    a = y[:-1].copy()
    b = slopes[:-1].copy()
    c = 3.0 * dy - 2.0 * slopes[:-1] - slopes[1:]
    d = -2.0 * dy + slopes[:-1] + slopes[1:]
    return SplineModel(data=data, slopes=slopes, a=a, b=b, c=c, d=d)


def _segment_index(model: SplineModel, x0: float) -> int:
    knots = model.data.x
    if not (knots[0] <= x0 <= knots[-1]):
        raise OutOfRangeError(
            f"x = {x0} outside data range [{knots[0]}, {knots[-1]}] "
            "(no extrapolation)"
        )
    # Interior knots map to their right-hand segment; the last knot maps
    # to the final segment evaluated at t = 1.
    i = int(np.searchsorted(knots, x0, side="right")) - 1
    return min(max(i, 0), len(model.data) - 2)


def eval_dual(model: SplineModel, x: Dual3) -> Dual3:
    """Evaluate the spline at a dual point; derivatives follow x's seed.

    The segment map ``t = (x - x_i) / (x_{i+1} - x_i)`` is part of the
    dual chain, so the returned components are derivatives with respect
    to whatever seed ``x`` carries.
    """
    i = _segment_index(model, x.f0)
    knots = model.data.x
    h = float(knots[i + 1] - knots[i])
    t = (x - float(knots[i])) * (1.0 / h)
    return ((t * float(model.d[i]) + float(model.c[i])) * t
            + float(model.b[i])) * t + float(model.a[i])


def tinv_entry(n: int, s: int, k: int) -> float:
    """Entry ``(s, k)`` of the inverse of the n-by-n knot-slope matrix.

    Closed form in the constants ``alpha = 2 + sqrt(3)`` and conjugates,
    evaluated through exp/log so no intermediate power overflows; the
    symmetry of the matrix reduces ``s > k`` to the transposed entry.
    Indices are 1-based.
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


def find_derivative_root(model: SplineModel, x0: float) -> float:
    """Newton search for a zero of the spline's first derivative.

    Takes ``DERIVATIVE_ROOT_ITERS`` steps ``x <- x - P'(x)/P''(x)`` on the
    dual components.  Natural ends force ``P'' = 0`` at the exact
    endpoints, so the start point and any clamped restart are pulled half
    an edge segment inside the range.
    A second escape from the data range means no interior extremum.
    """
    knots = model.data.x
    lo, hi = float(knots[0]), float(knots[-1])
    if not (lo <= x0 <= hi):
        raise OutOfRangeError(f"start x = {x0} outside data range [{lo}, {hi}]")
    inner_lo = lo + 0.5 * float(knots[1] - knots[0])
    inner_hi = hi - 0.5 * float(knots[-1] - knots[-2])
    x = min(max(float(x0), inner_lo), inner_hi)

    escapes = 0
    for _ in range(DERIVATIVE_ROOT_ITERS):
        v = eval_dual(model, variable(x))
        if v.f2 == 0.0:
            raise SingularDerivativeError(
                f"second derivative vanished at x = {x}"
            )
        nxt = x - v.f1 / v.f2
        if not math.isfinite(nxt):
            raise DivergenceError(f"non-finite iterate from x = {x}")
        if nxt < lo or nxt > hi:
            escapes += 1
            if escapes >= 2:
                raise NoExtremumError(
                    "derivative root search left the data range twice; "
                    "no interior extremum found"
                )
            nxt = min(max(nxt, inner_lo), inner_hi)
        x = nxt
    return x


def diffusivity(thickness: float, peak_frequency: float) -> float:
    """Thermal diffusivity from sample thickness and the frequency at
    which the amplitude derivative vanishes: ``64 L f1 / (9 pi)``."""
    if not thickness > 0.0:
        raise ValidationError(f"thickness must be > 0, got {thickness}")
    if not peak_frequency > 0.0:
        raise ValidationError(
            f"peak frequency must be > 0, got {peak_frequency}"
        )
    return 64.0 * thickness * peak_frequency / (9.0 * math.pi)
