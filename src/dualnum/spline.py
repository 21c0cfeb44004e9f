"""Natural cubic spline interpolation with dual evaluation.

Each segment is a cubic ``Y_i(t) = a_i + b_i t + c_i t^2 + d_i t^3`` on
the unit parameter ``t in [0, 1]``; the knot slopes ``D`` (in ``t``)
solve the symmetric tridiagonal system ``T D = R`` with diagonal
``2, 4, ..., 4, 2``, unit off-diagonals, and ``R`` built from scaled
centred differences of the ordinates.  Natural ends mean zero second
derivative (in ``t``) at both ends of the parameterisation.

Up to ``_SWEEP_MAX_KNOTS`` knots it is solved by an O(n) Thomas sweep on
plain floats in the operation order of LAPACK ``dgtsv`` (Anderson et al.,
*LAPACK Users' Guide*, 3rd ed., SIAM 1999), which never interchanges rows
on this ``T``.  Where ``dgtsv`` is compiled without fused multiply-add
contraction, as in x86-64 OpenBLAS builds, the slopes equal those of
``scipy.linalg.solve_banded`` (which calls ``dgtsv``) bit for bit; the
sweep itself rounds the same on every platform.  Larger systems go to
``solve_banded``, imported only then.  ``import dualnum`` loads neither
this module nor numpy: the package imports it on first use of one of
its names, so numpy loads with the first spline and scipy with the
first spline above the cutoff.
:func:`dualnum.reference.tinv_entry` gives ``T^{-1}`` in closed form as an
independent check.

Smoothness in ``x``: the construction is C2 in the segment parameter
``t``.  Mapped to ``x`` it is C0 for any spacing.  The x-slope at knot
``i`` is ``D_i / h`` with ``h`` the width of the segment it is read
from, so on unevenly spaced knots it jumps at the knot but keeps its
sign.  C1 and C2 in ``x`` hold for uniformly spaced knots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dual3, _mk
from .errors import (
    NoExtremumError,
    OutOfRangeError,
    SingularDerivativeError,
    ValidationError,
    check_finite,
)


@dataclass(frozen=True)
class SplineData:
    """Validated interpolation data: finite, strictly increasing x."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # Copies: a view would alias the caller's buffer, which could
        # then be edited past the checks below or set read-only.
        try:
            x, y = (np.array(v) for v in (self.x, self.y))
            for a in x, y:  # with dtype=float, numpy would parse "2"
                if a.dtype.kind in "SUc" or a.dtype.kind == "O" and any(
                        isinstance(e, (str, bytes)) for e in a.flat):
                    raise TypeError("got a str, bytes or complex element")
            x, y = x.astype(float, copy=False), y.astype(float, copy=False)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(
                f"data points must be real numbers: {exc}") from None
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
            raise ValidationError("x and y must be 1-d arrays of equal length")
        if x.size < 2:
            raise ValidationError(f"need at least 2 points, got {x.size}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValidationError("data points must be finite")
        if not np.all(x[1:] > x[:-1]):
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


# Largest system for the interpreted sweep: timing all of build_spline
# both ways (2-vCPU x86-64, CPython 3.11, scipy 1.17; three runs of 21
# alternating repeats per size), the sweep was faster up to 88 knots,
# even with solve_banded at 96 and slower from 104.
_SWEEP_MAX_KNOTS = 96


def _sweep(r: list) -> list:
    """Solve ``T D = r`` in place, in ``dgtsv``'s operation order.

    Every pivot exceeds the unit subdiagonal, so ``dgtsv`` interchanges no
    rows and each step here rounds exactly as LAPACK's does.
    """
    n = len(r)
    p = [2.0] + [4.0] * (n - 2) + [2.0]
    for i in range(n - 1):
        f = 1.0 / p[i]
        p[i + 1] -= f
        r[i + 1] -= f * r[i]
    r[-1] /= p[-1]
    r[-2] = (r[-2] - r[-1]) / p[-2]
    # dgtsv still multiplies r[i + 2] by its zeroed second superdiagonal
    # DL(i); the term decides the sign of a zero result, so it stays.
    for i in range(n - 3, -1, -1):
        r[i] = (r[i] - r[i + 1] - 0.0 * r[i + 2]) / p[i]
    return r


def build_spline(data: SplineData) -> SplineModel:
    """Solve the tridiagonal knot-slope system and fill segment coefficients."""
    y = data.y
    n = len(data)

    # An overflow or inf - inf anywhere in the build reaches c or d, and
    # the one finite check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.empty(n)
        rhs[0] = 3.0 * (y[1] - y[0])
        rhs[-1] = 3.0 * (y[-1] - y[-2])
        if n > 2:
            rhs[1:-1] = 3.0 * (y[2:] - y[:-2])

        if n <= _SWEEP_MAX_KNOTS:
            slopes = np.array(_sweep(rhs.tolist()))
        else:
            from scipy.linalg import solve_banded

            banded = np.zeros((3, n))
            banded[0, 1:] = 1.0
            banded[1, :] = 4.0
            banded[1, 0] = banded[1, -1] = 2.0
            banded[2, :-1] = 1.0
            # The matrix is finite and a bad rhs shows in c and d below:
            # skip scipy's scan.
            slopes = solve_banded((1, 1), banded, rhs, check_finite=False)

        # c = 3 dy - 2 D_i - D_{i+1} and d = -2 dy + D_i + D_{i+1}, in
        # place and in that order: the same roundings, fewer temporaries.
        d = y[1:] - y[:-1]
        c = 3.0 * d
        c -= 2.0 * slopes[:-1]
        c -= slopes[1:]
        d *= -2.0
        d += slopes[:-1]
        d += slopes[1:]
    if not (np.isfinite(c).all() and np.isfinite(d).all()):
        raise ValidationError("ordinate differences overflow a float")
    # Views suffice: y is SplineData's own read-only copy, and SplineModel
    # makes slopes read-only.
    a = y[:-1]
    b = slopes[:-1]
    return SplineModel(data=data, slopes=slopes, a=a, b=b, c=c, d=d)


def _segment_index(knots: np.ndarray, x0: float) -> int:
    # .item() reads plain floats: numpy-scalar reads cost more than the
    # comparisons and arithmetic they feed.
    lo, hi = knots.item(0), knots.item(-1)
    if not (lo <= x0 <= hi):
        raise OutOfRangeError(
            f"x = {x0} outside data range [{lo}, {hi}] (no extrapolation)"
        )
    # Interior knots map to their right-hand segment; the last knot maps
    # to the final segment evaluated at t = 1.
    i = int(knots.searchsorted(x0, side="right")) - 1
    return min(max(i, 0), knots.size - 2)


def eval_dual(model: SplineModel, x: Dual3) -> Dual3:
    """Evaluate the spline at a dual point; derivatives follow x's seed.

    The segment map ``t = (x - x_i) / (x_{i+1} - x_i)`` is part of the
    dual chain, so the returned components are derivatives with respect
    to whatever seed ``x`` carries.  The chain, ``t = (x - x_i) * (1/h)``
    then ``((t d + c) t + b) t + a``, is evaluated on floats in the
    ``Dual3`` operators' own expressions and order, so the bits are
    theirs.  An inf or NaN on the way reaches a final component (only
    ``+ - *`` by finite scalars follow), where the one ``_mk`` raises
    ``DomainError`` as the operators would.
    """
    knots = model.data.x
    x0, x1 = x.f0, x.f1
    i = _segment_index(knots, x0)
    k0 = knots.item(i)
    r = 1.0 / (knots.item(i + 1) - k0)
    # Terms left out: x - k0 subtracts 0.0 from x1 and x2, which keeps
    # them.  s0 = x0 - k0 is >= +0.0 (the segment starts at or left of
    # x0) and so is t0 = s0 * r, so s0 * 0.0 and t0 * 0.0 are +0.0, or t0
    # is inf or NaN already.  + c adds 0.0 to p1 and p2, which end in
    # + 0.0, so are never -0.0 and stay as they are.
    t0 = (x0 - k0) * r
    t1 = x1 * r + 0.0
    t2 = x.f2 * r + 2.0 * x1 * 0.0 + 0.0
    d = model.d.item(i)
    p0 = t0 * d + model.c.item(i)
    p1 = t1 * d + 0.0
    p2 = t2 * d + 2.0 * t1 * 0.0 + 0.0
    u0 = p0 * t0 + model.b.item(i)
    u1 = p1 * t0 + p0 * t1 + 0.0
    u2 = p2 * t0 + 2.0 * p1 * t1 + p0 * t2 + 0.0
    return _mk(u0 * t0 + model.a.item(i), u1 * t0 + u0 * t1 + 0.0,
               u2 * t0 + 2.0 * u1 * t1 + u0 * t2 + 0.0)


def find_derivative_root(model: SplineModel, x0: float) -> float:
    """The zero of the spline's first derivative nearest ``x0``.

    On segment ``i`` the t-slope is the quadratic ``b + 2 c t + 3 d t^2``.
    It has a zero in ``[0, 1]`` where the knot slopes at the segment's ends
    differ in sign or one is zero, or where it turns inside the segment
    (``c (c + 3 d) < 0``) and its value at the turn differs in sign from
    ``b`` or is zero.  The roots of each such quadratic come from the
    cancellation-free formula (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., section 1.8); of those with ``t`` in
    ``[0, 1]`` the one nearest ``x0`` is returned.
    """
    x0 = check_finite("x0", x0)
    knots = model.data.x
    lo, hi = knots.item(0), knots.item(-1)
    if not (lo <= x0 <= hi):
        raise OutOfRangeError(f"start x = {x0} outside data range [{lo}, {hi}]")
    slopes, b, c, d = model.slopes, model.b, model.c, model.d
    # Above about 1e154 the products below overflow to +-inf.  The masks
    # read only signs, which survive, so numpy's overflow warning is noise.
    with np.errstate(over="ignore"):
        crosses = np.flatnonzero(slopes[:-1] * slopes[1:] <= 0.0)
        # On nearly straight stretches rounding makes c (c + 3 d) < 0 hold
        # on most segments; keep only the turns where the slope reaches
        # zero.  The turn is at t = -c / (3 d) in (0, 1), so d is not zero
        # there.
        turns = np.flatnonzero(c * (c + 3.0 * d) < 0.0)
        bt, ct = b[turns], c[turns]
        at_turn = bt - ct * (ct / (3.0 * d[turns]))
    turns = turns[np.sign(at_turn) != np.sign(bt)]
    best, best_gap = None, math.inf
    for i in crosses.tolist() + turns.tolist():
        bi, ci, di = b.item(i), c.item(i), d.item(i)
        if bi == ci == di == 0.0:
            raise SingularDerivativeError(
                f"spline slope vanishes on all of segment {i}")
        # A power-of-two scale keeps c^2 - 3db finite and moves no root.
        e = math.frexp(max(abs(bi), abs(ci), abs(di)))[1]
        bi, ci, di = math.ldexp(bi, -e), math.ldexp(ci, -e), math.ldexp(di, -e)
        # roots of 3d t^2 + 2c t + b, with q = -(c + sign(c) sqrt(c^2 - 3db))
        if di != 0.0:
            disc = ci * ci - 3.0 * di * bi
            if disc < 0.0:
                continue
            q = -(ci + math.copysign(math.sqrt(disc), ci))
            roots = (q / (3.0 * di), bi / q) if q != 0.0 else (0.0,)
        elif ci != 0.0:
            roots = (-0.5 * bi / ci,)
        else:
            continue
        k0, k1 = knots.item(i), knots.item(i + 1)
        for t in roots:
            if 0.0 <= t <= 1.0:
                x = min(k0 + t * (k1 - k0), k1)
                if abs(x - x0) < best_gap:
                    best, best_gap = x, abs(x - x0)
    if best is None:
        raise NoExtremumError("spline slope has no zero in the data range; "
                              "no interior extremum found")
    return best


def diffusivity(thickness: float, peak_frequency: float) -> float:
    """Thermal diffusivity from sample thickness and the frequency at
    which the amplitude derivative vanishes: ``64 L f1 / (9 pi)``."""
    thickness = check_finite("thickness", thickness)
    peak_frequency = check_finite("peak frequency", peak_frequency)
    alpha = 64.0 * thickness * peak_frequency / (9.0 * math.pi)
    if not (thickness > 0.0 and peak_frequency > 0.0 and alpha < math.inf):
        raise ValidationError(
            "thickness and peak frequency must be > 0 and give a finite "
            f"diffusivity; got {thickness} and {peak_frequency}"
        )
    return alpha
