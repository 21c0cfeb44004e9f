"""Natural cubic spline interpolation with dual evaluation.

Each segment is a cubic ``Y_i(t) = a_i + b_i t + c_i t^2 + d_i t^3`` on
the unit parameter ``t in [0, 1]``; the knot slopes ``D`` (in ``t``)
solve the symmetric tridiagonal system ``T D = R`` with diagonal
``2, 4, ..., 4, 2``, unit off-diagonals, and ``R`` built from scaled
centred differences of the ordinates.  Natural ends mean zero second
derivative (in ``t``) at both ends of the parameterisation.

``T`` is the same for every curve, and so is its LU factorisation:
LAPACK ``dgttrf`` (Anderson et al., *LAPACK Users' Guide*, 3rd ed.,
SIAM 1999) interchanges no rows on it, and its pivots ``p_0 = 2``,
``p_{i+1} = 4 - 1/p_i`` reach their fixed point ``2 + sqrt(3)`` at index
15.  ``_PIVOTS`` holds them, computed once at import.  Up to
``_SWEEP_MAX_KNOTS`` knots an O(n) sweep on plain floats applies them in
the operation order of ``dgttrs``, which is also that of ``dgtsv``;
larger systems are filled from the table and passed to one ``dgttrs``
call, with scipy imported only then.  Where LAPACK is compiled without
fused multiply-add contraction, as in x86-64 OpenBLAS builds, both
paths give the slopes of ``scipy.linalg.solve_banded`` (which calls
``dgtsv``) bit for bit; the sweep itself rounds the same on every
platform.  ``import dualnum`` loads neither this module nor numpy: the
package imports it on first use of one of its names, so numpy loads
with the first spline and scipy with the first spline above the cutoff.
Evaluation reads knots and coefficients through memoryviews, which
return plain floats, and finds the segment with ``bisect``.
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
from bisect import bisect_right
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


# numpy kinds that hold plain numbers: bool, signed, unsigned, float.
# Dates and durations would convert as counts of days or seconds.
_REAL_KINDS = "biuf"


def _not_real(e) -> bool:
    """An object-array element that ``float()`` converts but that is no
    real number: text, or a numpy scalar of another kind."""
    return isinstance(e, (str, bytes)) or (
        isinstance(e, np.generic) and e.dtype.kind not in _REAL_KINDS)


@dataclass(frozen=True, eq=False)
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
                if a.dtype.kind not in _REAL_KINDS + "O" or (
                        a.dtype.kind == "O" and any(map(_not_real, a.flat))):
                    raise TypeError(f"got {a.dtype} data")
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

    def __reduce__(self):
        # Rebuilt through the checks: a copied array comes back writable.
        return (SplineData, (self.x, self.y))


@dataclass(frozen=True, eq=False, init=False)
class SplineModel:
    """Built spline: knot slopes ``D`` plus per-segment cubic coefficients.

    Made only by :func:`build_spline`, from its data; a copy or pickle
    runs that build again.  Immutable; concurrent evaluation is safe.
    """

    data: SplineData
    slopes: np.ndarray  # D, length n: knot slopes in the t parameter
    a: np.ndarray       # per-segment coefficients, length n - 1
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __new__(cls, *args, **kwargs):
        raise TypeError("a SplineModel is made only by build_spline(data)")

    def __reduce__(self):
        return (build_spline, (self.data,))


# Largest system for the interpreted sweep.  Timing all of build_spline
# both ways (2-vCPU x86-64, CPython 3.11, scipy 1.17; two runs of 21
# alternating repeats per size), the sweep was faster up to 32 knots, even
# at 40 and 1.3-1.4x slower at 96, 10-20 us a build.  The cutoff stays
# at 96 since the dgttrs path imports scipy, which costs a fresh process
# about 0.3 s: the time saved by 15 000 or more such builds.
_SWEEP_MAX_KNOTS = 96


# dgttrf's factors of T without the last row, whose pivot is 2 - 1/p_{n-2}:
# pivots p_i (U's diagonal) and multipliers 1/p_i (L's subdiagonal).  The
# pivots stop changing at index 15, so the last entry stands for every
# later row as well.
_PIVOTS = (2.0,)
while len(_PIVOTS) < _SWEEP_MAX_KNOTS - 1:
    _PIVOTS += (4.0 - 1.0 / _PIVOTS[-1],)
_FACTORS = tuple(1.0 / p for p in _PIVOTS)


def _sweep(r: list) -> list:
    """Solve ``T D = r`` in place, in ``dgttrs``'s operation order.

    Every pivot exceeds the unit subdiagonal, so LAPACK interchanges no
    rows, and each step here rounds exactly as LAPACK's does.
    """
    n = len(r)
    for i in range(n - 1):
        r[i + 1] -= _FACTORS[i] * r[i]
    r[-1] /= 2.0 - _FACTORS[n - 2]
    r[-2] = (r[-2] - r[-1]) / _PIVOTS[n - 2]
    # LAPACK still multiplies r[i + 2] by the zero second superdiagonal
    # DU2(i); the term decides the sign of a zero result, so it stays.
    for i in range(n - 3, -1, -1):
        r[i] = (r[i] - r[i + 1] - 0.0 * r[i + 2]) / _PIVOTS[i]
    return r


def _solve(r: np.ndarray) -> np.ndarray:
    """Solve ``T D = r``: by ``_sweep`` up to ``_SWEEP_MAX_KNOTS`` rows,
    else by one ``dgttrs`` call, which may overwrite ``r``."""
    n = r.size
    if n <= _SWEEP_MAX_KNOTS:
        return np.array(_sweep(r.tolist()))
    from scipy.linalg.lapack import dgttrs

    # T's factors: pivots from the table, their reciprocals below them,
    # the unit superdiagonal above, no row interchanges.  They are finite,
    # so a non-finite r can only show in the result.
    d = np.full(n, _PIVOTS[-1])
    d[:len(_PIVOTS)] = _PIVOTS
    dl = 1.0 / d[:-1]
    d[-1] = 2.0 - dl[-1]
    x, _ = dgttrs(dl, d, np.ones(n - 1), np.zeros(n - 2),
                  np.arange(1, n + 1, dtype=np.intc), r, overwrite_b=True)
    return x


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

        slopes = _solve(rhs)

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
    for arr in slopes, c, d:
        arr.setflags(write=False)
    a, b = y[:-1], slopes[:-1]  # read-only views: y is SplineData's
    # Filled as _mk fills a Dual3.  Indexing a memoryview gives a plain
    # float, indexing an ndarray a numpy scalar that costs more than the
    # arithmetic it feeds; _views is no field, so repr leaves it out.
    model = object.__new__(SplineModel)
    model.__dict__.update(data=data, slopes=slopes, a=a, b=b, c=c, d=d,
                          _views=tuple(map(memoryview, (data.x, a, b, c, d))))
    return model


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
    knots, a, b, c, d = model._views
    x0, x1 = x.f0, x.f1
    lo, hi = knots[0], knots[-1]
    if not (lo <= x0 <= hi):
        raise OutOfRangeError(
            f"x = {x0} outside data range [{lo}, {hi}] (no extrapolation)"
        )
    # Interior knots map to their right-hand segment; the last knot maps
    # to the final segment evaluated at t = 1.  Searching only the inner
    # knots clamps i to 0 .. n - 2.
    i = bisect_right(knots, x0, 1, len(knots) - 1) - 1
    k0 = knots[i]
    r = 1.0 / (knots[i + 1] - k0)
    # Terms left out: x - k0 subtracts 0.0 from x1 and x2, which keeps
    # them.  s0 = x0 - k0 is >= +0.0 (the segment starts at or left of
    # x0) and so is t0 = s0 * r, so s0 * 0.0 and t0 * 0.0 are +0.0, or t0
    # is inf or NaN already.  + c adds 0.0 to p1 and p2, which end in
    # + 0.0, so are never -0.0 and stay as they are.
    t0 = (x0 - k0) * r
    t1 = x1 * r + 0.0
    t2 = x.f2 * r + 2.0 * x1 * 0.0 + 0.0
    di = d[i]
    p0 = t0 * di + c[i]
    p1 = t1 * di + 0.0
    p2 = t2 * di + 2.0 * t1 * 0.0 + 0.0
    u0 = p0 * t0 + b[i]
    u1 = p1 * t0 + p0 * t1 + 0.0
    u2 = p2 * t0 + 2.0 * p1 * t1 + p0 * t2 + 0.0
    return _mk(u0 * t0 + a[i], u1 * t0 + u0 * t1 + 0.0,
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
    knots, _, bv, cv, dv = model._views
    lo, hi = knots[0], knots[-1]
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
        bi, ci, di = bv[i], cv[i], dv[i]
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
        k0, k1 = knots[i], knots[i + 1]
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
