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
15.  ``_PIVOTS`` holds them, computed once at import.

Up to ``_SWEEP_MAX_KNOTS`` knots the whole spline runs on plain floats:
:class:`SplineData` checks its input in Python and keeps ``array('d')``
copies, :func:`build_spline` applies the pivots in an O(n) sweep in the
operation order of ``dgttrs``, which is also that of ``dgtsv``, and
:func:`find_derivative_root` picks its candidate segments in a loop.
Larger curves take the same steps as numpy array operations and one
``dgttrs`` call; every operation is the float path's, in its order, so
the cutoff moves no bit.  Where LAPACK is compiled without fused
multiply-add contraction, as in x86-64 OpenBLAS builds, both paths give
the slopes of ``scipy.linalg.solve_banded`` (which calls ``dgtsv``) bit
for bit; the sweep itself rounds the same on every platform.

Both paths keep one thing: read-only float64 buffers, which evaluation
and the search index through memoryviews that return plain floats.
``data.x``, ``data.y`` and the model's ``slopes`` and ``a`` ... ``d`` are
read-only float64 ndarrays over those buffers, made on first access.
``import dualnum`` loads neither this module nor numpy; numpy loads with
the first spline above the cutoff or the first ndarray attribute read,
and scipy with the first build above the cutoff.
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
from array import array
from bisect import bisect_right
from operator import lt, mul, sub

from .core import Dual3, _mk
from .errors import (
    NoExtremumError,
    OutOfRangeError,
    SingularDerivativeError,
    ValidationError,
    _Record,
    check_finite,
)


# Largest curve checked, built and searched on plain floats.  Timing all
# of build_spline with the solve alone switched (2-vCPU x86-64, CPython
# 3.11, scipy 1.17; two runs of 21 alternating repeats per size), the
# sweep was faster up to 32 knots, even at 40 and 1.3-1.4x slower at 96,
# 10-20 us a build.  SplineData plus build_spline on floats took 16 us
# against numpy's 33 at 9 knots, 44 against 44 at 64 and 65 against 48
# at 96 (same host, one pinned CPU, min of 21).  The cutoff stays at 96
# since the other path imports numpy and scipy, which cost a fresh
# process about 0.07 s and 0.3 s: the time of thousands of builds.
_SWEEP_MAX_KNOTS = 96

# numpy kinds that hold plain numbers: bool, signed, unsigned, float.
# Dates and durations would convert as counts of days or seconds.
_REAL_KINDS = "biuf"

# Containers and element types that array('d') converts as numpy's
# float conversion does: one correctly rounded float per element.
_FLAT = (list, tuple, range, array)
_PLAIN = {float, int, bool}

_OVERFLOW = "ordinate differences overflow a float"


def _to_floats(v):
    """A new float64 buffer holding ``v``: an ``array('d')`` for a flat
    list, tuple, range or array of at most ``_SWEEP_MAX_KNOTS`` ints,
    floats and bools, else an ndarray by numpy's conversion, whose
    errors name what it refuses."""
    if type(v) in _FLAT and len(v) <= _SWEEP_MAX_KNOTS and (
            v.typecode not in "uw" if type(v) is array  # else text
            else set(map(type, v)) <= _PLAIN):
        try:
            return array("d", v)
        except OverflowError:  # an int beyond float range: numpy says so
            pass
    import numpy as np

    def not_real(e):  # text, or a numpy scalar of another kind
        return isinstance(e, (str, bytes)) or (
            isinstance(e, np.generic) and e.dtype.kind not in _REAL_KINDS)

    a = np.array(v)
    # with dtype=float, numpy would parse "2"
    if a.dtype.kind not in _REAL_KINDS + "O" or (
            a.dtype.kind == "O" and any(map(not_real, a.flat))):
        raise TypeError(f"got {a.dtype} data")
    return a.astype(float, copy=False)


def _ndarray_fields(*names):
    """A ``__getattr__`` for the ndarray attributes ``names``: each is a
    read-only float64 array over the record's ``_views`` entry at the
    same position, made on first access (numpy loads then) and kept."""
    def __getattr__(self, name):
        if name not in names:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        import numpy as np

        arr = np.frombuffer(self._views[names.index(name)], dtype=float)
        object.__setattr__(self, name, arr)
        return arr
    return __getattr__


class SplineData(_Record):
    """Validated interpolation data: finite, strictly increasing x."""

    __match_args__ = ("x", "y")
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity

    def __init__(self, x, y):
        # Copies: a view would alias the caller's buffer, which could
        # then be edited past the checks below or set read-only.
        try:
            x, y = _to_floats(x), _to_floats(y)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(
                f"data points must be real numbers: {exc}") from None
        xv, yv = memoryview(x), memoryview(y)
        if xv.ndim != 1 or yv.ndim != 1 or xv.shape != yv.shape:
            raise ValidationError("x and y must be 1-d arrays of equal length")
        n = len(xv)
        if n < 2:
            raise ValidationError(f"need at least 2 points, got {n}")
        if n <= _SWEEP_MAX_KNOTS:
            x, y = (v if type(v) is array else array("d", v.tobytes())
                    for v in (x, y))
            finite = all(map(math.isfinite, x)) and all(map(math.isfinite, y))
            increasing = all(map(lt, x, x[1:]))
        else:
            import numpy as np

            finite = np.isfinite(x).all() and np.isfinite(y).all()
            increasing = (x[1:] > x[:-1]).all()
        if not finite:
            raise ValidationError("data points must be finite")
        if not increasing:
            raise ValidationError("x values must be strictly increasing")
        object.__setattr__(self, "_views", (memoryview(x).toreadonly(),
                                            memoryview(y).toreadonly()))

    __getattr__ = _ndarray_fields("x", "y")

    def __len__(self) -> int:
        return len(self._views[0])

    def __reduce__(self):
        # Rebuilt through the checks, from the buffers the views read.
        return (SplineData, tuple(v.obj for v in self._views))


class SplineModel(_Record):
    """Built spline: knot slopes ``D`` in the t parameter (``slopes``,
    length n) plus per-segment cubic coefficients (``a`` ... ``d``).

    Made only by :func:`build_spline`, from its data; a copy or pickle
    runs that build again.  Immutable; concurrent evaluation is safe.
    """

    __match_args__ = ("data", "slopes", "a", "b", "c", "d")
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity

    def __new__(cls, *args, **kwargs):
        raise TypeError("a SplineModel is made only by build_spline(data)")

    __getattr__ = _ndarray_fields("a", "b", "c", "d", "slopes")

    def __reduce__(self):
        return (build_spline, (self.data,))


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


def _solve(r: "np.ndarray") -> "np.ndarray":
    """Solve ``T D = r`` (3 rows or more) by one ``dgttrs`` call, which
    may overwrite ``r``."""
    import numpy as np
    from scipy.linalg.lapack import dgttrs

    # T's factors: pivots from the table, their reciprocals below them,
    # the unit superdiagonal above, no row interchanges.  They are finite,
    # so a non-finite r can only show in the result.
    n = r.size
    d = np.full(n, _PIVOTS[-1])
    k = min(n - 1, len(_PIVOTS))
    d[:k] = _PIVOTS[:k]
    dl = 1.0 / d[:-1]
    d[-1] = 2.0 - dl[-1]
    x, _ = dgttrs(dl, d, np.ones(n - 1), np.zeros(n - 2),
                  np.arange(1, n + 1, dtype=np.intc), r, overwrite_b=True)
    return x


def build_spline(data: SplineData) -> SplineModel:
    """Solve the tridiagonal knot-slope system and fill segment coefficients."""
    y = data._views[1]
    fill = _fill_floats if len(y) <= _SWEEP_MAX_KNOTS else _fill_ndarrays
    return _model(data, *fill(y))


def _fill_floats(y) -> tuple:
    """Knot slopes and the ``c``, ``d`` coefficients of the ordinates
    ``y`` as ``array('d')``s: ``_fill_ndarrays``'s operations in its
    order, on floats."""
    dy = list(map(sub, y[1:], y[:-1]))
    slopes = _sweep([3.0 * dy[0]] + [3.0 * (q - p) for p, q in zip(y, y[2:])]
                    + [3.0 * dy[-1]])
    c, d = [], []
    for e, s, t in zip(dy, slopes, slopes[1:]):
        c.append(3.0 * e - 2.0 * s - t)
        d.append(-2.0 * e + s + t)
    if not (all(map(math.isfinite, c)) and all(map(math.isfinite, d))):
        raise ValidationError(_OVERFLOW)
    return array("d", slopes), array("d", c), array("d", d)


def _fill_ndarrays(y) -> tuple:
    """``_fill_floats`` by numpy array operations and ``_solve``."""
    import numpy as np

    y = np.frombuffer(y, dtype=float)
    # An overflow or inf - inf anywhere in the build reaches c or d, and
    # the one finite check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.empty(y.size)
        rhs[0] = 3.0 * (y[1] - y[0])
        rhs[-1] = 3.0 * (y[-1] - y[-2])
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
        raise ValidationError(_OVERFLOW)
    return slopes, c, d


def _model(data: SplineData, slopes, c, d) -> SplineModel:
    """The model of ``data`` with the float64 buffers ``slopes``, ``c``
    and ``d``; ``a`` and ``b`` are views of ``y`` and ``slopes``."""
    x, y = data._views
    slopes, c, d = (memoryview(v).toreadonly() for v in (slopes, c, d))
    # Filled as _mk fills a Dual3; _views is no field, so repr leaves it
    # out.  Indexing a memoryview gives a plain float.
    model = object.__new__(SplineModel)
    model.__dict__.update(data=data,
                          _views=(y[:-1], slopes[:-1], c, d, slopes, x))
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
    a, b, c, d, _, knots = model._views
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
    _, bv, cv, dv, _, knots = model._views
    lo, hi = knots[0], knots[-1]
    if not (lo <= x0 <= hi):
        raise OutOfRangeError(f"start x = {x0} outside data range [{lo}, {hi}]")
    pick = (_candidates_floats if len(knots) <= _SWEEP_MAX_KNOTS
            else _candidates_ndarrays)
    best, best_gap = None, math.inf
    for i in pick(model):
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


def _candidates_floats(model: SplineModel) -> list:
    """The segments whose slope may vanish, in order: those where the knot
    slopes differ in sign or one is zero, then those where the slope
    turns inside and its value at the turn differs in sign from ``b`` or
    is zero."""
    _, b, c, d, slopes, _ = model._views
    # Products above about 1e154 overflow to +-inf, keeping their signs.
    crosses = [i for i, p in enumerate(map(mul, slopes, slopes[1:]))
               if p <= 0.0]
    # On nearly straight stretches rounding makes c (c + 3 d) < 0 hold on
    # most segments; keep only the turns where the slope reaches zero.
    # The turn is at t = -c / (3 d) in (0, 1), so d is not zero there.
    turns = []
    for i, (bi, ci, di) in enumerate(zip(b, c, d)):
        if ci * (ci + 3.0 * di) < 0.0:
            at_turn = bi - ci * (ci / (3.0 * di))
            # np.sign(at_turn) != np.sign(bi): b, c, d are finite, so
            # at_turn is no NaN
            if (at_turn > 0.0, at_turn < 0.0) != (bi > 0.0, bi < 0.0):
                turns.append(i)
    return crosses + turns


def _candidates_ndarrays(model: SplineModel) -> list:
    """``_candidates_floats`` by numpy masks."""
    import numpy as np

    b, c, d, slopes = (np.frombuffer(v, dtype=float)
                       for v in model._views[1:5])
    # The masks read only signs, so numpy's overflow warning is noise.
    with np.errstate(over="ignore"):
        crosses = np.flatnonzero(slopes[:-1] * slopes[1:] <= 0.0)
        turns = np.flatnonzero(c * (c + 3.0 * d) < 0.0)
        bt, ct = b[turns], c[turns]
        at_turn = bt - ct * (ct / (3.0 * d[turns]))
    turns = turns[np.sign(at_turn) != np.sign(bt)]
    return crosses.tolist() + turns.tolist()


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
