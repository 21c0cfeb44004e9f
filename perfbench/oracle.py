"""Independent checks of every op's outcome, run outside the timed region.

Each ``check_*`` returns a list of ``Problem``s, empty when the op agrees
with its oracle.  A returned value outside tolerance is ``wrong``.  An op
that failed without a wrong value (a raise where the oracle says an
answer exists, an untyped raise, or the spline search handing back its
last iterate unconverged) is a failure with ``wrong = False``.  When the
oracle says no answer exists, a typed ``NumericalError`` is the correct
outcome.

The oracles share no code path with the dual arithmetic: residuals come
from plain-float transcriptions of the equations, derivatives from
``dualnum.reference.central_diff`` of plain-float solves or of each spline
segment's cubic, the spline's build from its interpolation conditions and
the knot-slope system ``T D = R``, and the ODE truth from an independent
fine-step RK4.
"""

from __future__ import annotations

import bisect
import json
import math
from typing import List, NamedTuple, Optional

import numpy as np

from dualnum import fixtures
from dualnum.reference import central_diff

from workloads import Err, MechInput, ODE_STEPS

RESIDUAL_TOL = 1e-10
# |AD - FD| <= tol * (1 + |AD|) + |FD(2h) - FD(h)| + 16 eps |f| / h^k: a
# relative allowance, then central_diff's truncation error (about a third
# of the difference between steps h and 2h for these O(h^2) formulas; it
# grows near folds, where derivatives blow up) and its rounding error.
FD_TOL = {1: 1e-6, 2: 1e-4}
_EPS = 2.0 ** -52


class Problem(NamedTuple):
    """``wrong`` is True for a returned value outside tolerance, False for
    a failure without a wrong value, None for a row the oracle could not
    check (every difference sample left the function's domain)."""

    label: str
    wrong: Optional[bool]


def _diff(fn, x: float, k: int, c: float) -> float:
    """``central_diff`` at ``x`` with its step scaled by ``c``."""
    return central_diff(lambda s: fn(x + c * s), 0.0, k) / c ** k


def _fd_problems(label: str, row, fn, x: float,
                 length: float = 1.0) -> List[Problem]:
    """Compare a row's derivatives with central differences of ``fn``.

    ``length`` is the scale on which ``fn`` varies (a spline segment's
    width); steps shrink by 4 at a time, down to 1/1024 of it, while a
    sample falls outside the domain of ``fn`` (an input within a step of a
    fold of the mechanism).
    """
    out = []
    for k in (1, 2):
        ad = (row.f1, row.f2)[k - 1]
        for c in (length * 4.0 ** -j for j in range(6)):
            try:
                fd, coarse = _diff(fn, x, k, c), _diff(fn, x, k, 2.0 * c)
                break
            except ArithmeticError:
                continue
        else:
            out.append(Problem(f"{label}: f{k} not checkable", None))
            continue
        h = c * _EPS ** (1.0 / (k + 2))  # central_diff's step at 0, scaled
        rounding = 16.0 * _EPS * abs(row.f0) / h ** k
        tol = FD_TOL[k] * (1.0 + abs(ad)) + abs(coarse - fd) + rounding
        if not abs(ad - fd) <= tol:
            out.append(Problem(f"{label}: f{k} differs from central_diff",
                               True))
    return out


def plain_root(F, x: float, u: float) -> float:
    """Plain-float Newton with a central-difference slope, from ``u``.

    Stops once the step no longer shrinks: the iterate then sits at the
    rounding level of ``F``, as close to the root as floats allow.  Raises
    ArithmeticError when that point is not a root (past a fold of the
    mechanism, where no root exists).
    """
    last = math.inf
    for _ in range(60):
        r = F(u, x)
        h = 1e-7 * max(1.0, abs(u))
        step = r * (2.0 * h) / (F(u + h, x) - F(u - h, x))
        if not abs(step) < last:
            if abs(r) <= RESIDUAL_TOL:
                return u
            break
        u -= step
        last = abs(step)
    raise ArithmeticError(f"no plain root near u at x = {x}")


# -- implicit-sweep ------------------------------------------------------

_M = fixtures.MECHANISM_PARAMS


def mech_F(phi, theta, m=math):
    """The RRRCR loop closure on plain floats (``m`` = math or numpy)."""
    L, ell, a, R = _M.L, _M.l, _M.a, _M.R
    s1, s2, c1, c2 = _M.s1, _M.s2, _M.c1, _M.c2
    be = _M.b - _M.e
    sth, cth = m.sin(theta), m.cos(theta)
    sph, cph = m.sin(phi), m.cos(phi)
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


TURN = 2.0 * math.pi  # the loop closure's period in phi
_SCAN = np.linspace(0.0, TURN, 1441)


def assembles(theta: float) -> bool:
    """Sign scan of the loop closure over a full turn of phi."""
    v = mech_F(_SCAN, theta, np)
    return bool(np.any(v[:-1] * v[1:] <= 0.0))


def nr_F(u, x):
    return math.cos(u * x) - u ** 3 + x + math.sin(u * u * x)


def _two_sin_sq(v):
    return 2.0 * math.sin(v) ** 2


def _solve_row(label, row, F, arg_of, x, exists,
               period: float = 0.0) -> List[Problem]:
    """A solver row at argument ``arg_of(x)``: residual plus derivatives.

    For an equation with ``period`` in u, the plain solves start from the
    root's image in the first period: a far branch (Newton can land at
    |u| in the tens of thousands) would add rounding noise to every
    sample of the differences.
    """
    if isinstance(row, Err):
        if row.numerical and not exists:
            return []
        why = ("raised where a root exists" if row.numerical
               else "untyped raise")
        return [Problem(f"{label}: {row.name} ({why})", False)]
    u = row.f0
    if not abs(F(u, arg_of(x))) <= RESIDUAL_TOL:
        return [Problem(f"{label}: residual above tolerance", True)]
    u0 = math.remainder(u, period) if period else u
    return _fd_problems(label, row, lambda t: plain_root(F, arg_of(t), u0), x)


def check_implicit(inp, outcome) -> List[Problem]:
    ident = lambda t: t  # noqa: E731
    if isinstance(inp, MechInput):
        th = inp.theta
        phi, f_phi, phi_f = outcome
        out = _solve_row("mech/phi(theta)", phi, mech_F, ident, th,
                         exists=assembles(th), period=TURN)
        if not isinstance(phi, Err):
            u = math.remainder(phi.f0, TURN)
            if isinstance(f_phi, Err):
                out.append(Problem(f"mech/f(phi): {f_phi.name}", False))
            elif not abs(f_phi.f0 - _two_sin_sq(phi.f0)) <= 1e-14:
                out.append(Problem("mech/f(phi): value differs", True))
            else:
                out += _fd_problems(
                    "mech/f(phi)", f_phi,
                    lambda t: _two_sin_sq(plain_root(mech_F, t, u)), th)
        out += _solve_row("mech/phi(f(theta))", phi_f, mech_F, _two_sin_sq,
                          th, exists=assembles(_two_sin_sq(th)), period=TURN)
        return out
    u_row, g2_row = outcome
    tag = f"nr-{inp.method}"
    # -u^3 dominates for large |u|, so a real root exists for every x.
    return (_solve_row(f"{tag}/u(x)", u_row, nr_F, ident, inp.x, True)
            + _solve_row(f"{tag}/g2", g2_row, nr_F,
                         lambda t: math.sin(t) + t * t, inp.x, True))


# -- spline-curves -------------------------------------------------------

def _cubic(a, b, c, d, x0, h):
    def value(s):
        t = (s - x0) / h
        return ((d * t + c) * t + b) * t + a
    return value


def check_spline(inp, outcome) -> List[Problem]:
    model, rows, root = outcome
    out = []
    x = np.asarray(inp.x)
    y = np.asarray(inp.y)
    if not (np.array_equal(model.data.x, x)
            and np.array_equal(model.data.y, y)):
        return [Problem("spline/data: knots differ from the input", True)]
    a, b, c, d, D = model.a, model.b, model.c, model.d, model.slopes
    scale = 1.0 + float(np.max(np.abs(y)))
    ends = a + b + c + d
    if not (np.max(np.abs(a - y[:-1])) <= 1e-12 * scale
            and np.max(np.abs(ends - y[1:])) <= 1e-9 * scale):
        out.append(Problem("spline/build: interpolation conditions fail",
                           True))
    # Knot-slope system T D = R: diagonal 2, 4, ..., 4, 2, unit off-diagonals.
    TD = 4.0 * D
    TD[0], TD[-1] = 2.0 * D[0], 2.0 * D[-1]
    TD[:-1] += D[1:]
    TD[1:] += D[:-1]
    R = np.empty_like(D)
    R[0] = 3.0 * (y[1] - y[0])
    R[-1] = 3.0 * (y[-1] - y[-2])
    R[1:-1] = 3.0 * (y[2:] - y[:-2])
    if not np.max(np.abs(TD - R)) <= 1e-9 * (1.0 + float(np.max(np.abs(R)))):
        out.append(Problem("spline/build: knot-slope residual T D - R", True))

    xs = inp.x
    n = len(xs)
    for k, xp in enumerate(inp.points):
        i = min(max(bisect.bisect_right(xs, xp) - 1, 0), n - 2)
        v = _cubic(float(a[i]), float(b[i]), float(c[i]), float(d[i]),
                   xs[i], xs[i + 1] - xs[i])
        # Steps of about 1% of the segment: the segment's cubic varies
        # slowly on that scale, so rounding and truncation both stay small.
        length = 100.0 * (xs[i + 1] - xs[i])
        y_row, f_row = rows[2 * k], rows[2 * k + 1]
        if not abs(y_row.f0 - v(xp)) <= 1e-12 * scale:
            out.append(Problem("spline/eval: value differs", True))
        out += _fd_problems("spline/eval y", y_row, v, xp, length)
        if isinstance(f_row, Err):
            out.append(Problem(f"spline/eval x sin^2 y: {f_row.name}", False))
        else:
            out += _fd_problems("spline/eval x sin^2 y", f_row,
                                lambda s: s * math.sin(v(s)) ** 2, xp, length)

    return out + _derivroot_problems(inp, model, root)


def _stationary(model) -> bool:
    """Whether the spline's slope vanishes anywhere: per segment, the
    quadratic ``b + 2 c t + 3 d t^2`` has a root in ``[0, 1]``."""
    b, c, d = model.b, model.c, model.d
    q0, q1 = b, b + 2.0 * c + 3.0 * d
    with np.errstate(divide="ignore", invalid="ignore"):
        tv = np.where(d != 0.0, -c / (3.0 * d), -1.0)
    inside = (tv > 0.0) & (tv < 1.0)
    qv = b + 2.0 * c * tv + 3.0 * d * tv * tv
    return bool(np.any((q0 * q1 <= 0.0) | (inside & (q0 * qv <= 0.0))))


def _derivroot_problems(inp, model, root) -> List[Problem]:
    """A zero of the spline's slope, or NoExtremumError when it has none.

    The data are peaked or monotone, but the spline decides: on unevenly
    spaced knots its x-slope jumps at knots, so a peak can fall on a jump
    (no zero) and monotone data can overshoot (a zero).
    """
    exists = _stationary(model)
    tag = "peaked" if inp.peaked else "monotone"
    if isinstance(root, Err):
        if root.name == "NoExtremumError" and not exists:
            return []
        why = "where the slope vanishes" if exists else "not NoExtremumError"
        return [Problem(f"spline/derivroot ({tag}): {root.name} {why}", False)]
    xs = inp.x
    if not xs[0] <= root <= xs[-1]:
        return [Problem(f"spline/derivroot ({tag}): root outside the data",
                        True)]
    i = min(max(bisect.bisect_right(xs, root) - 1, 0), len(xs) - 2)
    width = xs[i + 1] - xs[i]
    t = (root - xs[i]) / width
    b, c, d = model.b[i], model.c[i], model.d[i]
    slope = (b + (2.0 * c + 3.0 * d * t) * t) / width
    y = model.data.y
    slope_scale = float(np.max(y) - np.min(y)) / (xs[-1] - xs[0])
    if not abs(slope) <= 1e-6 * slope_scale:
        # The search returns its last iterate without testing the slope
        # (ROADMAP item 4): a failed op that did not say so, counted with
        # the failures rather than as a wrong value.
        return [Problem(f"spline/derivroot ({tag}): returned an unconverged "
                        "iterate", False)]
    return []


# -- ode-grid ------------------------------------------------------------

def _duffing_acc(t, x1, x2):
    return 2.1 * math.cos(1.8 * t) - 0.4 * x2 - 1.1 * x1 - x1 ** 3


def _rk4_step(t, x1, x2, h):
    f = _duffing_acc
    k11, k12 = x2, f(t, x1, x2)
    k21, k22 = x2 + 0.5 * h * k12, f(t + 0.5 * h, x1 + 0.5 * h * k11,
                                     x2 + 0.5 * h * k12)
    k31, k32 = x2 + 0.5 * h * k22, f(t + 0.5 * h, x1 + 0.5 * h * k21,
                                     x2 + 0.5 * h * k22)
    k41, k42 = x2 + h * k32, f(t + h, x1 + h * k31, x2 + h * k32)
    return (x1 + h / 6.0 * (k11 + 2.0 * k21 + 2.0 * k31 + k41),
            x2 + h / 6.0 * (k12 + 2.0 * k22 + 2.0 * k32 + k42))


class DuffingTruth:
    """Fine-step RK4 (step 1e-3) over [-1, 10], stored at every step; a
    query takes one more short step from the nearest stored state."""

    H = 1e-3

    def __init__(self, lo=-1.0, hi=10.0):
        self.lo = lo
        back = [(0.3, -2.3)]
        for k in range(int(round(-lo / self.H))):
            back.append(_rk4_step(-k * self.H, *back[-1], -self.H))
        fwd = [(0.3, -2.3)]
        for k in range(int(round(hi / self.H)) + 1):
            fwd.append(_rk4_step(k * self.H, *fwd[-1], self.H))
        self.states = back[:0:-1] + fwd

    def __call__(self, s: float):
        k = int(round((s - self.lo) / self.H))
        t_node = self.lo + k * self.H
        return _rk4_step(t_node, *self.states[k], s - t_node)


# RK4's global error is C h^4.  At the fixture's 100 steps over [0, 10],
# measured against the fine reference, the largest C over the three rows
# is about 7 (value), 19 (first) and 113 (second derivative, on the
# sin(f(t)) row); the bounds leave a factor of 4.  The relative terms
# cover central_diff's own error, as in FD_TOL.
ODE_C = (25.0, 75.0, 450.0)
ODE_REL = (1e-9, FD_TOL[1], FD_TOL[2])


def _ode_row(label, row, want, h) -> List[Problem]:
    if isinstance(row, Err):
        return [Problem(f"{label}: {row.name}", False)]
    out = []
    for k, (got, w) in enumerate(zip((row.f0, row.f1, row.f2), want)):
        if not abs(got - w) <= ODE_C[k] * h ** 4 + ODE_REL[k] * (1.0 + abs(w)):
            out.append(Problem(f"{label}: f{k} off the fine-step RK4", True))
    return out


def _diffs(fn, t):
    return fn(t), central_diff(fn, t, 1), central_diff(fn, t, 2)


def check_ode(inp, outcome, truth: DuffingTruth) -> List[Problem]:
    t = inp.t
    f, f_sin, sin_f = outcome
    x1, x2 = truth(t)
    h = t / ODE_STEPS
    return (_ode_row("ode/f(t)", f, (x1, x2, _duffing_acc(t, x1, x2)), h)
            + _ode_row("ode/f(sin t)", f_sin,
                       _diffs(lambda s: truth(math.sin(s))[0], t),
                       abs(math.sin(t)) / ODE_STEPS)
            + ([] if isinstance(f, Err) else _ode_row(
                "ode/sin(f(t))", sin_f,
                _diffs(lambda s: math.sin(truth(s)[0]), t), h)))


# -- cli-fixtures --------------------------------------------------------

def check_cli(inp, outcome) -> List[Problem]:
    """Exit code 0 and ``"status": "ok"``.  That stdout is byte-identical
    across repeats is checked by the loop, which compares every later
    execution's outcome with the first."""
    code, stdout = outcome
    label = f"cli/{inp.variant}"
    if code != 0:
        return [Problem(f"{label}: exit code {code}", False)]
    try:
        status = json.loads(stdout)["status"]
    except (ValueError, KeyError):
        return [Problem(f"{label}: stdout is not the JSON report", True)]
    if status != "ok":
        return [Problem(f"{label}: status {status!r}", True)]
    return []
