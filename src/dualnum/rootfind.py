"""Dual Newton-Raphson and Halley root finding for implicit functions.

Given ``F(u, x) = 0`` defining ``u(x)`` implicitly, :func:`find_root`
returns ``u`` as a :class:`~dualnum.core.Dual3` whose derivative
components are the exact first and second derivatives of ``u`` composed
with whatever seed the caller passes in ``g``.  No closed form for ``u``
and no hand derivatives of ``F`` are needed: ``F`` is supplied as a
callable built from dual operations, and its partials fall out of the
dual components.

The iteration runs in two phases.  The real part converges by damped
Newton (or Halley) steps: a step longer than ``sqrt(eps) * max(1, |u|)``
is halved until it lowers ``|F|``, and a solve where no halving does so
(a positive local minimum of ``|F|``, such as a mechanism angle that
cannot assemble) raises :class:`~dualnum.errors.NonConvergenceError` at
once.  Shorter steps are taken in full: at the rounding level of a root
no step need lower ``|F|``.  Each candidate iterate is evaluated once.
Where ``2 F_u^2 - F F_uu <= 0`` the Halley step is no descent direction,
and the Newton step is taken instead.
Iterates are built by ``core._mk``, so one that overflows to inf, or
one at which ``F`` fails, raises :class:`~dualnum.errors.DivergenceError`.
The derivative components are then settled by exactly two dual passes

    u~  <-  u~  -  F~(u~, g) / {F_u, 0, 0}

with ``F_u`` evaluated at the last iterate.  At a simple root the first
pass sets ``f1`` to ``-F_x/F_u`` and the second sets ``f2`` to
``-(F_uu u'^2 + 2 F_ux u' + F_xx)/F_u``, whatever their starting values,
but each pass also moves the real part by a Newton step.  So the two
passes give ``f1`` and ``f2`` to round-off only where the real part is
already at rounding level, as in a fixed-count run (``tol = 0``).  After
a residual tolerance exits the real loop early with the real part off by
``d``, ``f1`` is off by about ``d**2`` and ``f2`` by about ``d``: for the
mechanism at theta = 1.5, ``tol=1e-4`` gives an ``f2`` 24% off the
fixed-count value, ``1e-6`` 5.8e-4 and the default ``1e-12`` 3.5e-9.
ROADMAP item 20 holds the mend.

Both bundled residuals are float kernels: :meth:`MechanismParams.loop_closure`
(RRRCR) and :func:`dualnum.fixtures.nr_example1_equation`.  Each runs
its operator expression as straight-line float code by the ``Dual3``
operators' own formulas, with ``core._chain``'s formula written out
for its ``sin``/``cos`` jets, and builds one ``Dual3`` where the operator
form builds 43 (RRRCR) or 11 (nr-example1).  The operator forms, their
oracles, are :func:`dualnum.reference.loop_closure` and
:func:`dualnum.reference.nr_example1_equation`, and the tests hold each
kernel to its oracle's bits.  The settle passes are a third float
kernel, held to their operator form's bits and errors the same way.
"""

from __future__ import annotations

import math

from .core import Dual3, _mk
from .errors import (
    DivergenceError,
    DomainError,
    NonConvergenceError,
    SingularDerivativeError,
    ValidationError,
    _Record,
    check_count,
    check_finite,
)

_SETTLE_PASSES = 2

# Steps above sqrt(eps) * max(1, |u|) are damped; smaller ones are at the
# rounding level of a root, where no step need lower |F|.
_SQRT_EPS = 2.0 ** -26

# Most halvings of one damped step before the solve raises as stalled.
# Measured over the implicit-sweep benchmark's grids (14 196 solves: 4096
# mechanism angles and 1501 nr-example1 x by both methods, two arguments
# each): with 10, the 444 solves that raise take 13 930 residual calls,
# against 44 774 undamped, and every solve with a root still finds it.
# With 6, theta = 3.6739 raises where a root exists.  8 and 14 find every
# root too, but 8 stalls on more far-x nr-example1 inputs and 14 saves
# less.
_MAX_HALVINGS = 10


class RootConfig(_Record):
    """Iteration controls for :func:`find_root`.

    ``method`` is ``"newton"`` or ``"halley"``.  ``tol`` is a residual
    tolerance on ``|F|``; ``tol = 0`` disables the early exit and returns
    the iterate after exactly ``max_iters`` real-part iterations, which
    reproduces fixed-count reference runs.  Each of those iterations is
    computed, so such a run's cost grows with ``max_iters``.  A damped
    step that no halving makes lower
    ``|F|`` raises :class:`~dualnum.errors.NonConvergenceError`, with
    ``tol = 0`` too.
    """

    __slots__ = __match_args__ = ("u0", "method", "max_iters", "tol")

    def __init__(self, u0: float, method: str = "newton",
                 max_iters: int = 100, tol: float = 1e-12):
        if method not in ("newton", "halley"):
            raise ValidationError(f"unknown method {method!r}")
        u0 = check_finite("u0", u0)
        check_count("max_iters", max_iters)
        tol = check_finite("tol", tol)
        if tol < 0.0:
            raise ValidationError(f"tol must be >= 0, got {tol}")
        self._set(u0, method, max_iters, tol)


# F~(u~, x~) built from dual operations; must be pure and re-entrant.
def find_root(cfg: RootConfig, F: "Callable[[Dual3, Dual3], Dual3]",
              g: Dual3) -> Dual3:
    """Solve ``F(u, g.f0) = 0`` by ``cfg.method``; derivatives from ``g``."""
    newton = cfg.method == "newton"
    max_iters, tol = cfg.max_iters, cfg.tol
    x_const = _mk(g.f0, 0.0, 0.0)
    u = cfg.u0

    # One kept evaluation per iterate (for a damped step, the trial it
    # accepted): the last one serves the tolerance test and gives the
    # settle phase its slope.
    fd = F(_mk(u, 1.0, 0.0), x_const)
    try:
        for k in range(max_iters):
            resid = fd.f0
            if tol > 0.0 and abs(resid) <= tol:
                break
            fu = fd.f1
            if fu == 0.0:
                raise SingularDerivativeError(
                    f"dF/du vanished at iterate {k} (u={u})"
                )
            step = resid / fu
            if not newton:
                denom = 2.0 * fu * fu - resid * fd.f2
                if denom > 0.0:  # else Halley's step is no descent direction
                    step = 2.0 * resid * fu / denom
            # max(1, |u|) inline: the builtin call costs more than the test
            damped = abs(step) > _SQRT_EPS * (abs(u) if abs(u) > 1.0 else 1.0)
            # The next iterate: u - step if undamped, else the first of
            # u - step, u - step/2, ... that lowers |F|.
            for _ in range(_MAX_HALVINGS + 1 if damped else 1):
                u_next = u - step
                fd = F(_mk(u_next, 1.0, 0.0), x_const)
                if not damped or abs(fd.f0) < abs(resid):
                    break
                step *= 0.5
            else:
                raise NonConvergenceError(
                    f"stalled at iterate {k}: no step of up to "
                    f"{_MAX_HALVINGS} halvings lowers |F| = "
                    f"{abs(resid):.3e} (u={u})",
                    residual=abs(resid),
                )
            u = u_next
    except DomainError as exc:
        # Raised by _mk at a non-finite candidate u_next, or by F there.
        raise DivergenceError(
            f"iterate {k + 1} failed (u={u_next}): {exc}",
            iterations=k + 1,
        ) from exc
    resid = fd.f0
    if tol > 0.0 and abs(resid) > tol:
        raise NonConvergenceError(
            f"|F| = {abs(resid):.3e} > tol = {tol:.3e} "
            f"after {max_iters} iterations",
            residual=abs(resid),
        )

    # Settle phase: two passes of ud - F(ud, g) / slope on floats, by the
    # formulas of Dual3.__truediv__ and __sub__.  The divisor {slope, 0, 0}
    # adds q0 0 to q1's numerator and 2 q1 0 + q0 0 to q2's; dropped, they
    # change no bit.  For finite q0, q1 they are zeros and move q1, q2 at
    # most by a zero's sign, which ud.f1 - q1 and ud.f2 - q2 cannot show:
    # ud's f1 and f2 start +0.0 and never hold -0.0 (x - y is -0.0 only
    # where x is), and x - z is x for other x.  A quotient is non-finite
    # exactly where the operator form's is; r / slope then raises as it.
    slope = fd.f1
    if slope == 0.0:
        raise SingularDerivativeError(f"dF/du vanished at the root u={u}")
    ud = _mk(u, 0.0, 0.0)
    for _ in range(_SETTLE_PASSES):
        r = F(ud, g)
        q0, q1, q2 = r.f0 / slope, r.f1 / slope, r.f2 / slope
        if 0.0 * q0 * q1 * q2 != 0.0:
            r / slope  # raises
        ud = _mk(ud.f0 - q0, ud.f1 - q1, ud.f2 - q2)
    return ud


# -- RRRCR spatial mechanism --------------------------------------------

class MechanismParams(_Record):
    """Link constants of the RRRCR spatial mechanism loop-closure equation.

    ``c1``/``c2`` default to the positive cosine branch paired with the
    given sines, ``c_i = +sqrt(1 - s_i**2)``.  Non-finite constants,
    ``|s_i| > 1`` and pairs off the unit circle raise
    :class:`~dualnum.errors.ValidationError`.
    """

    __match_args__ = ("L", "l", "a", "R", "s1", "s2", "b", "e", "c1", "c2")
    # _k holds the residual's 18 constant factors.  __init__ makes them,
    # so a copy or pickle makes them again; they are no field.
    __slots__ = __match_args__ + ("_k",)

    def __init__(self, L: float, l: float, a: float, R: float, s1: float,
                 s2: float, b: float, e: float, c1: float | None = None,
                 c2: float | None = None):
        values = [check_finite(name, v) for name, v in
                  zip(self.__match_args__, (L, l, a, R, s1, s2, b, e))]
        for tag, s, c in (("1", values[4], c1), ("2", values[5], c2)):
            if abs(s) > 1.0:
                raise ValidationError(f"|s{tag}| = {abs(s)} > 1")
            c = (math.sqrt(1.0 - s ** 2) if c is None
                 else check_finite("c" + tag, c))
            if not abs(s * s + c * c - 1.0) <= 1e-12:
                raise ValidationError(
                    f"s{tag}^2 + c{tag}^2 = {s * s + c * c} != 1"
                )
            values.append(c)
        self._set(*values)
        L, ell, a, R, s1, s2, b, e, c1, c2 = values
        be = b - e
        # Each built left to right, as reference.loop_closure's operator
        # expression forms it, so the bits are the same.
        object.__setattr__(self, "_k", (
            a * a * c1 * c1 * c2 * c2 - 2.0 * a * c1 * c2 * c2 * s1 * be,
            2.0 * a * c1 * c1 * c2 * c2 * L,
            2.0 * a * c1 * c2 * c2 * R,
            c1 * c1 * c2 * c2 * be * be,
            2.0 * c1 * c2 * c2 * L * s1 * be,
            2.0 * c1 * c2 * L * s2 * be,
            2.0 * c1 * R * s2 * be,
            2.0 * R * s1 * be,
            be * be,
            c1 * c1 * c2 * c2 * ell * ell,
            c1 * c1 * c2 * c2 * L * L,
            c1 * c1 * c2 * c2 * R * R,
            2.0 * c1 * c1 * c2 * L * R,
            c1 * c1 * R * R,
            2.0 * c1 * c2 * c2 * L * R,
            2.0 * c1 * c2 * L * R * s1 * s2,
            2.0 * c1 * R * R * s1 * s2,
            R * R,
        ))

    def loop_closure(self, phi: Dual3, theta: Dual3) -> Dual3:
        """Loop-closure residual; zero relates output angle phi to input theta.

        The operator expression of ``reference.loop_closure``, a
        polynomial in the sines and cosines of the two angles, as
        straight-line float code: the ``Dual3`` operators' component
        formulas in the operators' order, less the zero terms the
        comment below proves idle, so the bits are theirs.  The four
        ``sin``/``cos`` jets are ``core._chain``'s formula written out,
        on one ``math.sin`` and one ``math.cos`` per angle, and one
        ``Dual3`` is built.
        A real part is finite, so ``math.sin``/``math.cos`` cannot
        raise, and only ``+ - *`` follow: an inf or NaN on the way
        reaches a final component, where the one ``_mk`` raises
        ``DomainError`` as the operators would.
        """
        # kN is term N's constant factor; k0 is terms 1 and 2, a number
        (k0, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16,
         k17, k18, k19) = self._k
        # sin's jet (s, c, -s) and cos's (c, -s, -c) chained through each
        # angle by core._chain's formula, its operands in its order
        t0, t1, t2 = theta.f0, theta.f1, theta.f2
        p0, p1, p2 = phi.f0, phi.f1, phi.f2
        s, c = math.sin(t0), math.cos(t0)
        st0, st1, st2 = s, c * t1, -s * t1 * t1 + c * t2
        ct0, ct1, ct2 = c, -s * t1, -c * t1 * t1 + -s * t2
        s, c = math.sin(p0), math.cos(p0)
        sp0, sp1, sp2 = s, c * p1, -s * p1 * p1 + c * p2
        cp0, cp1, cp2 = c, -s * p1, -c * p1 * p1 + -s * p2
        # reference.loop_closure's terms in order.  A number k is the dual
        # {k, 0, 0}, so the operators form jet * k as (j0 k, j1 k + j0 0,
        # j2 k + 2 j1 0 + j0 0), k - jet as k - j0, 0 - j1, 0 - j2, and
        # jet + k as j1 + 0, j2 + 0.  Those zero terms are dropped: they
        # change no bit of the result, for three reasons.
        # - No dropped product is NaN.  An inf or NaN anywhere reaches a
        #   final component through + - * (inf * 0 is NaN), so _mk raises
        #   on both sides.  Else st2 and ct2 are finite, and as sin and
        #   cos are not both below 0.7, theta's f1 is below 2e154; so is
        #   phi's, and every j0, 2 j1 and q below times 0.0 is a zero.
        # - Adding a zero moves a sum only by the sign of a zero, and a
        #   sign of a zero moves the next + - * only by the sign of a zero.
        # - So r1, r2 differ at most by signs of zeros until k10's + 0.0,
        #   kept below, which makes a zero +0.0.  From then on r1, r2 hold
        #   no -0.0: x + y and x - y give -0.0 only where x is -0.0, and
        #   x +- a zero is x for any other x.
        r0 = k0 - ct0 * k3
        r1 = -(ct1 * k3)
        r2 = -(ct2 * k3)
        r0 += cp0 * k4
        r1 += cp1 * k4
        r2 += cp2 * k4
        r0 -= k5
        r0 += ct0 * k6
        r1 += ct1 * k6
        r2 += ct2 * k6
        r0 += st0 * k7
        r1 += st1 * k7
        r2 += st2 * k7
        r0 -= sp0 * k8
        r1 -= sp1 * k8
        r2 -= sp2 * k8
        r0 -= cp0 * k9
        r1 -= cp1 * k9
        r2 -= cp2 * k9
        r0 = r0 + k10 - k11 + k12
        r1 += 0.0
        r2 += 0.0
        q0, q1, q2 = cp0 * k13, cp1 * k13, cp2 * k13
        r0 += q0 * cp0
        r1 += q1 * cp0 + q0 * cp1
        r2 += q2 * cp0 + 2.0 * q1 * cp1 + q0 * cp2
        q0, q1, q2 = st0 * k14, st1 * k14, st2 * k14
        r0 -= q0 * sp0
        r1 -= q1 * sp0 + q0 * sp1
        r2 -= q2 * sp0 + 2.0 * q1 * sp1 + q0 * sp2
        # (1 - sp * 2 * sp) * k15
        q0, q1, q2 = sp0 * 2.0, sp1 * 2.0, sp2 * 2.0
        q0, q1, q2 = (1.0 - q0 * sp0, -(q1 * sp0 + q0 * sp1),
                      -(q2 * sp0 + 2.0 * q1 * sp1 + q0 * sp2))
        r0 -= q0 * k15
        r1 -= q1 * k15
        r2 -= q2 * k15
        q0, q1, q2 = ct0 * k16, ct1 * k16, ct2 * k16
        r0 -= q0 * cp0
        r1 -= q1 * cp0 + q0 * cp1
        r2 -= q2 * cp0 + 2.0 * q1 * cp1 + q0 * cp2
        q0, q1, q2 = st0 * k17, st1 * k17, st2 * k17
        r0 -= q0 * cp0
        r1 -= q1 * cp0 + q0 * cp1
        r2 -= q2 * cp0 + 2.0 * q1 * cp1 + q0 * cp2
        q0, q1, q2 = sp0 * k18, sp1 * k18, sp2 * k18
        r0 += q0 * cp0
        r1 += q1 * cp0 + q0 * cp1
        r2 += q2 * cp0 + 2.0 * q1 * cp1 + q0 * cp2
        q0, q1, q2 = cp0 * k19, cp1 * k19, cp2 * k19
        r0 += q0 * cp0
        r1 += q1 * cp0 + q0 * cp1
        r2 += q2 * cp0 + 2.0 * q1 * cp1 + q0 * cp2
        return _mk(r0, r1, r2)
