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
no step need lower ``|F|``.  Where ``2 F_u^2 - F F_uu < 0`` the Halley
step is no descent direction, and the Newton step is taken instead.
Iterates are built by ``core._mk``, so one that overflows to inf, or
one at which ``F`` fails, raises :class:`~dualnum.errors.DivergenceError`.
The derivative components are then settled by exactly two dual-only
passes

    u~  <-  u~  -  F~(u~, g) / {F_u, 0, 0}

with ``F_u`` evaluated at the converged root.  At a simple root the
first pass lands ``f1`` on ``-F_x/F_u`` and the second lands ``f2`` on
``-(F_uu u'^2 + 2 F_ux u' + F_xx)/F_u`` exactly (up to round-off),
whatever their starting values, so derivatives stay correct even when a
residual tolerance exits the real loop early.

The bundled RRRCR residual, :meth:`MechanismParams.loop_closure`, is a
float kernel: it evaluates its operator expression on float triples by
the ``Dual3`` operators' own formulas, so it builds 5 ``Dual3``s (four
``sin``/``cos`` jets and the result) where the operator form builds 43.
That form, its oracle, is :func:`dualnum.reference.loop_closure`, and
the tests hold the kernel to its bits.
"""

from __future__ import annotations

import math
import struct

from .core import Dual3, _mk, cos, sin
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

# An iterate's bits: 0.0 == -0.0, yet F may round differently at each.
_bits = struct.Struct("<d").pack


class RootConfig(_Record):
    """Iteration controls for :func:`find_root`.

    ``method`` is ``"newton"`` or ``"halley"``.  ``tol`` is a residual
    tolerance on ``|F|``; ``tol = 0`` disables the early exit and returns
    the iterate after exactly ``max_iters`` real-part iterations, which
    reproduces fixed-count reference runs.  Once an iterate repeats, the
    rest of the sequence is periodic, so that iterate is read off the
    cycle instead of computed.  A damped step that no halving makes lower
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
    x_const = _mk(g.f0, 0.0, 0.0)
    u = cfg.u0

    # One kept evaluation per iterate (for a damped step, the trial it
    # accepted): the last one serves the tolerance test and gives the
    # settle phase its slope.
    fd = F(_mk(u, 1.0, 0.0), x_const)
    trail = []  # (u, F(u)) of iterates 0..k
    seen = {}  # _bits(u) -> index in trail
    try:
        for k in range(cfg.max_iters + 1):
            resid = fd.f0
            if k == cfg.max_iters or (cfg.tol > 0.0
                                      and abs(resid) <= cfg.tol):
                break
            seen[_bits(u)] = k
            trail.append((u, fd))
            fu = fd.f1
            if fu == 0.0:
                raise SingularDerivativeError(
                    f"dF/du vanished at iterate {k} (u={u})"
                )
            step = resid / fu
            if not newton:
                denom = 2.0 * fu * fu - resid * fd.f2
                if denom == 0.0:
                    raise SingularDerivativeError(
                        f"Halley denominator vanished at iterate {k} (u={u})"
                    )
                if denom > 0.0:  # else Halley's step is no descent direction
                    step = 2.0 * resid * fu / denom
            u_next = u - step
            # max(1, |u|) inline: the builtin call costs more than the test
            damped = abs(step) > _SQRT_EPS * (abs(u) if abs(u) > 1.0 else 1.0)
            if damped:
                # The first of u - step, u - step/2, ... that lowers |F|
                # is the next iterate, and its evaluation serves it.
                fd = F(_mk(u_next, 1.0, 0.0), x_const)
                halvings = 0
                while not abs(fd.f0) < abs(resid):
                    if halvings == _MAX_HALVINGS:
                        raise NonConvergenceError(
                            f"stalled at iterate {k}: no step of up to "
                            f"{_MAX_HALVINGS} halvings lowers |F| = "
                            f"{abs(resid):.3e} (u={u})",
                            residual=abs(resid),
                        )
                    halvings += 1
                    step *= 0.5
                    u_next = u - step
                    fd = F(_mk(u_next, 1.0, 0.0), x_const)
            u = u_next
            j = seen.get(_bits(u))
            if j is not None:
                # F is pure, so iterate k + 1 repeats iterate j and the
                # rest cycles with period k + 1 - j: read off the iterate
                # the full loop would end on.  No iterate of the cycle
                # passed the tol.
                u, fd = trail[j + (cfg.max_iters - j) % (k + 1 - j)]
                resid = fd.f0
                break
            if not damped:
                fd = F(_mk(u, 1.0, 0.0), x_const)
    except DomainError as exc:
        # Raised by _mk at a non-finite candidate u_next, or by F there.
        raise DivergenceError(
            f"iterate {k + 1} failed (u={u_next}): {exc}",
            iterations=k + 1,
        ) from exc
    if cfg.tol > 0.0 and abs(resid) > cfg.tol:
        raise NonConvergenceError(
            f"|F| = {abs(resid):.3e} > tol = {cfg.tol:.3e} "
            f"after {cfg.max_iters} iterations",
            residual=resid,
        )

    # Settle phase: two dual passes with the slope pinned at the root.
    slope = fd.f1
    if slope == 0.0:
        raise SingularDerivativeError(f"dF/du vanished at the root u={u}")
    ud = _mk(u, 0.0, 0.0)
    for _ in range(_SETTLE_PASSES):
        ud = ud - F(ud, g) / slope
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
    # _k holds the residual's 18 constant factors as triples.  __init__
    # makes them, so a copy or pickle makes them again; they are no field.
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
        # expression forms it, so the bits are the same; as an operand
        # each is the dual {k, 0, 0}.
        object.__setattr__(self, "_k", tuple((k, 0.0, 0.0) for k in (
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
        )))

    def loop_closure(self, phi: Dual3, theta: Dual3) -> Dual3:
        """Loop-closure residual; zero relates output angle phi to input theta.

        The operator expression of ``reference.loop_closure``, a
        polynomial in the sines and cosines of the two angles, evaluated
        on float triples by the ``Dual3`` operators' own formulas, in the
        operators' order, so the bits are theirs; the four jets come from
        ``sin`` and ``cos``.  Only ``+ - *`` follow them, so an inf or NaN
        on the way reaches a final component, where the one ``_mk``
        raises ``DomainError`` as the operators would.
        """
        # kN is term N's constant factor; k0 is terms 1 and 2, a number
        (k0, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16,
         k17, k18, k19) = self._k
        st, ct, sp, cp = ((j.f0, j.f1, j.f2) for j in (
            sin(theta), cos(theta), sin(phi), cos(phi)))
        # k * jet is jet.__mul__(k): _mul(jet, k)
        r = _sub(k0, _mul(ct, k3))
        r = _add(r, _mul(cp, k4))
        r = _sub(r, k5)
        r = _add(r, _mul(ct, k6))
        r = _add(r, _mul(st, k7))
        r = _sub(r, _mul(sp, k8))
        r = _sub(r, _mul(cp, k9))
        r = _add(r, k10)
        r = _sub(r, k11)
        r = _add(r, k12)
        r = _add(r, _mul(_mul(cp, k13), cp))
        r = _sub(r, _mul(_mul(st, k14), sp))
        r = _sub(r, _mul(_sub(_ONE, _mul(_mul(sp, _TWO), sp)), k15))
        r = _sub(r, _mul(_mul(ct, k16), cp))
        r = _sub(r, _mul(_mul(st, k17), cp))
        r = _add(r, _mul(_mul(sp, k18), cp))
        r = _add(r, _mul(_mul(cp, k19), cp))
        return _mk(*r)


# The Dual3 operators' component formulas on float triples, for
# loop_closure: a number c enters as (c, 0.0, 0.0), as in the operators.
_ONE, _TWO = (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)


def _add(a: tuple, b: tuple) -> tuple:
    return a[0] + b[0], a[1] + b[1], a[2] + b[2]


def _sub(a: tuple, b: tuple) -> tuple:
    return a[0] - b[0], a[1] - b[1], a[2] - b[2]


def _mul(a: tuple, b: tuple) -> tuple:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a0 * b0, a1 * b0 + a0 * b1, a2 * b0 + 2.0 * a1 * b1 + a0 * b2
