"""Dual Newton-Raphson and Halley root finding for implicit functions.

Given ``F(u, x) = 0`` defining ``u(x)`` implicitly, :func:`find_root`
returns ``u`` as a :class:`~dualnum.core.Dual3` whose derivative
components are the exact first and second derivatives of ``u`` composed
with whatever seed the caller passes in ``g``.  No closed form for ``u``
and no hand derivatives of ``F`` are needed: ``F`` is supplied as a
callable built from dual operations, and its partials fall out of the
dual components.

The iteration runs in two phases.  The real part converges by classical
Newton (or Halley) steps; the derivative components are then settled by
exactly two dual-only passes

    u~  <-  u~  -  F~(u~, g) / {F_u, 0, 0}

with ``F_u`` evaluated at the converged root.  At a simple root the
first pass lands ``f1`` on ``-F_x/F_u`` and the second lands ``f2`` on
``-(F_uu u'^2 + 2 F_ux u' + F_xx)/F_u`` exactly (up to round-off),
whatever their starting values, so derivatives stay correct even when a
residual tolerance exits the real loop early.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable

from .core import Dual3, constant, cos, sin, variable
from .errors import (
    DivergenceError,
    DomainError,
    NonConvergenceError,
    SingularDerivativeError,
    ValidationError,
    check_count,
)

# F~(u~, x~) built from dual operations; must be pure and re-entrant.
DualBivariate = Callable[[Dual3, Dual3], Dual3]

_SETTLE_PASSES = 2

# An iterate's bits: 0.0 == -0.0, yet F may round differently at each.
_bits = struct.Struct("<d").pack


@dataclass(frozen=True)
class RootConfig:
    """Iteration controls for :func:`find_root`.

    ``method`` is ``"newton"`` or ``"halley"``.  ``tol`` is a residual
    tolerance on ``|F|``; ``tol = 0`` disables the early exit and returns
    the iterate after exactly ``max_iters`` real-part iterations, which
    reproduces fixed-count reference runs.  Once an iterate repeats, the
    rest of the sequence is periodic, so that iterate is read off the
    cycle instead of computed.
    """

    u0: float
    method: str = "newton"
    max_iters: int = 100
    tol: float = 1e-12

    def __post_init__(self):
        if self.method not in ("newton", "halley"):
            raise ValidationError(f"unknown method {self.method!r}")
        if not math.isfinite(self.u0):
            raise ValidationError(f"u0 must be finite, got {self.u0}")
        check_count("max_iters", self.max_iters)
        if not 0.0 <= self.tol < math.inf:
            raise ValidationError(f"tol must be finite and >= 0: {self.tol}")


def find_root(cfg: RootConfig, F: DualBivariate, g: Dual3) -> Dual3:
    """Solve ``F(u, g.f0) = 0`` by ``cfg.method``; derivatives from ``g``."""
    newton = cfg.method == "newton"
    x_const = constant(g.f0)
    u = float(cfg.u0)

    # One evaluation per iterate: the last one serves the tolerance test
    # and gives the settle phase its slope.
    fd = F(variable(u), x_const)
    trail = []  # (u, F(u)) of iterates 0..k
    seen = {}  # _bits(u) -> index in trail
    for k in range(cfg.max_iters + 1):
        resid = fd.f0
        if k == cfg.max_iters or (cfg.tol > 0.0 and abs(resid) <= cfg.tol):
            break
        seen[_bits(u)] = k
        trail.append((u, fd))
        fu = fd.f1
        if fu == 0.0:
            raise SingularDerivativeError(
                f"dF/du vanished at iterate {k} (u={u})"
            )
        if newton:
            u = u - resid / fu
        else:
            denom = 2.0 * fu * fu - resid * fd.f2
            if denom == 0.0:
                raise SingularDerivativeError(
                    f"Halley denominator vanished at iterate {k} (u={u})"
                )
            u = u - 2.0 * resid * fu / denom
        if not math.isfinite(u):
            raise DivergenceError(
                f"non-finite iterate after {k + 1} iterations (u={u})",
                iterations=k + 1,
            )
        j = seen.get(_bits(u))
        if j is not None:
            # F is pure, so iterate k + 1 repeats iterate j and the rest
            # cycles with period k + 1 - j: read off the iterate the full
            # loop would end on.  No iterate of the cycle passed the tol.
            u, fd = trail[j + (cfg.max_iters - j) % (k + 1 - j)]
            resid = fd.f0
            break
        try:
            fd = F(variable(u), x_const)
        except DomainError as exc:
            raise DivergenceError(
                f"residual failed after {k + 1} iterations (u={u}): {exc}",
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
    slope_const = constant(slope)
    ud = Dual3(u)
    for _ in range(_SETTLE_PASSES):
        ud = ud - F(ud, g) / slope_const
    return ud


# -- RRRCR spatial mechanism --------------------------------------------

@dataclass(frozen=True)
class MechanismParams:
    """Link constants of the RRRCR spatial mechanism loop-closure equation.

    ``c1``/``c2`` default to the positive cosine branch paired with the
    given sines, ``c_i = +sqrt(1 - s_i**2)``.  Non-finite constants,
    ``|s_i| > 1`` and pairs off the unit circle raise
    :class:`~dualnum.errors.ValidationError`.
    """

    L: float
    l: float
    a: float
    R: float
    s1: float
    s2: float
    b: float
    e: float
    c1: float = field(default=None)  # type: ignore[assignment]
    c2: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        for name in ("L", "l", "a", "R", "s1", "s2", "b", "e"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(
                    f"{name} must be finite, got {getattr(self, name)}"
                )
        for tag in ("1", "2"):
            s, c = getattr(self, "s" + tag), getattr(self, "c" + tag)
            if abs(s) > 1.0:
                raise ValidationError(f"|s{tag}| = {abs(s)} > 1")
            if c is None:
                c = math.sqrt(1.0 - s ** 2)
                object.__setattr__(self, "c" + tag, c)
            if not abs(s * s + c * c - 1.0) <= 1e-12:
                raise ValidationError(
                    f"s{tag}^2 + c{tag}^2 = {s * s + c * c} != 1"
                )

    def loop_closure(self, phi: Dual3, theta: Dual3) -> Dual3:
        """Loop-closure residual; zero relates output angle phi to input theta."""
        L, ell, a, R = self.L, self.l, self.a, self.R
        s1, s2, c1, c2 = self.s1, self.s2, self.c1, self.c2
        be = self.b - self.e
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

