"""Classic fourth-order Runge-Kutta for second-order scalar ODEs,
plus a dual wrapper exposing the solution as a differentiable value.

The equation ``f''(t) = F(t, f, f')`` is integrated as the first-order
system ``x1' = u1(t, x1, x2)``, ``x2' = u2(t, x1, x2)`` with ``x1 = f``
and ``x2 = f'``.  :func:`rk4dual` re-integrates up to each query point
and reads ``f''`` straight from the right-hand side, so the returned jet
``{f, f', f''}`` is exact at the solver's own accuracy and composes with
arbitrary dual arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Dual3, compose
from .errors import (BlowUpError, DomainError, _Record, check_count,
                     check_finite)


# A dataclass for perfbench's dataclasses.replace; copies check via _Record.
@dataclass(frozen=True)
class OdeProblem(_Record):
    """Initial conditions, right-hand-side pair and step count.

    ``num_steps`` RK4 steps are taken from ``t0`` to each query point;
    queries before ``t0`` integrate backward with a negative step.
    """

    t0: float
    x10: float
    x20: float
    rhs1: "Callable[[float, float, float], float]"
    rhs2: "Callable[[float, float, float], float]"
    num_steps: int

    def __post_init__(self):
        for name in ("t0", "x10", "x20"):
            object.__setattr__(self, name,
                               check_finite(name, getattr(self, name)))
        check_count("num_steps", self.num_steps)


def rk4(problem: OdeProblem, t_end: float) -> tuple[float, float]:
    """Integrate to ``t_end`` in exactly ``num_steps`` uniform steps."""
    t_end = check_finite("t_end", t_end)
    u1, u2 = problem.rhs1, problem.rhs2
    h = (t_end - problem.t0) / problem.num_steps
    t, x1, x2 = problem.t0, problem.x10, problem.x20
    hh, h6 = 0.5 * h, h / 6.0
    for step in range(problem.num_steps):
        # A float ``**`` or math function raises OverflowError where
        # arithmetic would give inf; either way the state has blown up.
        try:
            k11, k12 = u1(t, x1, x2), u2(t, x1, x2)
            tm, a1, a2 = t + hh, x1 + hh * k11, x2 + hh * k12
            k21, k22 = u1(tm, a1, a2), u2(tm, a1, a2)
            a1, a2 = x1 + hh * k21, x2 + hh * k22
            k31, k32 = u1(tm, a1, a2), u2(tm, a1, a2)
            te, a1, a2 = t + h, x1 + h * k31, x2 + h * k32
            k41, k42 = u1(te, a1, a2), u2(te, a1, a2)
        except OverflowError as exc:
            raise BlowUpError(
                f"right-hand side overflowed in step {step} (t = {t})",
                step=step,
            ) from exc
        x1 += h6 * (k11 + 2.0 * k21 + 2.0 * k31 + k41)
        x2 += h6 * (k12 + 2.0 * k22 + 2.0 * k32 + k42)
        t = problem.t0 + (step + 1) * h
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise BlowUpError(
                f"non-finite state at step {step} (t = {t})", step=step
            )
    return x1, x2


def rk4dual(problem: OdeProblem, t: Dual3) -> Dual3:
    """Solution jet ``{f, f', f''}`` at ``t.f0``, composed with ``t``.

    ``f''`` comes from evaluating the ODE right-hand side at the end
    state, not from differencing, so all three components carry only the
    integrator's own error.  Passing a dual-valued ``t`` (for example
    ``sin(variable(t0))``) yields the derivatives of the composition.
    """
    x1, x2 = rk4(problem, t.f0)
    try:
        jet = Dual3(x1, x2, problem.rhs2(t.f0, x1, x2))
    except (OverflowError, DomainError) as exc:
        raise BlowUpError(
            f"right-hand side overflowed at the end state (t = {t.f0})",
            step=problem.num_steps - 1,
        ) from exc
    return compose(jet, t)


def _duffing_velocity(t: float, x1: float, x2: float) -> float:
    return x2


def _duffing_acceleration(t: float, x1: float, x2: float) -> float:
    return 2.1 * math.cos(1.8 * t) - 0.4 * x2 - 1.1 * x1 - x1 ** 3


def duffing_problem(num_steps: int = 100) -> OdeProblem:
    """Forced damped Duffing oscillator fixture:
    ``f'' + 0.4 f' + 1.1 f + f^3 = 2.1 cos(1.8 t)``, ``f(0) = 0.3``,
    ``f'(0) = -2.3``."""
    return OdeProblem(
        t0=0.0,
        x10=0.3,
        x20=-2.3,
        rhs1=_duffing_velocity,
        rhs2=_duffing_acceleration,
        num_steps=num_steps,
    )
