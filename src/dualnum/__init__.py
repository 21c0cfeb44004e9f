"""dualnum: exact first and second derivatives through numerical algorithms.

Forward-mode automatic differentiation on second-order dual numbers
({f, f', f''} triples), together with dualized versions of three
classic algorithms so that derivative information flows through values
that have no closed form:

- :mod:`dualnum.rootfind`: Newton-Raphson / Halley root finding that
  returns an implicitly defined ``u(x)`` with its derivatives,
- :mod:`dualnum.spline`: natural cubic spline interpolation evaluated
  on dual arguments,
- :mod:`dualnum.ode`: fixed-step RK4 integration whose solution
  composes with arbitrary dual expressions.

:mod:`dualnum.reference` holds independent oracles (finite differences,
Jordan-block polynomial derivatives, the general and the closed-form
tridiagonal inverses) used to cross-check everything else.

Only the spline uses arrays, and only above 96 knots.  ``import
dualnum`` loads neither it nor numpy: the spline names (``SplineData``,
``build_spline``, ...) import :mod:`dualnum.spline` on first use, and
the root finder, the ODE solver and splines of up to 96 knots run
without numpy.
"""

from .core import (
    Dual3,
    compose,
    constant,
    cos,
    exp,
    log,
    sin,
    sqrt,
    tan,
    variable,
)
from .errors import (
    BlowUpError,
    DivergenceError,
    DomainError,
    NoExtremumError,
    NonConvergenceError,
    NumericalError,
    OutOfRangeError,
    SingularDerivativeError,
    ValidationError,
)
from .ode import OdeProblem, duffing_problem, rk4, rk4dual
from .rootfind import MechanismParams, RootConfig, find_root

__version__ = "0.1.0"

# Loaded with dualnum.spline on first use (PEP 562); numpy follows only
# for a spline above 96 knots or an ndarray attribute read.
_SPLINE_NAMES = frozenset(("SplineData", "SplineModel", "build_spline",
                           "diffusivity", "eval_dual", "find_derivative_root"))


def __getattr__(name):
    if name in _SPLINE_NAMES:
        from . import spline
        return getattr(spline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SPLINE_NAMES)

__all__ = [
    "Dual3",
    "variable",
    "constant",
    "compose",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "RootConfig",
    "MechanismParams",
    "find_root",
    "SplineData",
    "SplineModel",
    "build_spline",
    "eval_dual",
    "find_derivative_root",
    "diffusivity",
    "OdeProblem",
    "rk4",
    "rk4dual",
    "duffing_problem",
    "ValidationError",
    "OutOfRangeError",
    "NumericalError",
    "DomainError",
    "SingularDerivativeError",
    "DivergenceError",
    "NonConvergenceError",
    "NoExtremumError",
    "BlowUpError",
]
