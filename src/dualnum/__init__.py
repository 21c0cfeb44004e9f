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
dualnum`` loads neither numpy nor :mod:`dataclasses`: the spline and ODE
names (``SplineData``, ``rk4``, ...) import their module on first use,
and only :mod:`dualnum.ode` loads :mod:`dataclasses`.
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
from .rootfind import MechanismParams, RootConfig, find_root

__version__ = "0.1.0"

# name -> its submodule, imported on first use (PEP 562).  numpy follows
# only for a spline above 96 knots or an ndarray attribute read.
_LAZY = {name: module for module, names in (
    ("spline", ("SplineData", "SplineModel", "build_spline", "diffusivity",
                "eval_dual", "find_derivative_root")),
    ("ode", ("OdeProblem", "duffing_problem", "rk4", "rk4dual")))
    for name in names}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module
        value = getattr(import_module("." + _LAZY[name], __name__), name)
        # kept, so a later read is a plain global and skips this hook
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

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
    *_LAZY,
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
