"""Exception hierarchy shared by all dualnum modules.

Two roots: :class:`ValidationError` for rejected inputs and
:class:`NumericalError` for failures that occur while computing.  The CLI
maps them to exit codes 1 and 2 respectively.  :func:`check_finite` and
:func:`check_count` are the two input checks every module shares, and
``_Record`` the frozen behaviour of the values and records they check.
"""

import math
import operator


class ValidationError(ValueError):
    """Input does not satisfy an operation's preconditions."""


class OutOfRangeError(ValidationError):
    """Evaluation point lies outside the supported interval."""


class NumericalError(ArithmeticError):
    """Base class for runtime numerical failures."""


class DomainError(NumericalError):
    """An elemental function was evaluated outside its domain, or a dual
    result would hold an infinite or NaN component (overflow, an invalid
    operation, division by a zero real part)."""


class SingularDerivativeError(NumericalError):
    """A derivative needed as a divisor vanished at an iterate."""


class DivergenceError(NumericalError):
    """An iteration produced a non-finite iterate, or a residual the
    iterate made fail with :class:`DomainError`."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class NonConvergenceError(NumericalError):
    """Residual tolerance not met within the iteration budget."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NoExtremumError(NumericalError):
    """The spline's slope has no zero in the data range."""


class BlowUpError(NumericalError):
    """ODE state became non-finite during integration."""

    def __init__(self, message: str, step: int = 0):
        super().__init__(message)
        self.step = step


class _Record:
    """Base of ``Dual3`` and the records: fields named in ``__match_args__``
    and set once, after the checks, which a copy or pickle runs again.
    Assignment and deletion raise ``AttributeError``; equality is by value."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        values = tuple(getattr(self, name) for name in self.__match_args__)
        return (type(self), values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}"
                  for name in self.__match_args__)
        return f"{type(self).__name__}({', '.join(fields)})"


def check_count(name: str, value) -> None:
    """Raise :class:`ValidationError` unless ``value`` is an integer >= 1.

    Floats such as ``2.5`` are rejected here rather than by ``range`` deep
    inside a solve; ``bool`` is rejected although it is an ``int``.
    """
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if count < 1:
        raise ValidationError(f"{name} must be >= 1, got {count}")


def _complex(value) -> bool:
    """Whether ``value`` is a complex number, which ``math.isfinite`` and
    ``float`` may read by its real part alone, as numpy's complex scalars
    let them (with a warning).  numpy registers its scalar types with
    :mod:`numbers`, which ``import dualnum`` does not load."""
    import numbers

    return (isinstance(value, numbers.Complex)
            and not isinstance(value, numbers.Real))


def check_finite(name: str, value) -> float:
    """``float(value)``; :class:`ValidationError` unless ``value`` is a
    finite real number.  An ``int`` beyond float range counts as infinite."""
    try:
        if type(value) is not float and _complex(value):
            raise TypeError
        if math.isfinite(value):
            return float(value)
    except TypeError:
        raise ValidationError(f"{name} must be a real number, got "
                              f"{type(value).__name__}") from None
    except OverflowError:  # show a huge int by its size, not its digits
        if isinstance(value, int):
            value = f"an int of {value.bit_length()} bits"
    raise ValidationError(f"{name} must be finite, got {value}")
