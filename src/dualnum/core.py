"""Second-order dual numbers for forward-mode automatic differentiation.

A :class:`Dual3` carries a value together with its first and second
derivative with respect to a single scalar seed.  Seeding ``x`` as
``variable(x) == {x, 1, 0}`` and pushing it through any chain of the
arithmetic operators and elemental functions below yields the exact
derivatives of the chain (up to round-off), with none of the truncation
or cancellation error of finite differences.

The components are derivative-valued: ``f2`` stores ``f''`` itself, not
the Taylor coefficient ``f''/2``.  :class:`TaylorJet` provides the
coefficient-valued convention at arbitrary order for cross-checking and
experimentation; the solver modules operate on :class:`Dual3` only.

The whole chain rule lives in :func:`compose`:

    compose({f, f', f''} at g0, {g0, g1, g2}) = {f, f'*g1, f''*g1**2 + f'*g2}

Every dualized algorithm funnels through it, and every elemental lift
evaluates the same expression inline.

Operations build their results through one unchecked internal
constructor, and the NaN check runs there, once on each result rather
than on each operand.  Under IEEE arithmetic a NaN operand always gives
a NaN result, so an operation that receives or produces a NaN component
raises :class:`~dualnum.errors.DomainError`.  The operands whose NaN
need not reach the result, ``g.f0`` in :func:`compose` and
:func:`lift_elemental` and the base of ``x ** 0``, are checked
explicitly.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Union

from .errors import DomainError, ValidationError

Number = Union[int, float]

_MAX_INT_EXPONENT = 10 ** 6


def _scalar(value) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as Dual3")


def _as_dual(value) -> "Dual3":
    if isinstance(value, Dual3):
        return value
    return _mk(_scalar(value), 0.0, 0.0)


def _reject_nan(*operands: "Dual3") -> None:
    for d in operands:
        if d.f0 != d.f0 or d.f1 != d.f1 or d.f2 != d.f2:
            raise DomainError(f"NaN component in dual operand {d!r}")


def _zero_division(*operands: "Dual3"):
    # a NaN operand is reported as such, even with a zero denominator
    _reject_nan(*operands)
    raise ZeroDivisionError(
        "dual division by zero: denominator real part is 0.0"
    )


class Dual3:
    """A value with its first and second derivative: ``{f, f', f''}``.

    Instances are immutable and all operations are pure, so values may be
    shared and used from any number of threads.  An ``int`` or ``float``
    operand acts as the constant ``{c, 0, 0}``, bit for bit.
    """

    __slots__ = ("f0", "f1", "f2")
    __match_args__ = ("f0", "f1", "f2")

    f0: float
    f1: float
    f2: float

    def __init__(self, f0: Number, f1: Number = 0.0, f2: Number = 0.0):
        _set_f0(self, float(f0))
        _set_f1(self, float(f1))
        _set_f2(self, float(f2))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.f0, self.f1, self.f2) == (other.f0, other.f1, other.f2)

    def __hash__(self):
        return hash((self.f0, self.f1, self.f2))

    def __reduce__(self):
        return (Dual3, (self.f0, self.f1, self.f2))

    def __repr__(self) -> str:
        return f"Dual3({self.f0!r}, {self.f1!r}, {self.f2!r})"

    # -- arithmetic ----------------------------------------------------
    # A scalar c takes the place of {c, 0, 0} in the same expressions, so
    # signed zeros and inf * 0 come out as they would for a wrapped Dual3.
    def __add__(self, other) -> "Dual3":
        if isinstance(other, Dual3):
            return _mk(self.f0 + other.f0, self.f1 + other.f1,
                       self.f2 + other.f2)
        c = _scalar(other)
        return _mk(self.f0 + c, self.f1 + 0.0, self.f2 + 0.0)

    __radd__ = __add__

    def __sub__(self, other) -> "Dual3":
        if isinstance(other, Dual3):
            return _mk(self.f0 - other.f0, self.f1 - other.f1,
                       self.f2 - other.f2)
        c = _scalar(other)
        return _mk(self.f0 - c, self.f1 - 0.0, self.f2 - 0.0)

    def __rsub__(self, other) -> "Dual3":
        c = _scalar(other)
        return _mk(c - self.f0, 0.0 - self.f1, 0.0 - self.f2)

    def __mul__(self, other) -> "Dual3":
        a0, a1, a2 = self.f0, self.f1, self.f2
        if isinstance(other, Dual3):
            b0, b1, b2 = other.f0, other.f1, other.f2
            return _mk(a0 * b0, a1 * b0 + a0 * b1,
                       a2 * b0 + 2.0 * a1 * b1 + a0 * b2)
        c = _scalar(other)
        return _mk(a0 * c, a1 * c + a0 * 0.0,
                   a2 * c + 2.0 * a1 * 0.0 + a0 * 0.0)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Dual3":
        if isinstance(other, Dual3):
            b0, b1, b2 = other.f0, other.f1, other.f2
            if b0 == 0.0:
                _zero_division(self, other)
            q0 = self.f0 / b0
            q1 = (self.f1 - q0 * b1) / b0
            return _mk(q0, q1, (self.f2 - 2.0 * q1 * b1 - q0 * b2) / b0)
        c = _scalar(other)
        if c == 0.0:
            _zero_division(self)
        q0 = self.f0 / c
        q1 = (self.f1 - q0 * 0.0) / c
        return _mk(q0, q1, (self.f2 - 2.0 * q1 * 0.0 - q0 * 0.0) / c)

    def __rtruediv__(self, other) -> "Dual3":
        c = _scalar(other)
        b0, b1 = self.f0, self.f1
        if b0 == 0.0:
            _zero_division(Dual3(c), self)
        q0 = c / b0
        q1 = (0.0 - q0 * b1) / b0
        return _mk(q0, q1, (0.0 - 2.0 * q1 * b1 - q0 * self.f2) / b0)

    def __neg__(self) -> "Dual3":
        # the "neg" elemental's compose expression with its jet
        # {-g0, -1, 0} folded in: f2 is 0*g1*g1 - g2, which is +0.0, not
        # -0.0, when g2 is zero
        g1 = self.f1
        return _mk(-self.f0, -g1, 0.0 * g1 * g1 - self.f2)

    def __abs__(self) -> "Dual3":
        return lift_elemental("abs", self)

    def __pow__(self, exponent) -> "Dual3":
        # checked up front: x ** 0 returns a constant whatever x holds
        p = _as_dual(exponent)
        _reject_nan(self, p)
        if p.f1 == 0.0 and p.f2 == 0.0 and p.f0.is_integer():
            if abs(p.f0) <= _MAX_INT_EXPONENT:
                return self._int_power(int(p.f0))
        if self.f0 <= 0.0:
            raise DomainError(
                "pow needs base real part > 0 unless the exponent is a "
                f"constant integer; got base real part {self.f0}"
            )
        return exp(p * log(self))

    def __rpow__(self, base) -> "Dual3":
        return _as_dual(base).__pow__(self)

    def _int_power(self, k: int) -> "Dual3":
        if k == 0:
            if self.f0 == 0.0:
                raise DomainError("0**0 is undefined")
            return _mk(1.0, 0.0, 0.0)
        if k < 0:
            return _mk(1.0, 0.0, 0.0) / self._int_power(-k)
        # left-to-right binary powering: square per bit of k below the
        # leading one, then multiply by self where that bit is set; for
        # k <= 3 these are the products of repeated ``out * self``
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out


_new = object.__new__
_set_f0 = Dual3.f0.__set__
_set_f1 = Dual3.f1.__set__
_set_f2 = Dual3.f2.__set__


def _mk(r0: float, r1: float, r2: float) -> Dual3:
    """Unchecked constructor for float components: the internal route.

    NaN is trapped here, on every result, so solver divergence is
    reported at the operation that first sees or makes a NaN.
    """
    if r0 != r0 or r1 != r1 or r2 != r2:
        raise DomainError(
            f"NaN component in dual result Dual3({r0!r}, {r1!r}, {r2!r})"
        )
    d = _new(Dual3)
    _set_f0(d, r0)
    _set_f1(d, r1)
    _set_f2(d, r2)
    return d


def variable(x: Number) -> Dual3:
    """Seed ``x`` as the differentiation variable: ``{x, 1, 0}``."""
    if not math.isfinite(x):
        raise ValidationError(f"variable seed must be finite, got {x}")
    return _mk(float(x), 1.0, 0.0)


def constant(c: Number) -> Dual3:
    """Embed a constant: ``{c, 0, 0}``.  Derivatives stay zero forever."""
    if not math.isfinite(c):
        raise ValidationError(f"constant must be finite, got {c}")
    return _mk(float(c), 0.0, 0.0)


def compose(f_jet_at_g0: Dual3, g: Dual3) -> Dual3:
    """Chain rule for second-order jets.

    ``f_jet_at_g0`` must hold ``{f(g0), f'(g0), f''(g0)}`` with
    ``g0 == g.f0`` (the caller guarantees the evaluation point).  Returns
    the jet of ``f(g(.))`` with respect to the seed carried by ``g``.
    """
    # g.f0 does not reach the result, so its NaN is checked here
    if g.f0 != g.f0:
        raise DomainError(f"NaN component in dual operand {g!r}")
    g1 = g.f1
    return _mk(
        f_jet_at_g0.f0,
        f_jet_at_g0.f1 * g1,
        f_jet_at_g0.f2 * g1 * g1 + f_jet_at_g0.f1 * g.f2,
    )


# -- elemental functions ----------------------------------------------

def _require_positive(name: str) -> Callable[[float], None]:
    def check(x: float) -> None:
        if x <= 0.0:
            raise DomainError(
                f"{name} requires argument real part > 0, got {x}"
            )

    return check


def _abs_check(x: float) -> None:
    if x == 0.0:
        raise DomainError("abs is not differentiable at 0")


def _sign(x: float) -> float:
    return 1.0 if x > 0.0 else -1.0


def _sec2(x: float) -> float:
    c = math.cos(x)
    return 1.0 / (c * c)


# name -> (value, first derivative, second derivative, domain check); the
# three derivative functions take and return floats
ELEMENTALS: dict = {
    "sin": (math.sin, math.cos, lambda x: -math.sin(x), None),
    "cos": (math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x), None),
    "tan": (math.tan, _sec2, lambda x: 2.0 * math.tan(x) * _sec2(x), None),
    "exp": (math.exp, math.exp, math.exp, None),
    "log": (math.log, lambda x: 1.0 / x, lambda x: -1.0 / (x * x),
            _require_positive("log")),
    "sqrt": (math.sqrt,
             lambda x: 0.5 / math.sqrt(x),
             lambda x: -0.25 / (x * math.sqrt(x)),
             _require_positive("sqrt")),
    "abs": (abs, _sign, lambda x: 0.0, _abs_check),
    "neg": (lambda x: -x, lambda x: -1.0, lambda x: 0.0, None),
}


def lift_elemental(name: str, g: Dual3) -> Dual3:
    """Apply the named elemental to a dual argument by :func:`compose`'s rule."""
    try:
        value, first, second, check = ELEMENTALS[name]
    except KeyError:
        raise ValidationError(f"unknown elemental {name!r}") from None
    x = g.f0
    if x != x:
        raise DomainError(f"NaN component in dual operand {g!r}")
    if check is not None:
        check(x)
    try:
        j0, j1, j2 = value(x), first(x), second(x)
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"{name} failed at real part {x}: {exc}") from None
    # compose({j0, j1, j2}, g), inline
    g1 = g.f1
    return _mk(j0, j1 * g1, j2 * g1 * g1 + j1 * g.f2)


def sin(g: Dual3) -> Dual3:
    return lift_elemental("sin", g)


def cos(g: Dual3) -> Dual3:
    return lift_elemental("cos", g)


def tan(g: Dual3) -> Dual3:
    return lift_elemental("tan", g)


def exp(g: Dual3) -> Dual3:
    return lift_elemental("exp", g)


def log(g: Dual3) -> Dual3:
    return lift_elemental("log", g)


def sqrt(g: Dual3) -> Dual3:
    return lift_elemental("sqrt", g)


# -- truncated Taylor jets ---------------------------------------------

@dataclass(frozen=True)
class TaylorJet:
    """Taylor coefficients ``c_k = f^(k)(x)/k!`` truncated at a fixed order.

    The coefficient basis multiplies by truncated Cauchy convolution:
    cross terms beyond the order are dropped exactly.  Order 2 converts
    losslessly to and from :class:`Dual3` (``c2`` is ``f''/2``; the
    factor 2 is a power of two, so the round trip is bit-exact).
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) < 2:
            raise ValidationError("TaylorJet needs order >= 1 (2+ coefficients)")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def variable(cls, x: Number, order: int) -> "TaylorJet":
        if order < 1:
            raise ValidationError("order must be >= 1")
        return cls((float(x), 1.0) + (0.0,) * (order - 1))

    @classmethod
    def constant(cls, c: Number, order: int) -> "TaylorJet":
        if order < 1:
            raise ValidationError("order must be >= 1")
        return cls((float(c),) + (0.0,) * order)

    @classmethod
    def from_dual3(cls, d: Dual3) -> "TaylorJet":
        return cls((d.f0, d.f1, d.f2 / 2.0))

    def to_dual3(self) -> Dual3:
        if self.order != 2:
            raise ValidationError(
                f"only order-2 jets convert to Dual3, got order {self.order}"
            )
        c = self.coeffs
        return Dual3(c[0], c[1], 2.0 * c[2])

    def __mul__(self, other: "TaylorJet") -> "TaylorJet":
        return jet_mul(self, other)


def jet_mul(a: TaylorJet, b: TaylorJet) -> TaylorJet:
    """Truncated convolution: ``c_k = sum_{i+j=k} a_i b_j`` for ``k <= n``."""
    if a.order != b.order:
        raise ValidationError(
            f"jet order mismatch: {a.order} vs {b.order}"
        )
    n = a.order
    out = [0.0] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0.0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b.coeffs[j]
    return TaylorJet(tuple(out))
