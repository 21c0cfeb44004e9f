"""Second-order dual numbers for forward-mode automatic differentiation.

A :class:`Dual3` carries a value together with its first and second
derivative with respect to a single scalar seed.  Seeding ``x`` as
``variable(x) == {x, 1, 0}`` and pushing it through any chain of the
arithmetic operators and elemental functions below yields the exact
derivatives of the chain (up to round-off), with none of the truncation
or cancellation error of finite differences.

The components are derivative-valued: ``f2`` stores ``f''`` itself, not
the Taylor coefficient ``f''/2``.

The whole chain rule lives in one private helper, ``_chain``, on floats:

    chain({f, f', f''} at g0, {g0, g1, g2}) = (f, f'*g1, f''*g1**2 + f'*g2)

Every result is built by ``_mk`` around that float triple.  The two
float kernels, ``MechanismParams.loop_closure`` and
``fixtures.nr_example1_equation``, write it out for their jets.  Each
is a private ``_Kernel``, whose ``floats(u0, u1, u2, x0, x1, x2)`` must
return the result's three components, inf or NaN left in for ``_mk``.
:func:`compose` applies it to a jet given as a :class:`Dual3`, which is
also how a user-defined elemental is applied; each built-in elemental
(``sin`` ... ``sqrt`` and ``abs``) is a plain float function returning
its jet, and unary minus is the jet ``{-g0, -1, 0}``.  Each operator
has one formula: a number ``c`` on either side of it is ``Dual3(c)``.

Every :class:`Dual3` is built by the internal ``_mk``: it fills the
three slots of a ``_Fill``, the slot-only base of ``Dual3``, and then
retypes it to ``Dual3``.  It raises
:class:`~dualnum.errors.DomainError` for an infinite or NaN component:
every operation passes it its result, and ``Dual3(...)`` the components
read by ``_scalar``, the one number rule.  So an overflow, an invalid
operation such as ``inf - inf``, or a division by a zero real part stops
the computation at the operation where it happens, and no operation
need check its operands: they are finite by construction.
"""

from __future__ import annotations

import math

from .errors import DomainError, _Record, _complex, check_finite


def _scalar(value) -> float:
    """``float(value)`` for the kinds of real number ``check_finite``
    accepts; an inf or NaN is left for ``_mk`` to trap.  Text, a
    ``complex`` and sequences raise ``TypeError``."""
    try:
        if isinstance(value, (int, float)):
            return float(value)
        if _complex(value):
            raise TypeError
        math.isfinite(value)  # float() would parse text
        return float(value)
    except TypeError:
        raise TypeError(
            f"cannot interpret {type(value).__name__} as Dual3") from None
    except OverflowError:  # an int beyond float range, like an inf
        raise DomainError(
            f"{type(value).__name__} overflows a float") from None


def _as_dual(value) -> "Dual3":
    if isinstance(value, Dual3):
        return value
    return _mk(_scalar(value), 0.0, 0.0)


class _Fill:
    """The slots of a ``Dual3``, without ``_Record.__setattr__``."""

    __slots__ = ("f0", "f1", "f2")


class Dual3(_Fill, _Record):
    """A value with its first and second derivative: ``{f, f', f''}``.

    Instances are immutable and all operations are pure, so values may be
    shared and used from any number of threads.  A component and a number
    operand are read by one rule; an operand acts as ``{c, 0, 0}``, bit
    for bit.  ``inf`` and ``nan`` raise ``DomainError``, except in
    ``d / inf``, which gives signed zeros.
    """

    __slots__ = ()
    __match_args__ = ("f0", "f1", "f2")

    f0: float
    f1: float
    f2: float

    def __new__(cls, f0: float, f1: float = 0.0, f2: float = 0.0):
        return _mk(_scalar(f0), _scalar(f1), _scalar(f2))

    def __repr__(self) -> str:
        return f"Dual3({self.f0!r}, {self.f1!r}, {self.f2!r})"

    # -- arithmetic ----------------------------------------------------
    # A number operand c is {c, 0, 0}, read into b0, b1, b2 like a Dual3's.
    def __add__(self, other) -> "Dual3":
        if isinstance(other, Dual3):
            b0, b1, b2 = other.f0, other.f1, other.f2
        else:
            b0, b1, b2 = _scalar(other), 0.0, 0.0
        return _mk(self.f0 + b0, self.f1 + b1, self.f2 + b2)

    __radd__ = __add__

    def __sub__(self, other) -> "Dual3":
        if isinstance(other, Dual3):
            b0, b1, b2 = other.f0, other.f1, other.f2
        else:
            b0, b1, b2 = _scalar(other), 0.0, 0.0
        return _mk(self.f0 - b0, self.f1 - b1, self.f2 - b2)

    def __rsub__(self, other) -> "Dual3":
        return _as_dual(other) - self

    def __mul__(self, other) -> "Dual3":
        if isinstance(other, Dual3):
            b0, b1, b2 = other.f0, other.f1, other.f2
        else:
            b0, b1, b2 = _scalar(other), 0.0, 0.0
        a0, a1 = self.f0, self.f1
        return _mk(a0 * b0, a1 * b0 + a0 * b1,
                   self.f2 * b0 + 2.0 * a1 * b1 + a0 * b2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Dual3":
        if isinstance(other, Dual3):
            b0, b1, b2 = other.f0, other.f1, other.f2
        else:
            b0, b1, b2 = _scalar(other), 0.0, 0.0
        if b0 == 0.0:
            raise DomainError(
                "dual division by zero: denominator real part is 0.0")
        q0 = self.f0 / b0
        q1 = (self.f1 - q0 * b1) / b0
        return _mk(q0, q1, (self.f2 - 2.0 * q1 * b1 - q0 * b2) / b0)

    def __rtruediv__(self, other) -> "Dual3":
        return _as_dual(other) / self

    def __neg__(self) -> "Dual3":
        # the jet of -x: f2 is 0*g1*g1 - g2, +0.0 when g2 is zero
        return _mk(*_chain(-self.f0, -1.0, 0.0, self))

    def __abs__(self) -> "Dual3":
        return _lift("abs", _abs, self)

    def __pow__(self, exponent) -> "Dual3":
        p = _as_dual(exponent)
        if p.f1 == 0.0 and p.f2 == 0.0 and p.f0.is_integer():
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
            p = self._int_power(-k)
            if p.f0 == 0.0 and self.f0 != 0.0:
                raise DomainError(
                    f"x ** {float(k):g} overflows a float: x ** "
                    f"{float(-k):g} underflows to 0 at real part {self.f0}")
            return _mk(1.0, 0.0, 0.0) / p
        # left-to-right binary powering: square per bit of k below the
        # leading one, then multiply by self where that bit is set; for
        # k <= 3 these are the products of repeated ``out * self``
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out


def _mk(r0: float, r1: float, r2: float) -> Dual3:
    """Build a Dual3 from float components: the one route for all.

    An infinite or NaN component is trapped here, on every result, so
    an overflow or solver divergence is reported at the operation that
    first makes it.  ``0.0 * r`` is a zero exactly when ``r`` is finite.

    A ``Dual3`` refuses assignment, so the slots are filled by plain
    stores on a ``_Fill``, the same layout without that refusal, and one
    ``__class__`` assignment makes it a ``Dual3``: 0.23 µs on CPython
    3.11 (0.17 on 3.13) against 0.40 (0.22) for ``object.__new__`` and
    three slot ``__set__`` calls (pinned, min of 7 x 200 000).
    """
    if 0.0 * r0 * r1 * r2 != 0.0:
        kind = "NaN" if r0 != r0 or r1 != r1 or r2 != r2 else "non-finite"
        raise DomainError(
            f"{kind} component in Dual3({r0!r}, {r1!r}, {r2!r})")
    d = _Fill()
    d.f0 = r0
    d.f1 = r1
    d.f2 = r2
    d.__class__ = Dual3
    return d


class _Kernel:
    """A residual ``F(u, x)`` as float code: ``floats`` maps the
    components of ``u`` and ``x`` to those of ``F(u, x)``, which a call
    builds by ``_mk``; :func:`~dualnum.rootfind.find_root` calls
    ``floats`` itself.  ``floats`` may raise ``DomainError`` where the
    operator form raises before its last operation."""

    __slots__ = ("floats",)

    def __init__(self, floats: "Callable[..., tuple]"):
        self.floats = floats

    def __call__(self, u: Dual3, x: Dual3) -> Dual3:
        return _mk(*self.floats(u.f0, u.f1, u.f2, x.f0, x.f1, x.f2))


def variable(x: float) -> Dual3:
    """Seed ``x`` as the differentiation variable: ``{x, 1, 0}``."""
    return _mk(check_finite("variable seed", x), 1.0, 0.0)


def constant(c: float) -> Dual3:
    """Embed a constant: ``{c, 0, 0}``.  Derivatives stay zero forever."""
    return _mk(check_finite("constant", c), 0.0, 0.0)


def _chain(j0: float, j1: float, j2: float, g: Dual3) -> tuple:
    """The chain rule on floats: ``{j0, j1, j2}`` is f's jet at ``g.f0``."""
    g1 = g.f1
    return j0, j1 * g1, j2 * g1 * g1 + j1 * g.f2


def compose(f_jet_at_g0: Dual3, g: Dual3) -> Dual3:
    """Chain rule for second-order jets.

    ``f_jet_at_g0`` must hold ``{f(g0), f'(g0), f''(g0)}`` with
    ``g0 == g.f0`` (the caller guarantees the evaluation point).  Returns
    the jet of ``f(g(.))`` with respect to the seed carried by ``g``.
    This is also how a user-defined elemental is applied.
    """
    return _mk(*_chain(f_jet_at_g0.f0, f_jet_at_g0.f1, f_jet_at_g0.f2, g))


# -- elemental functions ----------------------------------------------
# Each jet takes a float x and returns (f(x), f'(x), f''(x)), raising
# DomainError outside its domain.

def _positive(name: str, x: float) -> None:
    if x <= 0.0:
        raise DomainError(f"{name} requires argument real part > 0, got {x}")


def _sin(x: float) -> tuple:
    s = math.sin(x)
    return s, math.cos(x), -s


def _cos(x: float) -> tuple:
    c = math.cos(x)
    return c, -math.sin(x), -c


def _tan(x: float) -> tuple:
    t, c = math.tan(x), math.cos(x)
    sec2 = 1.0 / (c * c)
    return t, sec2, 2.0 * t * sec2


def _exp(x: float) -> tuple:
    e = math.exp(x)
    return e, e, e


def _log(x: float) -> tuple:
    _positive("log", x)
    return math.log(x), 1.0 / x, -1.0 / (x * x)


def _sqrt(x: float) -> tuple:
    _positive("sqrt", x)
    r = math.sqrt(x)
    return r, 0.5 / r, -0.25 / (x * r)


def _abs(x: float) -> tuple:
    if x == 0.0:
        raise DomainError("abs is not differentiable at 0")
    return abs(x), 1.0 if x > 0.0 else -1.0, 0.0


def _lift(name: str, jet: "Callable[[float], tuple]", g: Dual3) -> Dual3:
    """Apply an elemental's jet to a dual argument by :func:`_chain`."""
    x = g.f0
    try:
        # a jet that overflows or underflows to a zero divisor raises
        # here; one that returns inf or NaN is trapped by _mk
        j0, j1, j2 = jet(x)
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"{name} failed at real part {x}: {exc}") from None
    return _mk(*_chain(j0, j1, j2, g))


def sin(g: Dual3) -> Dual3:
    return _lift("sin", _sin, g)


def cos(g: Dual3) -> Dual3:
    return _lift("cos", _cos, g)


def tan(g: Dual3) -> Dual3:
    return _lift("tan", _tan, g)


def exp(g: Dual3) -> Dual3:
    return _lift("exp", _exp, g)


def log(g: Dual3) -> Dual3:
    return _lift("log", _log, g)


def sqrt(g: Dual3) -> Dual3:
    return _lift("sqrt", _sqrt, g)
