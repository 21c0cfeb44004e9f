import itertools
import math
import operator
import pickle
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualnum import (
    Dual3,
    DomainError,
    NumericalError,
    ValidationError,
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
from dualnum.reference import central_diff

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
# divisor components kept small relative to the real part so the quotient
# rule's round-off amplification stays below the asserted tolerance
small = st.floats(min_value=-10.0, max_value=10.0)
away_from_zero = st.one_of(
    st.floats(min_value=0.5, max_value=10.0),
    st.floats(min_value=-10.0, max_value=-0.5),
)


# name -> (dual elemental, float value function as its oracle)
ELEMENTAL_FNS = {
    "sin": (sin, math.sin),
    "cos": (cos, math.cos),
    "tan": (tan, math.tan),
    "exp": (exp, math.exp),
    "log": (log, math.log),
    "sqrt": (sqrt, math.sqrt),
    "abs": (abs, abs),
}


def duals(f0=finite):
    return st.builds(Dual3, f0, finite, finite)


well_conditioned = st.builds(Dual3, away_from_zero, small, small)


def assert_close(d: Dual3, expected, tol=1e-12):
    for got, want in zip((d.f0, d.f1, d.f2), expected):
        assert got == pytest.approx(want, abs=tol)


class TestSeeding:
    def test_variable(self):
        assert variable(0.7) == Dual3(0.7, 1.0, 0.0)
        assert variable(0) == Dual3(0.0, 1.0, 0.0)
        assert variable(2.0) == Dual3(2.0, 1.0, 0.0)

    def test_constant(self):
        assert constant(3) == Dual3(3.0, 0.0, 0.0)
        assert constant(0) == Dual3(0.0, 0.0, 0.0)
        assert constant(-1.5) == Dual3(-1.5, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_seed_rejected(self, bad):
        with pytest.raises(ValidationError):
            variable(bad)
        with pytest.raises(ValidationError):
            constant(bad)


class TestArithmetic:
    def test_mul_leibniz_example(self):
        assert_close(Dual3(1, 2, 0) * Dual3(3, 4, 0), (3, 10, 16), tol=0)

    def test_div_constants(self):
        assert_close(Dual3(1, 0, 0) / Dual3(2, 0, 0), (0.5, 0, 0), tol=0)

    def test_div_by_zero_real_part(self):
        with pytest.raises(DomainError, match="real part"):
            variable(1.0) / Dual3(0.0, 1.0, 0.0)
        with pytest.raises(DomainError, match="real part"):
            variable(1.0) / 0
        with pytest.raises(DomainError, match="real part"):
            1.0 / Dual3(-0.0, 1.0, 0.0)

    def test_scalar_coercion(self):
        x = variable(2.0)
        assert 2.0 * x == x * 2.0 == x + x
        assert (1.0 - x).f0 == -1.0
        assert (6.0 / constant(3.0)).f0 == 2.0

    @given(duals(), well_conditioned)
    def test_div_inverts_mul(self, a, b):
        q = (a * b) / b
        scale = max(1.0, abs(a.f0), abs(a.f1), abs(a.f2))
        assert abs(q.f0 - a.f0) <= 1e-12 * scale
        assert abs(q.f1 - a.f1) <= 1e-12 * scale
        assert abs(q.f2 - a.f2) <= 1e-12 * scale

    @given(duals(), duals())
    def test_leibniz_law_exact(self, a, b):
        p = a * b
        assert p.f2 == a.f2 * b.f0 + 2.0 * a.f1 * b.f1 + a.f0 * b.f2

    @given(finite, finite, finite, finite)
    def test_constant_chains_stay_constant(self, c1, c2, c3, c4):
        r = constant(c1) * constant(c2) + constant(c3) - constant(c4)
        if abs(c4) > 1e-3:
            r = r / constant(c4)
        assert r.f1 == 0.0 and r.f2 == 0.0


def same_float(x: float, y: float) -> bool:
    """Equal including the sign of zero (results are never NaN)."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def same_dual(a: Dual3, b: Dual3) -> bool:
    return all(same_float(x, y)
               for x, y in zip((a.f0, a.f1, a.f2), (b.f0, b.f1, b.f2)))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


def same_outcome(got, want) -> bool:
    if isinstance(got, Dual3) and isinstance(want, Dual3):
        return same_dual(got, want)
    return got == want


inf = float("inf")
nan = float("nan")
MAX = sys.float_info.max
# finite components at the edges: signed zeros, subnormals, huge values
edge_components = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e-200, 1e200,
                     1e308, -1e308, MAX, -MAX]),
    st.floats(allow_nan=False, allow_infinity=False),
)
edge_duals = st.builds(Dual3, edge_components, edge_components,
                       edge_components)
scalars = st.one_of(edge_components, st.sampled_from([inf, -inf]),
                    st.integers(min_value=-10 ** 6, max_value=10 ** 6))
OPS = [operator.add, operator.sub, operator.mul, operator.truediv]
# c op d evaluated with c wrapped: + and * keep the Dual3 on the left
# (__radd__ and __rmul__ are __add__ and __mul__), - and / put Dual3(c)
# there; Dual3 * is not bitwise commutative (2 * a1 * 0.0 can be inf * 0)
WRAPPED_REFLECTED = {
    operator.add: lambda c, d: d + Dual3(c),
    operator.sub: lambda c, d: Dual3(c) - d,
    operator.mul: lambda c, d: d * Dual3(c),
    operator.truediv: lambda c, d: Dual3(c) / d,
}


class TestScalarOperands:
    @given(edge_duals, scalars, st.sampled_from(OPS))
    @settings(max_examples=400)
    def test_scalar_matches_wrapped_constant(self, d, c, op):
        wrapped = outcome(Dual3, c)
        if wrapped is DomainError:
            # no Dual3 holds an infinite c, so there is nothing to match:
            # the scalar op gives a (finite) Dual3 or raises DomainError
            for got in (outcome(op, d, c), outcome(op, c, d)):
                assert isinstance(got, Dual3) or got is DomainError
            return
        assert same_outcome(outcome(op, d, c), outcome(op, d, wrapped))
        assert same_outcome(outcome(op, c, d),
                            outcome(WRAPPED_REFLECTED[op], c, d))

    def test_signed_zero_is_kept(self):
        d = Dual3(1.0, -0.0, -0.0)
        assert math.copysign(1.0, (d + 0.0).f1) == 1.0
        assert math.copysign(1.0, (d - 0.0).f1) == -1.0
        assert math.copysign(1.0, (0.0 - d).f1) == 1.0
        assert math.copysign(1.0, (d * 1.0).f1) == 1.0

    # A number c enters each operator's one formula as {c, 0, 0}.  These
    # pin a reflected signed zero and the infinite or NaN c, for which the
    # property test above has no Dual3 to compare against.
    @pytest.mark.parametrize("build, want", [
        (lambda d: d / inf, (0.0, -0.0, 0.0)),
        (lambda d: d / -inf, (-0.0, -0.0, -0.0)),
        (lambda d: -0.0 / d, (-0.0, 0.0, 0.0)),
    ], ids=["d/inf", "d/-inf", "-0.0/d"])
    def test_signed_zero_outcomes(self, build, want):
        got = build(Dual3(1.5, -0.0, 2.0))
        got = (got.f0, got.f1, got.f2)
        assert got == want
        assert [math.copysign(1.0, v) for v in got] == [
            math.copysign(1.0, v) for v in want]

    # c / d forwards to Dual3(c) / d: every pairing of these values,
    # signed zeros and zero divisors included, gives its bits or exception.
    def test_reflected_division_matches_wrapped_constant(self):
        values = [0.0, -0.0, 5e-324, 1.0, -1.5, 1e200, -MAX]
        for c in values:
            for f0, f1, f2 in itertools.product(values, repeat=3):
                d = Dual3(f0, f1, f2)
                assert same_outcome(outcome(operator.truediv, c, d),
                                    outcome(operator.truediv, Dual3(c), d))

    # c - d and c / d build Dual3(c) before they read d, so a bad c is
    # named as that Dual3 whatever d holds, even a zero divisor.
    @pytest.mark.parametrize("op, at_zero", [
        (operator.sub, Dual3(1.0, -1.0, 0.0)),
        (operator.truediv, DomainError),
    ], ids=["c-d", "c/d"])
    def test_reflected_operator_reads_its_operand_first(self, op, at_zero):
        zero = Dual3(-0.0, 1.0, 0.0)
        with pytest.raises(TypeError, match="cannot interpret"):
            op("1", zero)
        with pytest.raises(DomainError, match=re.escape(
                "non-finite component in Dual3(inf, 0.0, 0.0)")):
            op(inf, zero)
        with pytest.raises(DomainError, match=re.escape(
                "NaN component in Dual3(nan, 0.0, 0.0)")):
            op(nan, zero)
        assert same_outcome(outcome(op, 1.0, zero), at_zero)

    @pytest.mark.parametrize("build", [
        lambda d: d + inf, lambda d: inf - d, lambda d: d * inf,
        lambda d: inf / d, lambda d: nan / d, lambda d: d / nan,
    ], ids=["d+inf", "inf-d", "d*inf", "inf/d", "nan/d", "d/nan"])
    def test_non_finite_scalar_outcome_raises(self, build):
        with pytest.raises(DomainError):
            build(Dual3(1.5, -0.0, 2.0))

    # The numbers check_finite accepts, as a component and as an operand
    # in either order, give the bits of float(v).
    @pytest.mark.parametrize("v", [
        np.float64(3.0), np.int64(2), np.float32(0.1), np.float16(1.5),
        Fraction(1, 3), Decimal("0.1"), True, np.array(0.3),
    ], ids=["float64", "int64", "float32", "float16", "Fraction",
            "Decimal", "bool", "0d-array"])
    def test_numpy_scalar_is_coerced(self, v):
        c, d = float(v), Dual3(1.25, -0.5, 2.0)
        for got, want in [(Dual3(v), Dual3(c)), (d + v, d + c),
                          (v * d, c * d), (d / v, d / c)]:
            assert all(type(x) is float for x in (got.f0, got.f1, got.f2))
            assert same_dual(got, want)

    @pytest.mark.parametrize("v", [
        "1", b"1", bytearray(b"1"), np.str_("1"), 1 + 0j, [1.0],
        np.complex128(1 + 2j), np.complex64(1 + 2j),
    ], ids=["str", "bytes", "bytearray", "numpy-str", "complex", "list",
            "complex128", "complex64"])
    def test_non_number_rejected(self, v):
        for build in (Dual3, lambda v: variable(1.0) + v,
                      lambda v: v * variable(1.0)):
            with pytest.raises(TypeError, match="cannot interpret"):
                build(v)

    # An int beyond float range is typed like an infinite float: an
    # operand or component raises DomainError, a seed ValidationError.
    @pytest.mark.parametrize("build, error", [
        (lambda big: variable(1.0) + big, DomainError),
        (lambda big: variable(1.0) * big, DomainError),
        (lambda big: big / variable(2.0), DomainError),
        (lambda big: variable(2.0) ** big, DomainError),
        (lambda big: Dual3(big), DomainError),
        (lambda big: variable(big), ValidationError),
        (lambda big: constant(big), ValidationError),
    ], ids=["add", "mul", "rtruediv", "pow", "Dual3", "variable", "constant"])
    def test_int_beyond_float_range_is_typed(self, build, error):
        for big in (10 ** 400, -10 ** 400, 10 ** 5000):
            with pytest.raises(error, match="float|finite"):
                build(big)


def check_finite_or_numerical_error(fn, *args):
    """``fn(*args)`` is a Dual3 of finite components or raises a
    NumericalError; any other exception propagates and fails the test."""
    try:
        r = fn(*args)
    except NumericalError:
        return
    assert isinstance(r, Dual3)
    assert all(math.isfinite(x) for x in (r.f0, r.f1, r.f2))


UNARY_OPS = [operator.neg, abs, sin, cos, tan, exp, log, sqrt]
BINARY_OPS = [operator.add, operator.sub, operator.mul, operator.truediv,
              operator.pow]


class TestNanTrap:
    """No Dual3 holds an inf or NaN: ``Dual3(...)`` and every operation's
    result are checked where they are built."""

    @pytest.mark.parametrize("bad", [nan, inf, -inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_constructor_rejects_non_finite(self, slot, bad):
        components = [1.0, 0.0, 0.0]
        components[slot] = bad
        with pytest.raises(DomainError, match="NaN" if bad != bad
                           else "non-finite"):
            Dual3(*components)

    def test_nan_produced_from_non_nan_operands(self):
        # 2 * MAX overflows to inf, and inf * 0.0 is NaN
        with pytest.raises(DomainError, match="NaN"):
            Dual3(1.0, MAX, 0.0) * 0.0
        with pytest.raises(DomainError, match="non-finite"):
            variable(1e200) * variable(1e200)
        with pytest.raises(DomainError, match="non-finite"):
            Dual3(1e308) + 1e308

    def test_nan_scalar_operand(self):
        with pytest.raises(DomainError, match="NaN"):
            variable(1.0) + float("nan")

    def test_zero_power_of_nan_base(self):
        # x ** 0 ignores its base, whose NaN is stopped when it is built
        with pytest.raises(DomainError, match="NaN"):
            Dual3(1.0, nan, 0.0) ** 0
        assert Dual3(1.0, MAX, -MAX) ** 0 == Dual3(1.0)

    def test_compose_checks_argument_value(self):
        # g.f0 does not reach compose's result: its NaN is stopped when
        # g is built, and an overflowing result where it is made
        with pytest.raises(DomainError, match="NaN"):
            compose(Dual3(0.5, 1.5, -2.0), Dual3(nan, 1.0, 0.0))
        with pytest.raises(DomainError, match="non-finite"):
            compose(Dual3(0.5, 1.5, -2.0), Dual3(0.5, 1e200, 0.0))

    @pytest.mark.parametrize("name", ELEMENTAL_FNS)
    def test_elemental_checks_argument_value(self, name):
        fn = ELEMENTAL_FNS[name][0]
        with pytest.raises(DomainError, match="NaN"):
            fn(Dual3(nan, 1.0, 0.0))
        check_finite_or_numerical_error(fn, Dual3(MAX, MAX, MAX))

    @given(edge_duals, edge_duals, scalars)
    @example(variable(1e200), variable(1e200), inf)
    @example(variable(1e-200), Dual3(-2.0), 1e-160)
    @example(Dual3(0.0, MAX, -MAX), Dual3(-0.0, 5e-324, 0.0), -inf)
    @settings(max_examples=300, derandomize=True, database=None)
    def test_results_are_finite_or_numerical_error(self, a, b, c):
        for fn in UNARY_OPS:
            check_finite_or_numerical_error(fn, a)
        for op in BINARY_OPS:
            check_finite_or_numerical_error(op, a, b)
            check_finite_or_numerical_error(op, a, c)
            check_finite_or_numerical_error(op, c, a)
        check_finite_or_numerical_error(compose, a, b)

    def test_neg_matches_registry_route(self):
        for d in (Dual3(1.0, 2.0, 0.0), Dual3(-0.0, -0.0, -0.0),
                  Dual3(3.0, -1.5, 2.5)):
            assert same_dual(-d, compose(Dual3(-d.f0, -1.0, 0.0), d))


class TestValueSemantics:
    def test_immutable(self):
        d = Dual3(1.0, 2.0, 3.0)
        with pytest.raises(AttributeError):
            d.f0 = 1
        with pytest.raises(AttributeError):
            del d.f1
        with pytest.raises(AttributeError):
            d.extra = 1

    def test_constructor_coerces(self):
        d = Dual3(1, 2, 3)
        assert all(type(x) is float for x in (d.f0, d.f1, d.f2))
        assert Dual3(1) == Dual3(f0=1.0, f1=0.0, f2=0.0)

    def test_eq_and_hash(self):
        assert Dual3(1, 2, 3) == Dual3(1.0, 2.0, 3.0)
        assert hash(Dual3(1, 2, 3)) == hash(Dual3(1.0, 2.0, 3.0))
        assert Dual3(1, 0, 0) != (1.0, 0.0, 0.0)
        assert Dual3(1, 2, 3) != Dual3(1, 2, 4)

    def test_repr(self):
        assert repr(Dual3(1, -0.5, 2e-300)) == "Dual3(1.0, -0.5, 2e-300)"

    def test_pickle_round_trip(self):
        d = Dual3(1.25, -0.0, 3.5)
        back = pickle.loads(pickle.dumps(d))
        assert back == d and type(back) is Dual3


class TestElementals:
    def test_sin_at_zero(self):
        assert_close(sin(Dual3(0, 1, 0)), (0, 1, 0), tol=0)

    def test_sin_with_general_seed(self):
        assert_close(sin(Dual3(math.pi, 2, 1)), (0, -2, -1), tol=1e-14)

    def test_exp_all_components(self):
        e = math.e
        assert_close(exp(Dual3(1, 1, 0)), (e, e, e), tol=1e-15)

    @pytest.mark.parametrize("name", ["log", "sqrt"])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_positive_domain(self, name, bad):
        with pytest.raises(DomainError, match=name):
            ELEMENTAL_FNS[name][0](variable(bad))

    def test_abs_at_zero(self):
        with pytest.raises(DomainError):
            abs(variable(0.0))

    def test_abs_away_from_zero(self):
        assert_close(abs(variable(-2.0)), (2.0, -1.0, 0.0), tol=0)

    def test_neg(self):
        assert_close(-Dual3(1.0, 2.0, 3.0), (-1.0, -2.0, -3.0), tol=0)

    def test_exp_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="exp"):
            exp(variable(1000.0))

    @pytest.mark.parametrize("name,x", [
        ("log", 1e-200),   # x * x underflows to a zero divisor
        ("sqrt", 1e-250),  # so does x * sqrt(x)
        ("log", 1e-160),   # -1 / (x * x) overflows to -inf
    ])
    def test_tiny_argument_is_domain_error(self, name, x):
        with pytest.raises(DomainError):
            ELEMENTAL_FNS[name][0](variable(x))

    @pytest.mark.parametrize("name,sampler", [
        ("sin", lambda rng: rng.uniform(-3, 3)),
        ("cos", lambda rng: rng.uniform(-3, 3)),
        ("tan", lambda rng: rng.uniform(-1.0, 1.0)),
        ("exp", lambda rng: rng.uniform(-2, 2)),
        ("log", lambda rng: rng.uniform(0.2, 5.0)),
        ("sqrt", lambda rng: rng.uniform(0.2, 5.0)),
        ("abs", lambda rng: rng.uniform(0.2, 3.0) * rng.choice([-1, 1])),
    ])
    def test_matches_finite_differences(self, name, sampler):
        rng = np.random.RandomState(42)
        fn, value = ELEMENTAL_FNS[name]
        for _ in range(25):
            x = float(sampler(rng))
            d = fn(variable(x))
            fd1 = central_diff(lambda t: value(t), x, 1)
            fd2 = central_diff(lambda t: value(t), x, 2)
            assert abs(d.f1 - fd1) <= 1e-6 * max(1.0, abs(d.f1))
            assert abs(d.f2 - fd2) <= 1e-4 * max(1.0, abs(d.f2))


class TestPow:
    def test_cube_at_two(self):
        assert_close(variable(2.0) ** 3, (8, 12, 12), tol=0)

    def test_identity_power(self):
        for x in (-3.5, 0.0, 2.0, 7.25):
            assert variable(x) ** 1 == variable(x)

    def test_sqrt_via_half_power(self):
        assert_close(variable(4.0) ** 0.5, (2.0, 0.25, -0.03125), tol=1e-14)

    def test_dual_exponent(self):
        # d/dx x^x at 2: x^x (ln x + 1); second derivative known closed form
        x = variable(2.0)
        r = x ** x
        v = 4.0
        d1 = v * (math.log(2.0) + 1.0)
        d2 = v * ((math.log(2.0) + 1.0) ** 2 + 0.5)
        assert_close(r, (v, d1, d2), tol=1e-12)

    def test_negative_base_integer_exponent(self):
        assert_close(variable(-2.0) ** 3, (-8, 12, -12), tol=0)
        assert_close(variable(-2.0) ** -1, (-0.5, -0.25, -0.25), tol=1e-15)
        # constant integer exponents above 10**6 take the same route
        assert same_dual(Dual3(-1.0) ** 2_000_000, Dual3(1.0, -0.0, 0.0))
        assert same_dual(variable(-1.0) ** 2_000_001,
                         Dual3(-1.0, 2000001.0, -4000002000000.0))

    def test_zero_power_is_one(self):
        assert same_dual(variable(2.0) ** 0, Dual3(1.0, 0.0, 0.0))

    def test_negative_power_of_underflowing_base_overflows(self):
        with pytest.raises(DomainError, match=r"x \*\* -2 overflows a float"):
            variable(1e-200) ** -2
        with pytest.raises(DomainError, match=r"x \*\* -1e\+300 overflows"):
            variable(0.9) ** -1e300
        with pytest.raises(DomainError, match="non-finite component"):
            variable(1.0) ** 1e300
        with pytest.raises(DomainError, match="division by zero"):
            variable(0.0) ** -2

    def test_zero_to_zero_rejected(self):
        with pytest.raises(DomainError):
            variable(0.0) ** 0

    def test_negative_base_fractional_exponent_rejected(self):
        with pytest.raises(DomainError):
            variable(-2.0) ** 0.5

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_small_powers_are_repeated_products(self, k):
        for d in (variable(1.1), Dual3(-0.7, 0.3, -2.0), Dual3(3.0, -0.0)):
            want = d
            for _ in range(k - 1):
                want = want * d
            assert same_dual(d ** k, want)

    @given(st.one_of(st.floats(min_value=0.5, max_value=2.0),
                     st.floats(min_value=-2.0, max_value=-0.5)),
           st.integers(min_value=1, max_value=64))
    def test_integer_power_closed_form(self, x, k):
        got = variable(x) ** k
        want = (x ** k, k * x ** (k - 1), k * (k - 1) * x ** (k - 2))
        for g, w in zip((got.f0, got.f1, got.f2), want):
            assert abs(g - w) <= 1e-13 * abs(w)

    def test_large_integer_power_closed_form(self):
        x, k = 1.000001, 200000
        got = variable(x) ** k
        want = (x ** k, k * x ** (k - 1), k * (k - 1) * x ** (k - 2))
        for g, w in zip((got.f0, got.f1, got.f2), want):
            assert abs(g - w) <= 1e-10 * abs(w)  # about k * eps

    def test_rpow(self):
        r = 2.0 ** variable(3.0)
        ln2 = math.log(2.0)
        assert_close(r, (8.0, 8.0 * ln2, 8.0 * ln2 * ln2), tol=1e-13)


def tan_jet(x):
    sec2 = 1.0 / (math.cos(x) * math.cos(x))
    return math.tan(x), sec2, 2.0 * math.tan(x) * sec2


# name -> {f, f', f''} at x, in closed form
JETS = {
    "sin": lambda x: (math.sin(x), math.cos(x), -math.sin(x)),
    "cos": lambda x: (math.cos(x), -math.sin(x), -math.cos(x)),
    "tan": tan_jet,
    "exp": lambda x: (math.exp(x),) * 3,
    "log": lambda x: (math.log(x), 1.0 / x, -1.0 / (x * x)),
    "sqrt": lambda x: (math.sqrt(x), 0.5 / math.sqrt(x),
                       -0.25 / (x * math.sqrt(x))),
    "abs": lambda x: (abs(x), math.copysign(1.0, x), 0.0),
}


class TestCompose:
    @pytest.mark.parametrize("name", ELEMENTAL_FNS)
    def test_elemental_is_compose_of_its_jet(self, name):
        fn = ELEMENTAL_FNS[name][0]
        xs = [0.1 * k + 0.05 for k in range(1, 40)]
        if name not in ("log", "sqrt"):
            xs += [-x for x in xs]
        tangents = (0.0, -0.0, 1.5, -2.0)
        for x in xs:
            jet = Dual3(*JETS[name](x))
            for g1 in tangents:
                for g2 in tangents:
                    g = Dual3(x, g1, g2)
                    assert same_dual(fn(g), compose(jet, g)), (x, g1, g2)

    def test_sin_jet_with_scaled_seed(self):
        assert_close(compose(Dual3(0, 1, 0), Dual3(0, 2, 0)), (0, 2, 0), tol=0)

    def test_identity_seed_is_noop(self):
        jet = Dual3(1.7, -0.3, 2.2)
        assert compose(jet, Dual3(5.0, 1.0, 0.0)) == jet

    def test_against_explicit_product_chain(self):
        g = Dual3(2.0, 3.0, 4.0)
        via_compose = compose(Dual3(8.0, 12.0, 12.0), g)  # cube jet at 2
        via_products = g * g * g
        assert_close(via_compose, (8.0, 36.0, 156.0), tol=0)
        assert via_compose == via_products

    @pytest.mark.parametrize("outer,mid,inner", [
        ("exp", "sin", "cos"),
        ("log", "exp", "sin"),
        ("sin", "sqrt", "exp"),
    ])
    def test_nested_lift_associativity(self, outer, mid, inner):
        x = 0.8
        outer, mid, inner = (ELEMENTAL_FNS[n][0] for n in (outer, mid, inner))
        h = inner(variable(x))
        left = outer(mid(h))
        # (outer . mid) jet built at h's value, then composed over h
        fg_jet = outer(mid(variable(h.f0)))
        right = compose(fg_jet, h)
        assert_close(left, (right.f0, right.f1, right.f2), tol=1e-12)

