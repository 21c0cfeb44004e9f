import math
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualnum import (
    Dual3,
    DomainError,
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
from dualnum.reference import TaylorJet, central_diff, jet_mul

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
        with pytest.raises(ZeroDivisionError, match="real part"):
            variable(1.0) / Dual3(0.0, 1.0, 0.0)

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

    def test_nan_component_trapped_at_next_op(self):
        poisoned = Dual3(1.0, float("nan"), 0.0)
        with pytest.raises(DomainError, match="NaN"):
            poisoned * variable(1.0)
        with pytest.raises(DomainError, match="NaN"):
            sin(Dual3(float("nan"), 0.0, 0.0))


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
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, inf, -inf, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=True),
)
scalars = st.one_of(edge_floats, st.integers(min_value=-10 ** 6,
                                             max_value=10 ** 6))
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
    @given(st.builds(Dual3, edge_floats, edge_floats, edge_floats),
           scalars, st.sampled_from(OPS))
    @settings(max_examples=400)
    def test_scalar_matches_wrapped_constant(self, d, c, op):
        assert same_outcome(outcome(op, d, c), outcome(op, d, Dual3(c)))
        assert same_outcome(outcome(op, c, d),
                            outcome(WRAPPED_REFLECTED[op], c, d))

    def test_signed_zero_is_kept(self):
        d = Dual3(1.0, -0.0, -0.0)
        assert math.copysign(1.0, (d + 0.0).f1) == 1.0
        assert math.copysign(1.0, (d - 0.0).f1) == -1.0
        assert math.copysign(1.0, (0.0 - d).f1) == 1.0
        assert math.copysign(1.0, (d * 1.0).f1) == 1.0

    def test_numpy_scalar_is_coerced(self):
        d = variable(2.0) * np.float64(3.0)
        assert type(d.f0) is float and type(d.f1) is float
        assert d == variable(2.0) * 3.0

    def test_non_number_rejected(self):
        with pytest.raises(TypeError, match="cannot interpret"):
            variable(1.0) + "1"
        with pytest.raises(TypeError, match="cannot interpret"):
            "1" * variable(1.0)


class TestNanTrap:
    def test_nan_produced_from_non_nan_operands(self):
        with pytest.raises(DomainError, match="NaN"):
            Dual3(inf) - Dual3(inf)
        with pytest.raises(DomainError, match="NaN"):
            Dual3(1.0, inf, 0.0) * 0.0

    def test_nan_scalar_operand(self):
        with pytest.raises(DomainError, match="NaN"):
            variable(1.0) + float("nan")

    def test_zero_power_of_nan_base(self):
        with pytest.raises(DomainError, match="NaN"):
            Dual3(1.0, float("nan"), 0.0) ** 0

    def test_compose_checks_argument_value(self):
        with pytest.raises(DomainError, match="NaN"):
            compose(Dual3(0.5, 1.5, -2.0), Dual3(float("nan"), 1.0, 0.0))

    @pytest.mark.parametrize("name", ELEMENTAL_FNS)
    def test_elemental_checks_argument_value(self, name):
        fn = ELEMENTAL_FNS[name][0]
        with pytest.raises(DomainError, match="NaN"):
            fn(Dual3(float("nan"), 1.0, 0.0))

    def test_nan_divisor_is_reported_before_zero_division(self):
        with pytest.raises(DomainError, match="NaN"):
            variable(1.0) / Dual3(0.0, float("nan"), 0.0)
        with pytest.raises(DomainError, match="NaN"):
            1.0 / Dual3(0.0, float("nan"), 0.0)

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

    def test_zero_power_is_one(self):
        assert same_dual(variable(2.0) ** 0, Dual3(1.0, 0.0, 0.0))

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


class TestTaylorJet:
    def test_round_trip_is_exact(self):
        d = Dual3(1.25, -2.5, 3.75)
        assert TaylorJet.from_dual3(d).to_dual3() == d

    def test_order2_mul_matches_dual_mul(self):
        a, b = Dual3(1, 2, 0), Dual3(3, 4, 0)
        jet = jet_mul(TaylorJet.from_dual3(a), TaylorJet.from_dual3(b))
        assert jet.coeffs == (3.0, 10.0, 8.0)
        assert jet.to_dual3() == a * b

    def test_multiplicative_identity(self):
        one = TaylorJet.constant(1.0, 4)
        j = TaylorJet((2.0, -1.0, 0.5, 3.0, 7.0))
        assert jet_mul(one, j) == j
        assert jet_mul(j, one) == j

    def test_binomial_truncation(self):
        base = TaylorJet((1.0, 1.0, 0.0, 0.0, 0.0))
        acc = base
        for _ in range(4):
            acc = acc * base
        assert acc.coeffs == (1.0, 5.0, 10.0, 10.0, 5.0)

    def test_order_mismatch(self):
        with pytest.raises(ValidationError):
            jet_mul(TaylorJet((1.0, 2.0)), TaylorJet((1.0, 2.0, 3.0)))

    def test_order_zero_rejected(self):
        with pytest.raises(ValidationError):
            TaylorJet((1.0,))

    @given(duals(), duals())
    @settings(max_examples=50)
    def test_jet_mul_agrees_with_dual_mul(self, a, b):
        got = jet_mul(TaylorJet.from_dual3(a), TaylorJet.from_dual3(b)).to_dual3()
        want = a * b
        scale = max(1.0, abs(want.f0), abs(want.f1), abs(want.f2))
        assert abs(got.f0 - want.f0) <= 1e-15 * scale
        assert abs(got.f1 - want.f1) <= 1e-15 * scale
        assert abs(got.f2 - want.f2) <= 1e-15 * scale
