import math
import struct

import numpy as np
import pytest

from dualnum import (
    BlowUpError,
    OdeProblem,
    ValidationError,
    constant,
    duffing_problem,
    rk4,
    rk4dual,
    sin,
    variable,
)
from dualnum.reference import central_diff


def oscillator(num_steps):
    # x'' = -x with x(0) = 0, x'(0) = 1: solution sin(t)
    return OdeProblem(t0=0.0, x10=0.0, x20=1.0,
                      rhs1=lambda t, x1, x2: x2,
                      rhs2=lambda t, x1, x2: -x1,
                      num_steps=num_steps)


def rk4_each_argument_twice(problem, t_end):
    """RK4 with each stage argument formed once for u1 and again for u2,
    and without the blow-up checks: the reference for rk4's bits and for
    the order and arguments of its right-hand-side calls."""
    u1, u2 = problem.rhs1, problem.rhs2
    h = (t_end - problem.t0) / problem.num_steps
    t, x1, x2 = problem.t0, problem.x10, problem.x20
    for step in range(problem.num_steps):
        k11 = u1(t, x1, x2)
        k12 = u2(t, x1, x2)
        k21 = u1(t + 0.5 * h, x1 + 0.5 * h * k11, x2 + 0.5 * h * k12)
        k22 = u2(t + 0.5 * h, x1 + 0.5 * h * k11, x2 + 0.5 * h * k12)
        k31 = u1(t + 0.5 * h, x1 + 0.5 * h * k21, x2 + 0.5 * h * k22)
        k32 = u2(t + 0.5 * h, x1 + 0.5 * h * k21, x2 + 0.5 * h * k22)
        k41 = u1(t + h, x1 + h * k31, x2 + h * k32)
        k42 = u2(t + h, x1 + h * k31, x2 + h * k32)
        x1 += h / 6.0 * (k11 + 2.0 * k21 + 2.0 * k31 + k41)
        x2 += h / 6.0 * (k12 + 2.0 * k22 + 2.0 * k32 + k42)
        t = problem.t0 + (step + 1) * h
    return x1, x2


class TestRk4:
    def test_bits_and_calls_match_the_reference_loop(self):
        # a forced linear oscillator: Duffing's cubic term blows up when
        # integrated back to t = -10
        rng = np.random.RandomState(12)
        for t_end in rng.uniform(-10.0, 10.0, 25).tolist():
            runs = []
            for integrate in (rk4, rk4_each_argument_twice):
                calls = []

                def u1(t, x1, x2):
                    calls.append((1, t, x1, x2))
                    return x2

                def u2(t, x1, x2):
                    calls.append((2, t, x1, x2))
                    return 2.1 * math.cos(1.8 * t) - 0.4 * x2 - 1.1 * x1

                problem = OdeProblem(t0=0.25, x10=0.3, x20=-2.3, rhs1=u1,
                                     rhs2=u2, num_steps=37)
                x1, x2 = integrate(problem, t_end)
                runs.append((struct.pack("<2d", x1, x2),
                             [repr(c) for c in calls]))
            assert runs[0] == runs[1]
            assert len(runs[0][1]) == 8 * 37

    def test_zero_acceleration_is_exact(self):
        # 8 steps keep h exactly representable
        problem = OdeProblem(t0=0.0, x10=0.0, x20=1.0,
                             rhs1=lambda t, x1, x2: x2,
                             rhs2=lambda t, x1, x2: 0.0,
                             num_steps=8)
        assert rk4(problem, 2.0) == (2.0, 1.0)

    def test_harmonic_oscillator(self):
        x1, x2 = rk4(oscillator(100), 1.0)
        assert x1 == pytest.approx(math.sin(1.0), abs=1e-8)
        assert x2 == pytest.approx(math.cos(1.0), abs=1e-8)

    def test_duffing_reference_value(self):
        x1, _ = rk4(duffing_problem(100), 1.0)
        assert x1 == pytest.approx(-0.7474, abs=1e-4)

    def test_fourth_order_convergence(self):
        errors = []
        for steps in (25, 50, 100, 200):
            x1, _ = rk4(oscillator(steps), 1.0)
            errors.append(abs(x1 - math.sin(1.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_backward_integration(self):
        problem = OdeProblem(t0=1.0, x10=math.sin(1.0), x20=math.cos(1.0),
                             rhs1=lambda t, x1, x2: x2,
                             rhs2=lambda t, x1, x2: -x1,
                             num_steps=100)
        x1, x2 = rk4(problem, 0.0)
        assert x1 == pytest.approx(0.0, abs=1e-8)
        assert x2 == pytest.approx(1.0, abs=1e-8)

    def test_blow_up_carries_step_index(self):
        problem = OdeProblem(t0=0.0, x10=1.0, x20=1.0,
                             rhs1=lambda t, x1, x2: x2,
                             rhs2=lambda t, x1, x2: x1 * x1 * x1 * 1e3,
                             num_steps=200)
        with pytest.raises(BlowUpError) as err:
            rk4(problem, 100.0)
        assert 0 <= err.value.step < 200

    def test_overflowing_rhs_is_blow_up(self):
        # A float ** raises OverflowError instead of returning inf.
        problem = OdeProblem(t0=0.0, x10=1e200, x20=0.0,
                             rhs1=lambda t, x1, x2: x2,
                             rhs2=lambda t, x1, x2: -x1 ** 3,
                             num_steps=10)
        with pytest.raises(BlowUpError) as err:
            rk4(problem, 1.0)
        assert err.value.step == 0
        assert isinstance(err.value.__cause__, OverflowError)

    def test_duffing_overflow_at_large_t_is_blow_up(self):
        with pytest.raises(BlowUpError) as err:
            rk4(duffing_problem(100), 100.0)
        assert 0 <= err.value.step < 100

    def test_step_count_validation(self):
        with pytest.raises(ValidationError):
            OdeProblem(t0=0.0, x10=0.0, x20=0.0,
                       rhs1=lambda t, x1, x2: x2,
                       rhs2=lambda t, x1, x2: 0.0, num_steps=0)

    @pytest.mark.parametrize(
        "num_steps", [2.5, 100.0, np.float64(8.0), True, "8", None],
        ids=["fraction", "whole-float", "numpy-float", "bool", "str", "none"])
    def test_non_integer_step_count_is_rejected(self, num_steps):
        # a float count would otherwise fail later, inside range()
        with pytest.raises(ValidationError, match="num_steps"):
            oscillator(num_steps)
        with pytest.raises(ValidationError, match="num_steps"):
            duffing_problem(num_steps)

    def test_numpy_integer_step_count_is_accepted(self):
        assert rk4(oscillator(np.int64(8)), 1.0) == rk4(oscillator(8), 1.0)

    def test_non_finite_t_end(self):
        with pytest.raises(ValidationError):
            rk4(oscillator(10), float("inf"))


class TestRk4Dual:
    def test_duffing_jet_at_reference_time(self):
        sol = rk4dual(duffing_problem(100), variable(1.0))
        assert np.allclose((sol.f0, sol.f1, sol.f2),
                           (-0.7474, -0.1282, 0.8140), atol=1e-4)

    def test_inner_sine_composition(self):
        sol = rk4dual(duffing_problem(100), sin(variable(1.0)))
        assert np.allclose((sol.f0, sol.f1, sol.f2),
                           (-0.7144, -0.1638, 0.6608), atol=1e-4)

    def test_outer_sine_composition(self):
        sol = sin(rk4dual(duffing_problem(100), variable(1.0)))
        assert np.allclose((sol.f0, sol.f1, sol.f2),
                           (-0.6797, -0.0940, 0.6081), atol=1e-4)

    def test_jet_components_consistent_with_rk4(self):
        problem = duffing_problem(100)
        t = 1.3
        x1, x2 = rk4(problem, t)
        jet = rk4dual(problem, variable(t))
        assert jet.f0 == x1
        assert jet.f1 == x2
        assert jet.f2 == problem.rhs2(t, x1, x2)

    def test_overflow_at_end_state_is_blow_up(self):
        # x1 = t^3 exactly; every RK4 stage state has x1 <= 0.75, where
        # exp(800 x1) is finite, but the end state has x1 = 1.
        problem = OdeProblem(t0=0.0, x10=0.0, x20=0.0,
                             rhs1=lambda t, x1, x2: 3.0 * t * t,
                             rhs2=lambda t, x1, x2: math.exp(800.0 * x1),
                             num_steps=1)
        assert rk4(problem, 1.0)[0] == 1.0
        with pytest.raises(BlowUpError) as err:
            rk4dual(problem, variable(1.0))
        assert err.value.step == 0

    def test_infinite_acceleration_at_end_state_is_blow_up(self):
        # the same end state, where plain float arithmetic gives inf
        problem = OdeProblem(t0=0.0, x10=0.0, x20=0.0,
                             rhs1=lambda t, x1, x2: 3.0 * t * t,
                             rhs2=lambda t, x1, x2:
                                 1e308 * 10.0 if x1 > 0.9 else 0.0,
                             num_steps=1)
        with pytest.raises(BlowUpError) as err:
            rk4dual(problem, variable(1.0))
        assert err.value.step == 0

    def test_constant_time_has_zero_derivatives(self):
        jet = rk4dual(duffing_problem(100), constant(1.0))
        assert jet.f1 == 0.0 and jet.f2 == 0.0

    def test_finite_difference_agreement_on_duffing(self):
        problem = duffing_problem(100)

        def value(t):
            return rk4(problem, t)[0]

        for t in np.linspace(0.5, 2.0, 20):
            jet = rk4dual(problem, variable(float(t)))
            fd1 = central_diff(value, float(t), 1)
            fd2 = central_diff(value, float(t), 2)
            assert abs(jet.f1 - fd1) <= 1e-6 * max(1.0, abs(jet.f1))
            assert abs(jet.f2 - fd2) <= 1e-4 * max(1.0, abs(jet.f2))


class TestDuffingFixture:
    def test_rhs_at_initial_state(self):
        problem = duffing_problem()
        # 2.1 cos(0) - 0.4*(-2.3) - 1.1*0.3 - 0.3^3 = 2.1 + 0.92 - 0.33 - 0.027
        assert problem.rhs2(0.0, 0.3, -2.3) == pytest.approx(2.663, abs=1e-12)
        assert problem.rhs1(0.0, 0.3, -2.3) == -2.3

    def test_initial_state(self):
        problem = duffing_problem()
        assert (problem.x10, problem.x20) == (0.3, -2.3)
        assert problem.t0 == 0.0

    def test_default_step_count(self):
        assert duffing_problem().num_steps == 100
