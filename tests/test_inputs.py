"""One rule for every public scalar input: a finite real number.

NaN, +-inf, an ``int`` beyond float range and a non-number such as a str
raise :class:`ValidationError` at the entry point that takes them, never
a bare ``OverflowError``/``TypeError`` and never a numerical failure
further in.
"""

import dataclasses
import math
from array import array
from fractions import Fraction

import numpy as np
import pytest

from dualnum import (
    OdeProblem,
    RootConfig,
    SplineData,
    ValidationError,
    build_spline,
    constant,
    diffusivity,
    duffing_problem,
    find_derivative_root,
    rk4,
    variable,
)
from dualnum.errors import check_finite
from dualnum import fixtures

BAD = [float("nan"), math.inf, -math.inf, 10 ** 400, "2"]
BAD_IDS = ["nan", "inf", "-inf", "10**400", "str"]


def _mechanism(**change):
    return dataclasses.replace(fixtures.MECHANISM_PARAMS, **change)


def _ode(**change):
    return rk4(dataclasses.replace(duffing_problem(), **change), 1.0)


def _peak_from(x0):
    return find_derivative_root(build_spline(fixtures.radiometry_fixture()),
                                x0)


# entry point -> a call that passes the bad value to that one input
ENTRIES = {
    "variable": variable,
    "constant": constant,
    "RootConfig.u0": lambda v: RootConfig(u0=v),
    "RootConfig.tol": lambda v: RootConfig(u0=1.0, tol=v),
    **{f"MechanismParams.{name}": (lambda v, name=name:
                                   _mechanism(**{name: v}))
       for name in ("L", "l", "a", "R", "s1", "s2", "b", "e", "c1", "c2")},
    "rk4.t_end": lambda v: rk4(duffing_problem(), v),
    **{f"OdeProblem.{name}": (lambda v, name=name: _ode(**{name: v}))
       for name in ("t0", "x10", "x20")},
    "diffusivity.thickness": lambda v: diffusivity(v, 1.0),
    "diffusivity.peak_frequency": lambda v: diffusivity(522e-6, v),
    "find_derivative_root.x0": _peak_from,
}


@pytest.mark.parametrize("value", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_non_finite_scalar_input_is_a_validation_error(entry, value):
    with pytest.raises(ValidationError,
                       match="must be (finite|a real number)"):
        ENTRIES[entry](value)


def test_int_tol_beyond_float_range_is_rejected():
    # 0 <= 10**400 < inf holds for an int, so the tol test alone let it
    # through, and the solve then exited at once with an unchecked root
    with pytest.raises(ValidationError, match="tol must be finite, got an "
                                              "int of 1329 bits"):
        RootConfig(u0=1.0, tol=10 ** 400)


def test_nan_initial_state_is_a_validation_error_not_a_blow_up():
    with pytest.raises(ValidationError, match="x10 must be finite, got nan"):
        dataclasses.replace(duffing_problem(), x10=float("nan"))


class TestCheckFinite:
    @pytest.mark.parametrize("value", [2, 2.5, -0.0, np.float64(3.0), True])
    def test_returns_the_float(self, value):
        got = check_finite("v", value)
        assert type(got) is float
        assert math.copysign(1.0, got) == math.copysign(1.0, float(value))
        assert got == float(value)

    def test_big_int_is_shown_by_its_size(self):
        with pytest.raises(ValidationError) as err:
            check_finite("v", -10 ** 5000)
        assert str(err.value) == "v must be finite, got an int of 16610 bits"

    @pytest.mark.parametrize("value, shown", [
        ("2", "str"), (None, "NoneType"), (variable(1.0), "Dual3")])
    def test_non_number_names_its_type(self, value, shown):
        with pytest.raises(ValidationError) as err:
            check_finite("v", value)
        assert str(err.value) == f"v must be a real number, got {shown}"

    def test_accepted_inputs_are_stored_as_floats(self):
        cfg = RootConfig(u0=2, tol=0)
        assert (type(cfg.u0), type(cfg.tol)) == (float, float)
        problem = OdeProblem(t0=0, x10=1, x20=0, rhs1=None, rhs2=None,
                             num_steps=1)
        assert {type(v) for v in (problem.t0, problem.x10, problem.x20)} == {
            float}
        assert type(_mechanism(L=1).L) is float


class TestSplineDataConversion:
    @pytest.mark.parametrize("x, y", [
        ([0, 10 ** 400], [0, 1]), ([0, 1], [0, -10 ** 400])],
        ids=["big-int-x", "big-int-y"])
    def test_int_beyond_float_range(self, x, y):
        with pytest.raises(ValidationError, match="real numbers"):
            SplineData(x, y)

    def test_non_numeric_string(self):
        with pytest.raises(ValidationError, match="real numbers"):
            SplineData(["a", "b"], [0, 1])

    # numpy parses numeric text under dtype=float; a scalar "2" is refused
    # at every entry point, so array data refuses it too
    @pytest.mark.parametrize("x, y", [
        (["0", "1.5", "3"], ["0", "1", "0"]),
        ([0, 1.5, 3], [b"0", b"1", b"0"]),
        ([0, 1.5, "3"], [0, 1, 0]),
        ([0, 2 ** 70, "3e30"], [0, 1, 0]),
        ([0, 1, 2], [Fraction(1, 3), 1, "0"]),
        (np.array(["0", "1.5", "3"], dtype=object), [0, 1, 0]),
    ], ids=["str", "bytes", "str-among-floats", "str-among-big-ints",
            "str-among-fractions", "object-array"])
    def test_numeric_string(self, x, y):
        with pytest.raises(ValidationError, match="real numbers"):
            SplineData(x, y)

    def test_complex_is_refused(self):
        # numpy would drop the imaginary part of a complex array
        with pytest.raises(ValidationError, match="real numbers"):
            SplineData(np.array([0, 1j, 2]), [0, 1, 0])

    @pytest.mark.parametrize("x", [
        [0, 1.5, 3], [0, 2 ** 70, 2 ** 71], [Fraction(0), Fraction(1, 3), 1],
        array("d", [0, 1.5, 3]), array("i", [0, 1, 3]),
        np.array([0, 1.5, 3], dtype=np.float32), np.array([0, 2, 3]),
        np.array([True, 2.0, 3.0]),
    ], ids=["list", "big-ints", "fractions", "array-d", "array-i", "float32",
            "int64", "bool"])
    def test_numbers_convert_as_dtype_float_did(self, x):
        got = SplineData(x, [0, 1, 0]).x
        assert got.dtype == np.float64 and not got.flags.writeable
        assert not np.shares_memory(got, np.asarray(x))
        assert got.tobytes() == np.array(x, dtype=float).tobytes()
