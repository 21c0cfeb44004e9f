"""One rule for every public scalar input: a finite real number.

NaN, +-inf, an ``int`` beyond float range and a non-number such as a str
raise :class:`ValidationError` at the entry point that takes them, never
a bare ``OverflowError``/``TypeError`` and never a numerical failure
further in.
"""

import copy
import dataclasses
import functools
import math
import pickle
from array import array
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from dualnum import (
    MechanismParams,
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
from dualnum import fixtures, spline

MECHANISM_FIELDS = ("L", "l", "a", "R", "s1", "s2", "b", "e", "c1", "c2")
BAD = [float("nan"), math.inf, -math.inf, 10 ** 400, "2"]
BAD_IDS = ["nan", "inf", "-inf", "10**400", "str"]


def _mechanism(**change):
    # rebuilt through the constructor, so every check runs again
    params = fixtures.MECHANISM_PARAMS
    return MechanismParams(**{**{name: getattr(params, name)
                                 for name in MECHANISM_FIELDS}, **change})


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
       for name in MECHANISM_FIELDS},
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

    @pytest.mark.parametrize("value", [
        1 + 0j, np.complex128(1 + 2j), np.complex64(1 + 2j),
        np.complex128(1.0)], ids=["complex", "complex128", "complex64",
                                  "complex128-real"])
    def test_complex_is_not_read_by_its_real_part(self, value):
        # numpy's complex scalars convert to float with only a warning
        with pytest.raises(ValidationError) as err:
            check_finite("v", value)
        assert str(err.value) == (
            f"v must be a real number, got {type(value).__name__}")

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

    # astype(float) would count dates in days and durations in seconds
    @pytest.mark.parametrize("x", [
        np.array(["2020-01-01", "2020-01-02", "2020-01-05"],
                 dtype="datetime64[D]"),
        np.array([0, 1, 3], dtype="timedelta64[s]"),
        np.array([np.datetime64("2020-01-01"), np.datetime64("2020-01-02"),
                  np.datetime64("2020-01-05")], dtype=object),
        np.array([np.timedelta64(0, "s"), np.timedelta64(1, "s"),
                  np.timedelta64(3, "s")], dtype=object),
    ], ids=["datetime64", "timedelta64", "datetime64-objects",
            "timedelta64-objects"])
    def test_dates_and_durations_are_refused(self, x):
        with pytest.raises(ValidationError, match="real numbers"):
            SplineData(x, [0, 1, 0])
        with pytest.raises(ValidationError, match="real numbers"):
            SplineData([0, 1, 2], x)

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


def one_conversion_rule(x, y):
    """SplineData's input rule stated as one numpy conversion, the way it
    is applied above the float path's cutoff: the converted x and y, or
    the message of the ValidationError."""
    def not_real(e):
        return isinstance(e, (str, bytes)) or (
            isinstance(e, np.generic) and e.dtype.kind not in "biuf")

    try:
        x, y = np.array(x), np.array(y)
        for a in x, y:
            if a.dtype.kind not in "biufO" or (
                    a.dtype.kind == "O" and any(map(not_real, a.flat))):
                raise TypeError(f"got {a.dtype} data")
        x, y = x.astype(float), y.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        return f"data points must be real numbers: {exc}"
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        return "x and y must be 1-d arrays of equal length"
    if x.size < 2:
        return f"need at least 2 points, got {x.size}"
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return "data points must be finite"
    if not (x[1:] > x[:-1]).all():
        return "x values must be strictly increasing"
    return x, y


def _floats(n):
    return [0.5 * i - 1.0 for i in range(n)]


# name -> n -> (x, y): every input kind, accepted and refused
INPUT_KINDS = {
    "list": lambda n: (_floats(n), [i % 3 for i in range(n)]),
    "tuple": lambda n: (tuple(_floats(n)), tuple(_floats(n))),
    "range": lambda n: (range(n), range(0, 2 * n, 2)),
    "array-d": lambda n: (array("d", _floats(n)), array("d", _floats(n))),
    "array-i": lambda n: (array("i", range(n)), array("b", [1] * n)),
    "float-ndarray": lambda n: (np.arange(n) / 3.0,
                                np.arange(n, dtype=np.float32) / 3),
    "int-ndarray": lambda n: (np.arange(n), np.arange(n, dtype=np.uint8)),
    "bool-ndarray": lambda n: (range(n), np.arange(n) % 2 == 0),
    "object-ndarray": lambda n: (
        np.array([Fraction(i, 3) if i % 2 else i / 3 for i in range(n)],
                 dtype=object), np.array(_floats(n), dtype=object)),
    "bools": lambda n: (_floats(n), [i % 2 == 0 for i in range(n)]),
    "big-ints": lambda n: ([2 ** 70 * (i + 1) for i in range(n)],
                           [2 ** 64 + i for i in range(n)]),
    "Fraction": lambda n: ([Fraction(i, 3) for i in range(n)], _floats(n)),
    "Decimal": lambda n: ([Decimal(i) / 7 for i in range(n)],
                          [Decimal("0.1")] * n),
    "numpy-scalars": lambda n: (
        [np.float32(i) + np.float32(0.5) if i % 2 else np.int64(i)
         for i in range(n)], [np.float64(0.1)] * n),
    "str": lambda n: ([str(i) for i in range(n)], _floats(n)),
    "str-among-floats": lambda n: (_floats(n - 1) + ["3e30"], _floats(n)),
    "bytes": lambda n: (_floats(n), [b"0"] * n),
    "complex": lambda n: ([complex(i) for i in range(n)], _floats(n)),
    "complex128": lambda n: (_floats(n), [np.complex128(1.0)] * n),
    "datetime64": lambda n: (np.arange(n).astype("datetime64[D]"),
                             _floats(n)),
    "timedelta64": lambda n: (_floats(n),
                              np.arange(n).astype("timedelta64[s]")),
    "nested": lambda n: ([[i, i] for i in range(n)], _floats(n)),
    "ragged": lambda n: ([[i] * (1 + i % 2) for i in range(n)], _floats(n)),
    "0-d": lambda n: (2.5, np.array(1.0)),
    "big-int-overflow": lambda n: (_floats(n), [10 ** 400] * n),
    "nan": lambda n: (_floats(n - 1) + [math.nan], _floats(n)),
    "inf": lambda n: (_floats(n), [-math.inf] + _floats(n - 1)),
    "unsorted": lambda n: (_floats(n)[::-1], _floats(n)),
    "length": lambda n: (_floats(n), _floats(n - 1)),
}


class TestInputRuleOnBothSidesOfTheCutoff:
    """9 knots are checked on plain floats, 200 by numpy; both give every
    input kind the outcome of the one-conversion rule."""

    @pytest.mark.parametrize("n", [9, 200])
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_same_outcome_as_one_conversion(self, kind, n):
        x, y = INPUT_KINDS[kind](n)
        want = one_conversion_rule(x, y)
        if isinstance(want, str):
            with pytest.raises(ValidationError) as err:
                SplineData(x, y)
            assert str(err.value) == want
            return
        data = SplineData(x, y)
        for got, expected in zip((data.x, data.y), want):
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert not got.flags.writeable
            assert got.tobytes() == expected.tobytes()

    def test_refused_kinds_are_refused(self):
        refused = {kind for kind in INPUT_KINDS
                   if isinstance(one_conversion_rule(*INPUT_KINDS[kind](9)),
                                 str)}
        assert refused == {
            "str", "str-among-floats", "bytes", "complex", "complex128",
            "datetime64", "timedelta64", "nested", "ragged", "0-d",
            "big-int-overflow", "nan", "inf", "unsorted", "length"}

    @pytest.mark.parametrize("n", [9, 200])
    def test_model_arrays_and_copies(self, monkeypatch, n):
        builds = []

        @functools.wraps(spline.build_spline)
        def counted(data):
            builds.append(data)
            return real(data)

        real = spline.build_spline
        monkeypatch.setattr(spline, "build_spline", counted)
        model = real(SplineData(*INPUT_KINDS["list"](n)))
        for name in ("slopes", "a", "b", "c", "d"):
            arr = getattr(model, name)
            assert type(arr) is np.ndarray and arr.dtype == np.float64
            assert not arr.flags.writeable
        clones = [pickle.loads(pickle.dumps(model)), copy.copy(model),
                  copy.deepcopy(model)]
        assert len(builds) == 3
        for twin in clones:
            assert twin.slopes.tobytes() == model.slopes.tobytes()
            assert twin.data.x.tobytes() == model.data.x.tobytes()
