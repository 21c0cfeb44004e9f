"""The five frozen records: immutable, shown by every field, and rebuilt
through their checks by a copy or pickle.

``RootConfig``, ``MechanismParams`` and ``OdeProblem`` compare and hash
by value; the spline records compare by identity
(``test_spline.TestModelViews.test_records_compare_by_identity``).
"""

import copy
import functools
import pickle

import numpy as np
import pytest

from dualnum import (
    MechanismParams,
    RootConfig,
    SplineData,
    build_spline,
    duffing_problem,
)
from dualnum import fixtures, ode, rootfind, spline

FIELDS = {
    "RootConfig": ("u0", "method", "max_iters", "tol"),
    "MechanismParams": ("L", "l", "a", "R", "s1", "s2", "b", "e", "c1",
                        "c2"),
    "OdeProblem": ("t0", "x10", "x20", "rhs1", "rhs2", "num_steps"),
    "SplineData": ("x", "y"),
    "SplineModel": ("data", "slopes", "a", "b", "c", "d"),
}


def bump():
    return SplineData([0.0, 1.0, 2.5, 3.0], [1.0, 2.0, 0.5, -1.0])


MAKE = {
    "RootConfig": lambda: RootConfig(u0=2.0, method="halley", max_iters=7,
                                     tol=1e-9),
    "MechanismParams": lambda: fixtures.MECHANISM_PARAMS,
    "OdeProblem": lambda: duffing_problem(50),
    "SplineData": bump,
    "SplineModel": lambda: build_spline(bump()),
}

# record -> (module, name): the check a rebuild of the record calls
CHECKED_BY = {
    "RootConfig": (rootfind, "check_finite"),
    "MechanismParams": (rootfind, "check_finite"),
    "OdeProblem": (ode, "check_finite"),
    "SplineData": (spline, "_to_floats"),
    "SplineModel": (spline, "build_spline"),
}

CLONES = {
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def fields(record):
    """The record's field values, ndarrays as their bytes and a nested
    record as its own ``fields``."""
    out = []
    for name in FIELDS[type(record).__name__]:
        v = getattr(record, name)
        if isinstance(v, np.ndarray):
            v = v.tobytes()
        elif type(v).__name__ in FIELDS:
            v = fields(v)
        out.append(v)
    return out


@pytest.mark.parametrize("kind", FIELDS)
class TestEveryRecord:
    def test_fields_cannot_be_assigned_or_deleted(self, kind):
        record = MAKE[kind]()
        for name in FIELDS[kind]:
            with pytest.raises(AttributeError, match=repr(name)):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError, match=repr(name)):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1.0
        assert not hasattr(record, "extra")

    def test_repr_names_every_field(self, kind):
        text = repr(MAKE[kind]())
        first, *rest = FIELDS[kind]
        assert text.startswith(f"{kind}({first}=")
        assert [name for name in rest if f", {name}=" not in text] == []

    @pytest.mark.parametrize("clone", CLONES)
    def test_copy_round_trips_through_the_checks(self, monkeypatch, kind,
                                                 clone):
        record = MAKE[kind]()
        module, name = CHECKED_BY[kind]
        calls = []
        real = getattr(module, name)

        @functools.wraps(real)
        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        twin = CLONES[clone](record)
        assert calls
        assert type(twin) is type(record)
        assert fields(twin) == fields(record)


class TestValueEquality:
    @pytest.mark.parametrize("kind", ["RootConfig", "MechanismParams",
                                      "OdeProblem"])
    def test_rebuilt_record_is_equal_with_equal_hash(self, kind):
        record = MAKE[kind]()
        twin = type(record)(**{name: getattr(record, name)
                               for name in FIELDS[kind]})
        assert twin is not record
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1

    def test_root_configs_compare_by_checked_fields(self):
        cfg = RootConfig(u0=2.0)
        assert cfg == RootConfig(u0=2, method="newton", max_iters=100,
                                 tol=1e-12)
        for other in (RootConfig(u0=2.5), RootConfig(u0=2.0, tol=0.0),
                      RootConfig(u0=2.0, method="halley"),
                      RootConfig(u0=2.0, max_iters=99)):
            assert cfg != other
        assert cfg != (2.0, "newton", 100, 1e-12)

    def test_mechanism_params_compare_by_fields(self):
        p = fixtures.MECHANISM_PARAMS
        given = {name: getattr(p, name) for name in FIELDS["MechanismParams"]}
        assert MechanismParams(**{**given, "c1": None, "c2": None}) == p
        assert MechanismParams(**{**given, "b": 2.5}) != p
