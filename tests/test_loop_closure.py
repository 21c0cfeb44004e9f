"""``MechanismParams.loop_closure``, a float kernel, against the operator
form it transcribes, ``reference.loop_closure``: the same bits, signed
zeros included, or the same exception class, on single residuals and on
whole solves.
"""

import math
import random
import struct
import sys

import pytest

from dualnum import (
    Dual3,
    DomainError,
    MechanismParams,
    RootConfig,
    find_root,
    sin,
    variable,
)
from dualnum import fixtures, reference

MAX = sys.float_info.max

_pack = struct.Struct("<3d").pack


def outcome(fn, *args):
    """``fn(*args)`` as the bits of its Dual3, or the class it raised."""
    try:
        d = fn(*args)
    except ArithmeticError as exc:
        return type(exc)
    return _pack(d.f0, d.f1, d.f2)


def operators(params):
    return lambda phi, theta: reference.loop_closure(params, phi, theta)


PARAMS = {
    "fixture": fixtures.MECHANISM_PARAMS,
    # b == e: every factor with b - e in it is a zero of some sign
    "signed-zeros": MechanismParams(L=-0.0, l=0.0, a=-0.0, R=1.5, s1=-0.0,
                                    s2=0.0, b=0.75, e=0.75),
    "negative-cosines": MechanismParams(L=2.0, l=1.25, a=-0.5, R=0.75,
                                        s1=0.6, s2=-0.8, b=-1.0, e=0.5,
                                        c1=-0.8, c2=-0.6),
    "large": MechanismParams(L=1e60, l=3e59, a=-2e59, R=7e59, s1=0.28,
                             s2=0.96, b=1e60, e=-4e59),
}


def component(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.3:
        return rng.choice((0.0, -0.0, 1.0, -1.0, 5e-324))
    if roll < 0.65:
        return rng.uniform(-4.0, 4.0)
    return rng.uniform(-1e3, 1e3)


def dual(rng: random.Random) -> Dual3:
    """A constant, a ``variable`` seed or a general triple."""
    kind = rng.random()
    if kind < 0.25:
        return Dual3(component(rng))
    if kind < 0.5:
        return variable(component(rng))
    return Dual3(component(rng), component(rng), component(rng))


class TestResidual:
    @pytest.mark.parametrize("name", PARAMS)
    def test_random_pairs_match_operators(self, name):
        params = PARAMS[name]
        rng = random.Random(f"loop-closure {name}")
        for _ in range(20000):
            phi, theta = dual(rng), dual(rng)
            assert (outcome(params.loop_closure, phi, theta)
                    == outcome(operators(params), phi, theta)), (phi, theta)

    @pytest.mark.parametrize("name", PARAMS)
    def test_special_pairs_match_operators(self, name):
        params = PARAMS[name]
        zeros = (0.0, -0.0)
        specials = ([Dual3(a, b, c) for a in zeros for b in zeros
                     for c in zeros]
                    + [Dual3(x) for x in (1.0, -math.pi, 1e300)]
                    + [variable(x) for x in (*zeros, 2.0)]
                    + [Dual3(1.0, f1, -0.0) for f1 in (1e150, -1e160, MAX)])
        for phi in specials:
            for theta in specials:
                assert (outcome(params.loop_closure, phi, theta)
                        == outcome(operators(params), phi, theta)), (
                            phi, theta)

    # Edges of the proof that the kernel's dropped zero terms are idle:
    # an angle whose sine is a zero of either sign, and f1 seeds around
    # 1.3e154, where f1 * f1 in a second-order jet overflows.
    @pytest.mark.parametrize("name", PARAMS)
    def test_zero_term_edges_match_operators(self, name):
        params = PARAMS[name]
        zeros = (0.0, -0.0)
        edges = ([Dual3(z, f1, f2) for z in zeros for f1 in (*zeros, 1.0)
                  for f2 in (*zeros, -2.0)]
                 + [variable(z) for z in zeros]
                 + [Dual3(th, sign * f1, 0.0)
                    for th in (0.0, -0.0, 2.0, -math.pi / 2)
                    for sign in (1.0, -1.0)
                    for f1 in (1.2e154, 1.3e154, 1.34e154, 1.4e154, 2e154)])
        for phi in edges:
            for theta in edges:
                assert (outcome(params.loop_closure, phi, theta)
                        == outcome(operators(params), phi, theta)), (
                            phi, theta)

    @pytest.mark.parametrize("field, value", [
        ("L", 1e200), ("l", -1e200), ("a", 1e200), ("R", 1e200),
        ("b", 1e300),
    ])
    def test_overflowing_constant_raises_in_both(self, field, value):
        given = {name: getattr(fixtures.MECHANISM_PARAMS, name)
                 for name in ("L", "l", "a", "R", "s1", "s2", "b", "e")}
        params = MechanismParams(**{**given, field: value})
        for phi in (Dual3(1.0), variable(1.0)):
            theta = variable(2.0)
            assert outcome(params.loop_closure, phi, theta) is DomainError
            assert outcome(operators(params), phi, theta) is DomainError

    @pytest.mark.parametrize("phi, theta", [
        (Dual3(1.0, 1e200, 0.0), variable(2.0)),
        (variable(1.0), Dual3(2.0, -1e160, 3.0)),
        (Dual3(1.0, 0.0, MAX), Dual3(2.0, 0.0, MAX)),
    ], ids=["phi-f1", "theta-f1", "f2"])
    def test_overflowing_derivative_raises_in_both(self, phi, theta):
        params = fixtures.MECHANISM_PARAMS
        assert outcome(params.loop_closure, phi, theta) is DomainError
        assert outcome(operators(params), phi, theta) is DomainError


class TestKernelShape:
    def test_one_dual3_per_call(self, monkeypatch):
        # the jets are chained on floats: only the result is a Dual3
        import dualnum.core
        import dualnum.rootfind

        phi, theta = Dual3(0.4, 1.5, -0.25), variable(2.0)
        calls = {"core": 0, "rootfind": 0}

        def counted(module, key):
            mk = module._mk

            def wrapper(*components):
                calls[key] += 1
                return mk(*components)
            monkeypatch.setattr(module, "_mk", wrapper)

        counted(dualnum.core, "core")
        counted(dualnum.rootfind, "rootfind")
        fixtures.MECHANISM_PARAMS.loop_closure(phi, theta)
        assert calls == {"core": 0, "rootfind": 1}

    def test_one_libm_call_per_function_per_angle(self, monkeypatch):
        # each angle's sine and cosine serve both of its jets
        import types

        import dualnum.rootfind

        calls = {"sin": 0, "cos": 0}

        def counted(name):
            fn = getattr(math, name)

            def wrapper(x):
                calls[name] += 1
                return fn(x)
            return wrapper

        shim = types.SimpleNamespace(sin=counted("sin"), cos=counted("cos"))
        monkeypatch.setattr(dualnum.rootfind, "math", shim)
        fixtures.MECHANISM_PARAMS.loop_closure(Dual3(0.4, 1.5, -0.25),
                                               variable(2.0))
        assert calls == {"sin": 2, "cos": 2}


def kept(F):
    """``F`` with its outcomes kept by the bits of its arguments.  Solves
    from one start by one method repeat most of each other's residuals."""
    memo = {}

    def G(u, x):
        key = _pack(u.f0, u.f1, u.f2) + _pack(x.f0, x.f1, x.f2)
        out = memo.get(key)
        if out is None:
            try:
                out = F(u, x)
            except DomainError as exc:
                out = exc
            memo[key] = out
        if isinstance(out, DomainError):
            raise DomainError(*out.args)
        return out

    return G


THETA_GRID = 4096  # the implicit-sweep benchmark's angles over a turn


class TestSolves:
    # Every grid angle, as F(theta) and F(2 sin^2 theta), by each method,
    # with the CLI's fixed-count config and then the default one, which
    # stops early on the same iterates.
    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_grid_roots_match_operators(self, method):
        params = fixtures.MECHANISM_PARAMS
        oracle = kept(operators(params))
        configs = (RootConfig(fixtures.MECHANISM_PHI0, method, 100, 0.0),
                   RootConfig(fixtures.MECHANISM_PHI0, method))
        raised = 0
        for cfg in configs:
            for k in range(THETA_GRID):
                theta = variable(2.0 * math.pi * k / THETA_GRID)
                for g in (theta, 2.0 * sin(theta) * sin(theta)):
                    got = outcome(find_root, cfg, params.loop_closure, g)
                    assert got == outcome(find_root, cfg, oracle, g), (
                        cfg, theta)
                    raised += isinstance(got, type)
        # the angles where the mechanism cannot assemble raise
        assert 0 < raised < len(configs) * THETA_GRID
