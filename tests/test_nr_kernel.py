"""``fixtures.nr_example1_equation``, a float kernel, against the operator
form it transcribes, ``reference.nr_example1_equation``: the same bits,
signed zeros included, or the same exception class, on single residuals
and on whole solves.
"""

import random
import struct
import sys

import pytest

from dualnum import (
    Dual3,
    DomainError,
    RootConfig,
    find_root,
    sin,
    variable,
)
from dualnum import fixtures, reference

MAX = sys.float_info.max

_pack = struct.Struct("<3d").pack
_bits = struct.Struct("<d").pack

kernel = fixtures.nr_example1_equation
operators = reference.nr_example1_equation


def outcome(fn, *args):
    """``fn(*args)`` as the bits of its Dual3, or the class it raised
    with its payload: ``iterations``, or the bits of ``residual``."""
    try:
        d = fn(*args)
    except ArithmeticError as exc:
        residual = getattr(exc, "residual", None)
        return (type(exc), getattr(exc, "iterations", None),
                None if residual is None else _bits(residual))
    return _pack(d.f0, d.f1, d.f2)


def component(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.3:
        return rng.choice((0.0, -0.0, 1.0, -1.0, 5e-324))
    if roll < 0.6:
        return rng.uniform(-4.0, 4.0)
    if roll < 0.85:
        return rng.uniform(-1e3, 1e3)
    # u ** 3 overflows past about 5.6e102 and u * u * x past 1.3e154
    # for |x| near 1; products of such components overflow sooner
    return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(100.0, 160.0)


def dual(rng: random.Random) -> Dual3:
    """A constant, a ``variable`` seed or a general triple."""
    kind = rng.random()
    if kind < 0.25:
        return Dual3(component(rng))
    if kind < 0.5:
        return variable(component(rng))
    return Dual3(component(rng), component(rng), component(rng))


class TestResidual:
    def test_random_pairs_match_operators(self):
        rng = random.Random("nr-example1 kernel")
        raised = 0
        for _ in range(20000):
            u, x = dual(rng), dual(rng)
            got = outcome(kernel, u, x)
            assert got == outcome(operators, u, x), (u, x)
            raised += isinstance(got, tuple)
        # both the overflowing and the finite pairs are exercised
        assert 1000 < raised < 19000

    def test_special_pairs_match_operators(self):
        zeros = (0.0, -0.0)
        specials = ([Dual3(a, b, c) for a in zeros for b in zeros
                     for c in zeros]
                    + [Dual3(v) for v in (1.0, -1.0, 5e-324, 1e300, -MAX)]
                    + [variable(v) for v in (*zeros, 1.0, -1.0, 2.0)]
                    + [Dual3(1.0, f1, -0.0) for f1 in (1e150, -1e160, MAX)]
                    + [Dual3(-0.5, 0.0, f2) for f2 in (1e200, -MAX)])
        for u in specials:
            for x in specials:
                assert outcome(kernel, u, x) == outcome(operators, u, x), (
                    u, x)

    @pytest.mark.parametrize("u, x", [
        (Dual3(1e103), variable(0.5)),            # u ** 3
        (Dual3(1e160), Dual3(1e-200)),            # u * u, then u * u * x
        (Dual3(1e200), Dual3(1e200)),             # u * x
        (Dual3(1e160), Dual3(0.0)),               # u * u * x is inf * 0
        (Dual3(1e160), Dual3(-0.0)),
        (variable(2.0), Dual3(0.7, 1e308, 0.0)),  # an f1
        (Dual3(2.0, 1e200, 0.0), variable(0.7)),  # u1 * u1 in f2
    ], ids=["cube", "square-x", "ux", "inf-times-zero",
            "inf-times-minus-zero", "x-f1", "u-f1-squared"])
    def test_overflow_raises_domain_error_in_both(self, u, x):
        assert outcome(kernel, u, x)[0] is DomainError
        assert outcome(operators, u, x)[0] is DomainError


class TestKernelShape:
    def test_one_dual3_per_call(self, monkeypatch):
        # the lifts are chained on floats: only the result is a Dual3, built
        # by core._Kernel.__call__
        import dualnum.core

        u, x = Dual3(1.3, 0.5, -0.25), variable(0.7)
        calls = []
        mk = dualnum.core._mk

        def wrapper(*components):
            calls.append(components)
            return mk(*components)
        monkeypatch.setattr(dualnum.core, "_mk", wrapper)

        kernel(u, x)
        assert len(calls) == 1


def _nr_x(k: int) -> float:
    """Point k of the implicit-sweep benchmark's x grid over [0.1, 2.1]."""
    return 0.1 + 2.0 * k / 4000


# The benchmark's timed x (k up to 1500, x up to 0.85) and its far-x
# probe (k from 1525 in steps of 25, up to x = 2.1), where some solves
# from u0 = 2 stall or diverge.
TIMED_K = range(0, 1501)
PROBE_K = range(1525, 4001, 25)


class TestSolves:
    # Each x as itself and as sin x + x^2, by each method, with the
    # benchmark's default config and then the CLI's fixed-count one.
    @pytest.mark.parametrize("method", ["newton", "halley"])
    @pytest.mark.parametrize("ks", [TIMED_K, PROBE_K], ids=["timed", "probe"])
    def test_grid_roots_match_operators(self, method, ks):
        configs = (RootConfig(fixtures.NR_EXAMPLE1_U0, method),
                   RootConfig(fixtures.NR_EXAMPLE1_U0, method,
                              fixtures.NR_EXAMPLE1_ITERS, 0.0))
        raised = 0
        for cfg in configs:
            for k in ks:
                xd = variable(_nr_x(k))
                for g in (xd, sin(xd) + xd * xd):
                    got = outcome(find_root, cfg, kernel, g)
                    assert got == outcome(find_root, cfg, operators, g), (
                        cfg, k)
                    raised += isinstance(got, tuple)
        if ks is PROBE_K:
            # the far-x failures go through the kernel's raising paths
            assert raised > 0
