"""Layer tables: the dualnum calls an op makes, plain or wrapped in spans.

Spans are recorded from the benchmark's side of each layer boundary:
around the public functions of ``core``, ``rootfind``, ``spline``,
``ode`` and ``cli``, and around the user callables the benchmark passes
in (the residual ``F`` and the Duffing right-hand sides).
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import dualnum
from dualnum import fixtures

from workloads import ODE_STEPS, run_cli


def two_sin_sq(d):
    return 2.0 * dualnum.sin(d) * dualnum.sin(d)


def nr_arg(xd):
    return dualnum.sin(xd) + xd * xd


def x_sin_sq(xd, y):
    return xd * dualnum.sin(y) * dualnum.sin(y)


def plain_layers() -> SimpleNamespace:
    return SimpleNamespace(
        # core
        variable=dualnum.variable,
        sin=dualnum.sin,
        two_sin_sq=two_sin_sq,
        nr_arg=nr_arg,
        x_sin_sq=x_sin_sq,
        residual=lambda F: F,
        # rootfind
        RootConfig=dualnum.RootConfig,
        find_root=dualnum.find_root,
        mechanism_closure=fixtures.MECHANISM_PARAMS.loop_closure,
        nr_equation=fixtures.nr_example1_equation,
        # spline
        SplineData=dualnum.SplineData,
        build_spline=dualnum.build_spline,
        eval_dual=dualnum.eval_dual,
        find_derivative_root=dualnum.find_derivative_root,
        # ode
        rk4dual=dualnum.rk4dual,
        duffing=dualnum.duffing_problem(ODE_STEPS),
        # cli
        run_cli=run_cli,
    )


def traced_layers(tracer) -> SimpleNamespace:
    L = plain_layers()
    w = tracer.wrap
    duffing = L.duffing
    return SimpleNamespace(
        variable=w("core.expr", L.variable),
        sin=w("core.expr", L.sin),
        two_sin_sq=w("core.expr", two_sin_sq),
        nr_arg=w("core.expr", nr_arg),
        x_sin_sq=w("core.expr", x_sin_sq),
        residual=lambda F: w("core.residual", F),
        RootConfig=L.RootConfig,
        find_root=w("rootfind.find_root", L.find_root),
        mechanism_closure=L.mechanism_closure,
        nr_equation=L.nr_equation,
        SplineData=w("spline.data", L.SplineData),
        build_spline=w("spline.build", L.build_spline, size=len),
        eval_dual=w("spline.eval", L.eval_dual),
        find_derivative_root=w("spline.derivroot", L.find_derivative_root),
        rk4dual=w("ode.rk4dual", L.rk4dual),
        duffing=dataclasses.replace(
            duffing, rhs1=w("ode.rhs", duffing.rhs1),
            rhs2=w("ode.rhs", duffing.rhs2)),
        run_cli=w("cli.process", run_cli),
    )
