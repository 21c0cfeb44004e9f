"""Warm micro-timings of single public calls, and the CLI start-up probes.

Each micro item is the minimum over 5 repeats of a loop of public calls,
reported in microseconds per call.  The CLI probes time fresh processes
(``python -c pass`` and ``python -c "import dualnum"``) and warm
in-process ``cli.main`` per variant.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time

import dualnum
from dualnum import cli, fixtures

from workloads import CLI_VARIANTS, ROOT, child_env

REPEATS = 5
TARGET_S = 0.02  # length of one timed loop


def _per_call_us(fn) -> float:
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= TARGET_S / 4 or n >= 1 << 20:
            break
        n *= 4
    n = max(1, int(n * TARGET_S / max(time.perf_counter() - t0, 1e-9)))
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n * 1e6


def micro_block() -> dict:
    D = dualnum
    a = D.Dual3(1.3, 0.7, -0.2)
    b = D.Dual3(0.9, -0.4, 0.3)
    jet = D.Dual3(0.5, 1.5, -2.0)
    F = fixtures.MECHANISM_PARAMS.loop_closure
    phi, theta = D.variable(1.0), D.constant(2.0)
    step = D.duffing_problem(1)
    data = fixtures.ln_sample_data()
    model = D.build_spline(data)
    at = D.variable(fixtures.SPLINE_AT)
    items = {
        "core.new_us": lambda: D.Dual3(1.3, 0.7, -0.2),
        "core.variable_us": lambda: D.variable(1.3),
        "core.add_us": lambda: a + b,
        "core.sub_us": lambda: a - b,
        "core.add_float_us": lambda: a + 1.0,
        "core.mul_us": lambda: a * b,
        "core.div_us": lambda: a / b,
        "core.neg_us": lambda: -a,
        "core.pow3_us": lambda: a ** 3,
        "core.pow1000_us": lambda: b ** 1000,
        "core.sin_us": lambda: D.sin(a),
        "core.compose_us": lambda: D.compose(jet, a),
        "micro.residual_us": lambda: F(phi, theta),
        "micro.rk4_step_us": lambda: D.rk4(step, 0.01),
        "micro.build_spline_n9_us": lambda: D.build_spline(data),
        "micro.eval_dual_us": lambda: D.eval_dual(model, at),
    }
    return {name: _per_call_us(fn) for name, fn in items.items()}


def _process_s(argv, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                       check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_probes(csvs: dict, repeats: int = 3) -> dict:
    out = {
        "cli.interp_s": _process_s(["-c", "pass"], repeats),
        "cli.import_s": _process_s(["-c", "import dualnum"], repeats),
    }
    for name, argv in CLI_VARIANTS:
        args = [a.format(**csvs) for a in argv] + ["--json", "--check"]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(args) != 0:
                    raise RuntimeError(f"cli.main failed for {name}")

        call()  # warm
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - t0)
        out[f"cli.main_ms.{name}"] = best * 1e3
    return out
