"""Checks of the benchmark itself, not of dualnum.

    python3 perfbench/selfcheck.py [--seed N] [--grids]

Run from the root of a source checkout.  For each in-process workload it
checks that

- two traced passes with the same seed give identical counts and an
  identical fail ratio;
- a different seed gives different inputs;
- spans nest inside their parents and share their op's id, so the self
  times of each op's spans add up to the op's own duration;

and for cli-fixtures that the seeded CSV inputs change with the seed.
With ``--grids`` it also runs every point of implicit-sweep's input grids
(every input angle, every timed x with both methods) through the oracle:
no timed op may fail.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import plain_layers, traced_layers  # noqa: E402
from spans import END, OP, PARENT, START, Tracer, analyse  # noqa: E402
from worker import Checker, _pass  # noqa: E402
from workloads import (  # noqa: E402
    INPUTS, IN_PROCESS, NR_TIMED_K, OPS, THETA_GRID, MechInput, NrInput, _nr_x,
    write_cli_csvs)

COUNTS = ("core.residual_calls", "rootfind.solves", "rootfind.raised",
          "rootfind.evals_per_solve", "rootfind.useful_eval_ratio",
          "spline.builds", "spline.knots", "spline.evals",
          "spline.derivroot_calls", "spline.derivroot_raised",
          "ode.rk4dual_calls", "ode.steps", "ode.rhs_calls", "trace.spans")


def traced_pass(workload: str, seed: int):
    tracer = Tracer()
    check = Checker(workload)
    _pass(workload, seed, traced_layers(tracer), tracer, check)
    metrics = analyse(tracer, 0, len(tracer.spans))
    counts = {k: metrics[k] for k in COUNTS if k in metrics}
    return tracer, counts, check.failed / check.attempted, metrics


def self_times_add_up(tracer: Tracer) -> bool:
    """Per op: the sum over its spans of (duration - children's durations)
    equals the op span's duration, and every child lies in its parent."""
    spans = tracer.spans
    child = defaultdict(int)
    for s in spans:
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            if not (parent[OP] == s[OP] and parent[START] <= s[START]
                    and s[END] <= parent[END]):
                return False
            child[s[PARENT]] += s[END] - s[START]
    self_sum = defaultdict(int)
    op_ns = {}
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        if child[i] > dur:
            return False
        self_sum[s[OP]] += dur - child[i]
        if s[PARENT] < 0:
            op_ns[s[OP]] = dur
    return self_sum == op_ns


def grid_failures() -> int:
    """Failed ops over every point implicit-sweep can draw."""
    grid = [MechInput(2.0 * math.pi * k / THETA_GRID)
            for k in range(THETA_GRID)]
    grid += [NrInput(_nr_x(k), m) for k in range(NR_TIMED_K + 1)
             for m in ("newton", "halley")]
    L = plain_layers()
    check = Checker("implicit-sweep")
    for inp in grid:
        check(inp, OPS["implicit-sweep"](L, inp))
    return check.failed


def _key(inp):
    fields = inp if isinstance(inp, tuple) else vars(inp).values()
    return repr([tuple(v) if hasattr(v, "tobytes") else v for v in fields])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--grids", action="store_true")
    args = ap.parse_args()
    seed = args.seed
    ok = True

    def report(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}")

    for wl in IN_PROCESS:
        tracer, counts, ratio, metrics = traced_pass(wl, seed)
        _, counts2, ratio2, _ = traced_pass(wl, seed)
        report(f"{wl}: same seed, same counts and fail ratio",
               counts == counts2 and ratio == ratio2,
               f"fail_ratio={ratio:.4f}")
        a = [_key(i) for i in itertools.islice(INPUTS[wl](seed), 20)]
        b = [_key(i) for i in itertools.islice(INPUTS[wl](seed + 1), 20)]
        report(f"{wl}: another seed, other inputs", a != b)
        report(f"{wl}: self times add up to each op's time",
               self_times_add_up(tracer) and metrics["trace.covered"],
               f"uncovered={metrics['trace.uncovered_pct']:.2f}%")

    def csv_bytes(s):
        paths = write_cli_csvs(s)
        out = b""
        for key in sorted(paths):
            with open(paths[key], "rb") as fh:
                out += fh.read()
        return out

    report("cli-fixtures: another seed, other CSV inputs",
           csv_bytes(seed) != csv_bytes(seed + 1))
    if args.grids:
        failed = grid_failures()
        report("implicit-sweep: no grid input fails", failed == 0,
               f"failed={failed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
