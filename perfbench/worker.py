"""One benchmark process; ``run.py`` starts it fresh for every measurement.

    worker.py setup <workload> <seed>
        Generate the first input, then ``import dualnum`` and run that op
        cold.  Prints ``ready <generation seconds>`` as soon as it is done.
    worker.py loop <workload> <seed> <seconds>
        Closed loop, one op at a time: whole passes over the same seeded
        inputs until the ops' own time reaches ``seconds``.  The first
        pass is checked against the oracles between ops, outside the
        timed region; later passes must reproduce its outcomes exactly.
    worker.py trace <workload> <seed> <seconds>
        One traced pass of fixed size per in-process workload (and of
        cli-fixtures when it is the workload), the tracing overhead on the
        workload for ``seconds``, the two known-failure probes, the micro
        block and the CLI probes.
        Spans are written to ``perfbench/out``.

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import sys
import time

from hostspeed import Adjuster, loop_speed, pin, process_speed
from workloads import (Err, INPUTS, IN_PROCESS, OPS, OUT, nr_probe_inputs,
                       spline_probe_inputs, write_cli_csvs)

# Ops per pass in the traced run: fixed, so counts repeat exactly per seed.
PASS_OPS = {"implicit-sweep": 160, "spline-curves": 40, "ode-grid": 40,
            "cli-fixtures": 8}
# Distinct inputs per pass of the timed loop: at least 1000 where an op
# is short enough, so that 10 samples lie beyond p99; for spline-curves,
# whose top 1% are its largest curves, enough for 20 of those.
LOOP_OPS = {"implicit-sweep": 1000, "spline-curves": 2000, "ode-grid": 4000,
            "cli-fixtures": 8}
# A loop whose checks are slow still ends well inside the 180 s limit.
WALL_LIMIT_S = 120.0


def setup(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    inp = next(INPUTS[workload](seed))
    gen_s = time.perf_counter() - t0
    from layers import plain_layers

    OPS[workload](plain_layers(), inp)
    print(f"ready {gen_s!r}", flush=True)


class Checker:
    """Judges outcomes and tallies failures by class."""

    def __init__(self, workload: str):
        import oracle

        self.attempted = self.failed = self.wrong = self.unchecked = 0
        self.verdicts: list = []
        self.classes: dict = {}
        if workload == "implicit-sweep":
            self._check = oracle.check_implicit
        elif workload == "spline-curves":
            self._check = oracle.check_spline
        elif workload == "ode-grid":
            truth = oracle.DuffingTruth()
            self._check = lambda i, o: oracle.check_ode(i, o, truth)
        else:
            self._check = oracle.check_cli

    def __call__(self, inp, outcome) -> None:
        problems = self._check(inp, outcome)
        self.attempted += 1
        self.unchecked += sum(p.wrong is None for p in problems)
        problems = [p for p in problems if p.wrong is not None]
        self.verdicts.append(not problems)
        if problems:
            self.failed += 1
            self.wrong += any(p.wrong for p in problems)
            for p in problems:
                self.classes[p.label] = self.classes.get(p.label, 0) + 1

    def repeat(self, i: int, same: bool) -> None:
        """A later execution of checked op ``i``: it fails as op ``i`` did,
        and also when its outcome differs from the checked one."""
        self.attempted += 1
        if not same:
            label = "outcome differs between passes"
            self.classes[label] = self.classes.get(label, 0) + 1
            self.wrong += 1
        if not (same and self.verdicts[i]):
            self.failed += 1

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "wrong": self.wrong, "unchecked_rows": self.unchecked,
                "failure_classes": self.classes}


def _peak_rss_mb(workload: str) -> float:
    who = (resource.RUSAGE_CHILDREN if workload == "cli-fixtures"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def _digest(workload: str, outcome):
    """What later passes must reproduce exactly (the model is left out)."""
    if workload == "spline-curves":
        model, rows, root = outcome
        outcome = [*rows, root]
    if workload == "cli-fixtures":
        return outcome
    return [r if isinstance(r, (Err, float)) else (r.f0, r.f1, r.f2)
            for r in outcome]


def loop(workload: str, seed: int, seconds: float) -> dict:
    """Whole passes over the same LOOP_OPS inputs until the ops' own time
    reaches ``seconds``; every execution is timed and host-adjusted."""
    from layers import plain_layers

    L = plain_layers()
    op = OPS[workload]
    check = Checker(workload)
    inputs = list(itertools.islice(INPUTS[workload](seed), LOOP_OPS[workload]))
    for inp in inputs[:2]:  # warm
        op(L, inp)
    clock = time.perf_counter_ns
    times = Adjuster(process_speed if workload == "cli-fixtures"
                     else loop_speed)
    digests = []
    budget = int(seconds * 1e9)
    timed = passes = last = 0
    wall0 = time.perf_counter()
    # Whole passes only; the last one that fits ends the loop.
    while (passes < 2 or timed + last <= budget) and \
            time.perf_counter() - wall0 < WALL_LIMIT_S:
        start = timed
        for i, inp in enumerate(inputs):
            t0 = clock()
            outcome = op(L, inp)
            dt = clock() - t0
            timed += dt
            if passes == 0:
                check(inp, outcome)
                digests.append(_digest(workload, outcome))
            else:
                check.repeat(i, _digest(workload, outcome) == digests[i])
            times.add(dt)
        passes += 1
        last = timed - start
    times.flush()
    return {"raw_ns": times.raw_ns, "adjusted_ns": times.adjusted_ns,
            "passes": passes, "peak_rss_mb": _peak_rss_mb(workload),
            **check.summary()}


def _pass(workload, seed, L, tracer=None, check=None) -> None:
    """Run the first PASS_OPS ops of the stream, traced if ``tracer``."""
    op = OPS[workload]
    stream = itertools.islice(INPUTS[workload](seed), PASS_OPS[workload])
    for i, inp in enumerate(stream):
        outcome = tracer.run_op(i, op, L, inp) if tracer else op(L, inp)
        if check:
            check(inp, outcome)


def _paired_overhead(workload, seed, plain, traced, tracer, until) -> float:
    """Tracing overhead in percent: each op runs untraced and traced back
    to back (order alternating), so both see the same host speed."""
    op = OPS[workload]
    inputs = list(itertools.islice(INPUTS[workload](seed), PASS_OPS[workload]))
    clock = time.perf_counter_ns
    mark = len(tracer.spans)
    ns = [0, 0]
    while True:
        for i, inp in enumerate(inputs):
            for with_trace in ((False, True) if i % 2 else (True, False)):
                t0 = clock()
                if with_trace:
                    tracer.run_op(i, op, traced, inp)
                else:
                    op(plain, inp)
                ns[with_trace] += clock() - t0
            del tracer.spans[mark:]
        if time.perf_counter() >= until:
            return 100.0 * (ns[True] - ns[False]) / ns[False]


def _probe_failed(workload: str, inputs) -> int:
    """Ops of a fixed probe that disagree with the oracle.  The probes hold
    inputs the seed commit fails on, kept out of the timed workloads so
    that no timed op fails; a fix shows as this count falling to 0."""
    from layers import plain_layers

    L = plain_layers()
    check = Checker(workload)
    for inp in inputs:
        check(inp, OPS[workload](L, inp))
    return check.failed


# Which workload's traced pass supplies each layer's metrics.
OWNER = {"core": "implicit-sweep", "rootfind": "implicit-sweep",
         "spline": "spline-curves", "ode": "ode-grid"}


def trace(workload: str, seed: int, seconds: float) -> dict:
    from layers import plain_layers, traced_layers
    from micro import cli_probes, micro_block
    from spans import Tracer, analyse

    until = time.perf_counter() + seconds
    speeds = [loop_speed()]
    plain = plain_layers()
    tracer = Tracer()
    traced = traced_layers(tracer)
    metrics = {}
    checks = []
    for wl in IN_PROCESS + ("cli-fixtures",):
        if wl == "cli-fixtures" != workload:
            continue
        check = Checker(wl)
        checks.append(check)
        _pass(wl, seed, plain)  # warm
        first = len(tracer.spans)
        _pass(wl, seed, traced, tracer, check)
        own = analyse(tracer, first, len(tracer.spans))
        for name, value in own.items():
            if OWNER.get(name.split(".")[0], workload) == wl:
                metrics[name] = value
        if wl == workload:
            metrics["trace.overhead_pct"] = _paired_overhead(
                wl, seed, plain, traced, tracer, until)
        speeds.append(loop_speed())

    metrics["rootfind.far_x_failed"] = _probe_failed(
        "implicit-sweep", nr_probe_inputs())
    metrics["spline.uneven_knots_failed"] = _probe_failed(
        "spline-curves", spline_probe_inputs())
    metrics.update(micro_block())
    metrics.update(cli_probes(write_cli_csvs(seed)))
    speeds.append(loop_speed())
    metrics["host.loop_speed"] = statistics.median(speeds)
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{workload}-{seed}.json"))
    total = {"attempted": 0, "failed": 0, "wrong": 0, "unchecked_rows": 0,
             "failure_classes": {}}
    for c in checks:
        s = c.summary()
        for k in ("attempted", "failed", "wrong", "unchecked_rows"):
            total[k] += s[k]
        total["failure_classes"].update(s["failure_classes"])
    return {"metrics": metrics, **total}


def main(argv) -> None:
    pin()
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        setup(workload, seed)
        return
    run = loop if mode == "loop" else trace
    print(json.dumps(run(workload, seed, float(argv[3]))))


if __name__ == "__main__":
    main(sys.argv[1:])
