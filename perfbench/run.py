"""dualnum benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload implicit-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (it needs ``src/dualnum``).  With
``--trace 0`` it measures the end-to-end metrics named in BENCHMARK.json:
set-up time over several fresh interpreters, then a closed loop in a fresh
worker process whose every outcome is checked against the oracles.  With
``--trace 1`` it runs the traced passes and reports the per-layer metrics.
An informational report precedes the result, which is the last line of
stdout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from hostspeed import pin, process_speed  # noqa: E402
from workloads import (  # noqa: E402
    CLI_VARIANTS, ROOT, SRC, WORKLOADS, child_env, run_cli)

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_once(workload: str, seed: int) -> float:
    """Fresh interpreter: ``import dualnum`` plus the first op, cold."""
    if workload == "cli-fixtures":
        argv = CLI_VARIANTS[0][1]
        t0 = time.perf_counter()
        proc = run_cli(argv)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            fail(f"set-up op {' '.join(argv)} exited with {proc.returncode}")
        return elapsed
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "setup",
             workload, str(seed)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        ready = time.perf_counter()
        p.stdout.read()
        code = p.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or not line.startswith("ready "):
        fail(f"set-up worker for {workload} exited with {code}")
    return ready - t0 - float(line.split()[1])


def tail(lat_ms):
    """Highest of p99/p90/p50 with at least 10 samples beyond it."""
    n = len(lat_ms)
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(lat_ms, n=100,
                                                 method="inclusive")[q - 1]
    return "p50", statistics.median(lat_ms)


def metadata() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "src_lines": src_lines}


def latency_metrics(lat_ms) -> dict:
    n = len(lat_ms)
    q, tail_ms = tail(lat_ms)
    return {"throughput_ops_s": (n / (sum(lat_ms) * 1e-3), n),
            "latency_p50_ms": (statistics.median(lat_ms), n),
            "latency_p99_ms": (tail_ms, n, q)}


def measure(workload: str, seed: int, seconds: int) -> tuple:
    setups, raw_setups = [], []
    before = 1.0 / process_speed()
    for _ in range(SETUP_REPEATS):
        raw = setup_once(workload, seed)
        after = 1.0 / process_speed()
        raw_setups.append(raw)
        setups.append(raw * 2.0 / (before + after))
        before = after
    res = worker("loop", workload, str(seed), str(seconds))
    values = latency_metrics([ns * 1e-6 for ns in res.pop("adjusted_ns")])
    raw = latency_metrics([ns * 1e-6 for ns in res.pop("raw_ns")])
    values["setup_s"] = (statistics.median(setups), SETUP_REPEATS)
    values["peak_rss_mb"] = (res["peak_rss_mb"], 1)
    raw["setup_s"] = (statistics.median(raw_setups), SETUP_REPEATS)
    info = {"latency_p99_ms reports": values["latency_p99_ms"][2],
            "passes": res["passes"],
            "raw_metrics": {k: v[0] for k, v in raw.items()},
            "setup_runs_s": raw_setups}
    return values, res, info


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    pin()
    if not os.path.isfile(os.path.join(SRC, "dualnum", "__init__.py")):
        fail(f"no dualnum sources under {SRC}; run from a source checkout")
    declared = spec()["per_layer" if args.trace else "end_to_end"]

    if args.trace:
        res = worker("trace", args.workload, str(args.seed), str(args.seconds))
        values = {k: (v, None) for k, v in res.pop("metrics").items()}
        info = {}
    else:
        values, res, info = measure(args.workload, args.seed, args.seconds)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")

    # fail_ratio is reported here only: no timed op fails at the seed
    # commit, and BENCHMARK.json lists only metrics that are never 0.
    fail_ratio = {"value": res["failed"] / res["attempted"], "unit": "ratio",
                  "samples": res["attempted"]}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": {**{m["name"]: {"value": values[m["name"]][0],
                                   "unit": m["unit"],
                                   "samples": values[m["name"]][1]}
                       for m in declared},
                    "fail_ratio": fail_ratio},
        "extra_metrics": {k: v[0] for k, v in values.items()
                          if k not in {m["name"] for m in declared}},
        "attempted": res["attempted"], "failed": res["failed"],
        "wrong_values": res["wrong"],
        "unchecked_rows": res["unchecked_rows"],
        "failure_classes": res["failure_classes"],
        **info, "meta": metadata(),
    }
    print(json.dumps(report, indent=1))
    result = {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]][0],
                                "unit": m["unit"]} for m in declared},
    }
    if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
        fail("a metric is not finite")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
