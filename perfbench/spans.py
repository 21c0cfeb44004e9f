"""In-memory spans and the per-layer metrics derived from them.

A span is ``[name, start_ns, end_ns, parent, op, size, ok]``: ``parent``
indexes the enclosing span (-1 for an op's root span), ``op`` is the op
id shared by every span of one op, ``size`` is a work count where one
exists (knots for the spline layer) and ``ok`` is False when the call
raised.  Self time is a span's duration minus the time its children
cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List

from workloads import ODE_STEPS

NAME, START, END, PARENT, OP, SIZE, OK = range(7)
LARGE_KNOTS = 4096


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.ids: Dict[str, int] = {}
        self.op = -1

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name: str, fn, size=None):
        nid = self._id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args):
            rec = [nid, 0, 0, stack[-1] if stack else -1, self.op,
                   size(*args) if size else 0, True]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args)
            except BaseException:
                rec[OK] = False
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def run_op(self, op_id: int, fn, *args):
        self.op = op_id
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.op = -1

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "op", "size", "ok"],
                       "names": self.names, "spans": self.spans}, fh)


def analyse(tracer: Tracer, first: int, last: int) -> dict:
    """Per-layer counts and times over spans ``first:last`` (one pass)."""
    names = tracer.names
    spans = tracer.spans[first:last]
    child_ns = defaultdict(int)
    covered = True
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            parent = tracer.spans[p]
            child_ns[p] += s[END] - s[START]
            covered &= parent[START] <= s[START] and s[END] <= parent[END]
    count = defaultdict(int)
    raised = defaultdict(int)
    busy = defaultdict(int)
    self_ns = defaultdict(int)
    for idx, s in enumerate(spans, start=first):
        name = names[s[NAME]]
        dur = s[END] - s[START]
        count[name] += 1
        raised[name] += not s[OK]
        busy[name] += dur
        self_ns[name] += dur - child_ns[idx]
        covered &= child_ns[idx] <= dur  # children never overlap their parent

    # Residual evaluations inside solves that returned.
    useful = 0
    solve = tracer.ids.get("rootfind.find_root")
    resid = tracer.ids.get("core.residual")
    build = defaultdict(lambda: [0, 0])  # small/large -> [ns, knots]
    for s in spans:
        if s[NAME] == resid and s[PARENT] >= 0:
            parent = tracer.spans[s[PARENT]]
            useful += parent[NAME] == solve and parent[OK]
        if names[s[NAME]] == "spline.build":
            acc = build["large" if s[SIZE] >= LARGE_KNOTS else "small"]
            acc[0] += s[END] - s[START]
            acc[1] += s[SIZE]

    s_ = 1e-9
    m = {}
    n_resid = count["core.residual"]
    m["core.residual_calls"] = n_resid
    m["core.residual_busy_s"] = busy["core.residual"] * s_
    if n_resid:
        m["core.residual_us"] = busy["core.residual"] / n_resid * 1e-3
    solves = count["rootfind.find_root"]
    m["rootfind.solves"] = solves
    m["rootfind.raised"] = raised["rootfind.find_root"]
    m["rootfind.busy_s"] = busy["rootfind.find_root"] * s_
    m["rootfind.self_s"] = self_ns["rootfind.find_root"] * s_
    if solves:
        m["rootfind.evals_per_solve"] = n_resid / solves
        m["rootfind.useful_eval_ratio"] = useful / n_resid
    m["spline.builds"] = count["spline.build"]
    m["spline.knots"] = build["small"][1] + build["large"][1]
    m["spline.data_busy_s"] = busy["spline.data"] * s_
    m["spline.build_busy_s"] = busy["spline.build"] * s_
    for kind, (ns, knots) in build.items():
        if knots:
            m[f"spline.build_ns_per_knot.{kind}"] = ns / knots
    evals = count["spline.eval"]
    m["spline.evals"] = evals
    m["spline.eval_busy_s"] = busy["spline.eval"] * s_
    if evals:
        m["spline.eval_us"] = busy["spline.eval"] / evals * 1e-3
    roots = count["spline.derivroot"]
    m["spline.derivroot_calls"] = roots
    m["spline.derivroot_raised"] = raised["spline.derivroot"]
    if roots:
        m["spline.derivroot_us"] = busy["spline.derivroot"] / roots * 1e-3
    calls = count["ode.rk4dual"]
    m["ode.rk4dual_calls"] = calls
    m["ode.steps"] = calls * ODE_STEPS
    m["ode.rhs_calls"] = count["ode.rhs"]
    m["ode.rhs_busy_s"] = busy["ode.rhs"] * s_
    m["ode.self_s"] = self_ns["ode.rk4dual"] * s_
    if calls:
        m["ode.step_us"] = self_ns["ode.rk4dual"] / (calls * ODE_STEPS) * 1e-3
    ops = busy["op"]
    m["trace.spans"] = len(spans)
    m["trace.uncovered_pct"] = 100.0 * self_ns["op"] / ops if ops else 0.0
    m["trace.covered"] = covered
    return m
