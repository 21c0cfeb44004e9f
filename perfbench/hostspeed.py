"""Host-speed adjustment for the timed end-to-end metrics.

On a host that shares physical cores with other tenants (measured on a
2-vCPU Intel Xeon virtual machine), speed swings between 1x and about
2.3x slower within seconds, and for runs of tens of seconds.  Measured side by side on one
pinned CPU, all interpreter-bound code slows together (a pure-Python loop,
the mechanism solve and the spline op within 5% of each other, the RK4 op
within 10%), and all fresh-process work slows together, though by less.

So every timed op is paired with a reference of the same kind that
shares no code with dualnum: a fixed pure-Python loop after every 10 ms
of in-process op time, or a fresh interpreter that imports a fixed set of
standard-library modules between fresh-process ops.  Each op's latency is
scaled by the reference's nominal over measured time (the median of the
last few measurements, up to the one just after the op).  A change to
dualnum moves the adjusted latencies exactly as it moves the raw ones;
the nominal times (the references on an uncontended host) only set the
scale.  The whole run is pinned to one CPU (``pin``), so that ops and
references share it.  Raw figures are printed in the report next to the
adjusted ones.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

_ITERATIONS = 2000
LOOP_NOMINAL_S = 0.0012
PROCESS_NOMINAL_S = 0.13
_PROCESS = [sys.executable, "-c",
            "import argparse, asyncio, decimal, email.parser, fractions, "
            "http.client, json, statistics, unittest, xml.dom.minidom"]


def pin() -> None:
    """Run this process and its children on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other):
        return _Pair(self.a * other.a, self.a * other.b + self.b * other.a)


def _loop_s() -> float:
    # Small-object allocation, attribute access and float arithmetic, as
    # in Dual3 ops.
    x, y = _Pair(1.0001, 0.5), _Pair(0.9999, 0.25)
    t0 = time.perf_counter()
    for _ in range(_ITERATIONS):
        x = x.mul(y)
        x = _Pair(x.a, x.b * 0.5)
    return time.perf_counter() - t0


def loop_speed() -> float:
    """Nominal over measured time of the pure-Python reference loop."""
    return LOOP_NOMINAL_S / _loop_s()


def process_speed() -> float:
    """Nominal over measured time of the fresh-interpreter reference."""
    t0 = time.perf_counter()
    subprocess.run(_PROCESS, check=True, capture_output=True, timeout=60)
    return PROCESS_NOMINAL_S / (time.perf_counter() - t0)


class Adjuster:
    """Collects raw op latencies and scales them group by group.

    A group ends once it holds 10 ms of op time, so a long op is a group
    alone, and a speed is measured after each group.  A group's factor is
    the median of the four speeds around it, two on each side: one
    disturbed reference does not move the ops next to it, and a long op
    is still scaled by the speeds just before and just after it.
    """

    GROUP_NS = 10_000_000
    SIDE = 2

    def __init__(self, speed):
        self.raw_ns: list = []
        self.adjusted_ns: list = []
        self._speed = speed
        self._speeds = [speed()]  # group g runs between _speeds[g], [g + 1]
        self._ends: list = []     # len(raw_ns) at the end of each group
        self._scaled = 0          # groups scaled so far
        self._group_ns = 0

    def add(self, ns: int) -> None:
        self.raw_ns.append(ns)
        self._group_ns += ns
        if self._group_ns >= self.GROUP_NS:
            self._end_group()
            self._scale(len(self._speeds) - self.SIDE)

    def flush(self) -> None:
        if len(self.raw_ns) > (self._ends[-1] if self._ends else 0):
            self._end_group()
        self._scale(len(self._ends))

    def _end_group(self) -> None:
        self._ends.append(len(self.raw_ns))
        self._speeds.append(self._speed())
        self._group_ns = 0

    def _scale(self, groups: int) -> None:
        """Scale every group before ``groups`` not scaled yet."""
        for g in range(self._scaled, groups):
            lo = self._ends[g - 1] if g else 0
            window = self._speeds[max(0, g + 1 - self.SIDE):g + 1 + self.SIDE]
            factor = statistics.median(window)
            self.adjusted_ns += [ns * factor
                                 for ns in self.raw_ns[lo:self._ends[g]]]
        self._scaled = max(self._scaled, groups)
