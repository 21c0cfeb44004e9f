"""The four benchmark workloads: seeded input streams and one op each.

Input generators use only the standard library, so generating an input
never imports numpy or dualnum ahead of the code being measured.  Each op
calls dualnum through a layer table ``L`` (see ``layers``): the plain table
holds the public functions themselves, the traced table wraps each of
them in a span.  An op returns its outcome rows; every row is either a
``Dual3`` or an ``Err`` naming the exception raised.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from array import array
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

WORKLOADS = ("implicit-sweep", "spline-curves", "ode-grid", "cli-fixtures")
IN_PROCESS = WORKLOADS[:3]


class Err(NamedTuple):
    """A row whose computation raised: exception class name and whether it
    is one of dualnum's typed ``NumericalError`` subclasses."""

    name: str
    numerical: bool


def attempt(fn, *args):
    """Run one row; a raise becomes an ``Err`` row instead of ending the op."""
    try:
        return fn(*args)
    except Exception as exc:  # any raise is recorded; the oracle judges it
        from dualnum import NumericalError

        return Err(type(exc).__name__, isinstance(exc, NumericalError))


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# -- implicit-sweep ------------------------------------------------------
#
# Three quarters of the ops solve the RRRCR output angle over a full input
# rotation (including the angles where the mechanism cannot assemble); one
# quarter solve the nr-example1 equation, half by Newton and half by Halley.
#
# Both draw from fixed grids on which every op agrees with the oracle at
# the seed commit (each grid point was checked), so no timed op fails.
# Beyond x = 0.85 (where sin x + x^2, g2's argument, passes about 1.5) both
# methods started at u0 = 2 wander off and raise at scattered x; those x
# are kept out of the timed loop and counted by the traced run's probe
# (``nr_probe_inputs``, metric ``rootfind.far_x_failed``).

class MechInput(NamedTuple):
    theta: float


class NrInput(NamedTuple):
    x: float
    method: str


THETA_GRID = 4096  # points per turn of the input angle
NR_TIMED_K = 1500  # timed x = _nr_x(k) for k <= this: [0.1, 0.85]
NR_PROBE_K = range(1525, 4001, 25)  # probe x in [0.8625, 2.1]


def _stratified(rng: random.Random, lo: float, hi: float, k: int):
    """Endless uniform draws on [lo, hi): each run of k draws takes one
    point from each of k equal strata, in random order, so the share of
    inputs in any sub-range varies little between seeds."""
    width = (hi - lo) / k
    while True:
        strata = list(range(k))
        rng.shuffle(strata)
        for j in strata:
            yield lo + width * (j + rng.random())


def _nr_x(k: int) -> float:
    """Point k of the x grid over [0.1, 2.1], spacing 0.0005."""
    return 0.1 + 2.0 * k / 4000


def implicit_inputs(seed: int):
    rng = rng_for("implicit-sweep", seed)
    # A pass of 1000 ops holds 750 mechanism ops and 125 per method, so
    # each pass takes one angle and one x from every stratum.
    theta = _stratified(rng, 0.0, THETA_GRID, 750)
    x = {m: _stratified(rng, 0.0, NR_TIMED_K + 1, 125)
         for m in ("newton", "halley")}
    while True:
        # Each block of 8 ops holds exactly 2 nr-example1 ops, one per method.
        slots = rng.sample(range(8), 2)
        methods = rng.sample(("newton", "halley"), 2)
        for i in range(8):
            if i in slots:
                m = methods[slots.index(i)]
                yield NrInput(_nr_x(int(next(x[m]))), m)
            else:
                yield MechInput(2.0 * math.pi * int(next(theta)) / THETA_GRID)


def nr_probe_inputs():
    """Fixed nr-example1 inputs past the timed range, both methods."""
    return [NrInput(_nr_x(k), m) for k in NR_PROBE_K
            for m in ("newton", "halley")]


def implicit_op(L, inp):
    if isinstance(inp, MechInput):
        th = L.variable(inp.theta)
        F = L.residual(L.mechanism_closure)
        cfg = L.RootConfig(u0=1.0)
        phi = attempt(L.find_root, cfg, F, th)
        f_phi = phi if isinstance(phi, Err) else attempt(L.two_sin_sq, phi)
        phi_f = attempt(lambda: L.find_root(cfg, F, L.two_sin_sq(th)))
        return [phi, f_phi, phi_f]
    xd = L.variable(inp.x)
    F = L.residual(L.nr_equation)
    cfg = L.RootConfig(u0=2.0, method=inp.method)
    u = attempt(L.find_root, cfg, F, xd)
    g2 = attempt(lambda: L.find_root(cfg, F, L.nr_arg(xd)))
    return [u, g2]


# -- spline-curves -------------------------------------------------------
#
# One distinct curve per op: 9 in 10 small (9-256 knots, eval dominates),
# 1 in 10 large (4096-65536 knots, build dominates); 1 in 5 monotone, the
# rest with one interior maximum.  Knots are evenly spaced in x, each curve
# with its own seeded start and span.  On unevenly spaced knots the
# spline's x-slope jumps at every knot, and the peak search then fails on
# about half the curves; those curves are kept out of the timed loop and
# counted by the traced run's probe (``spline_probe_inputs``, metric
# ``spline.uneven_knots_failed``).

EVAL_POINTS = 30


@dataclass(frozen=True)
class CurveInput:
    x: array  # float64 buffers, as measured data would arrive
    y: array
    peaked: bool
    points: List[float]
    start: float


def _curve(rng: random.Random, n: int, peaked: bool,
           jitter: float = 0.0) -> CurveInput:
    """A curve on n knots; ``jitter`` > 0 spaces them unevenly, each gap
    drawn from [1 - jitter, 1 + jitter] times the mean."""
    x0 = rng.uniform(0.5, 5.0)
    span = rng.uniform(1.0, 20.0)
    if jitter:
        gaps = [rng.uniform(1.0 - jitter, 1.0 + jitter) for _ in range(n - 1)]
        scale = span / sum(gaps)
        xs = [x0]
        for g in gaps:
            xs.append(xs[-1] + g * scale)
    else:
        xs = [x0 + span * i / (n - 1) for i in range(n)]
    amp = rng.uniform(0.5, 5.0)
    offset = rng.uniform(-1.0, 1.0)
    if peaked:
        # Concave in x, so the only stationary point is the maximum at p.
        p = x0 + span * rng.uniform(0.3, 0.7)
        w = span * rng.uniform(0.6, 1.0)
        ys = []
        for x in xs:
            u = (x - p) / w
            ys.append(offset + amp * (1.0 - u * u - 0.2 * u ** 4))
    else:
        k = rng.uniform(0.5, 3.0)
        ys = [offset + amp * math.exp(k * (x - x0) / span) for x in xs]
    lo, hi = xs[0], xs[-1]
    points = [rng.uniform(lo, hi) for _ in range(EVAL_POINTS)]
    start = lo + (hi - lo) * rng.uniform(0.1, 0.9)
    return CurveInput(array("d", xs), array("d", ys), peaked, points, start)


def spline_inputs(seed: int):
    rng = rng_for("spline-curves", seed)
    small = _stratified(rng, math.log2(9.0), 8.0, 300)
    large = _stratified(rng, 12.0, 16.0, 100)
    while True:
        big = rng.randrange(10)
        monotone = rng.sample(range(10), 2)
        for i in range(10):
            if i == big:
                # One large curve in 5 is monotone, spread evenly over the
                # sizes (every 5th of the 100 strata): its peak search ends
                # early, so the share among the largest curves, which make
                # the p99, stays fixed.
                e = next(large)
                peaked = int((e - 12.0) * 25.0) % 5 != 0
            else:
                e = next(small)
                peaked = i not in monotone
            yield _curve(rng, int(round(2.0 ** e)), peaked=peaked)


def spline_probe_inputs():
    """Fixed small curves on unevenly spaced knots (gaps within 40% of
    the mean), 1 in 5 monotone."""
    rng = random.Random("spline-curves/uneven-probe")
    return [_curve(rng, rng.randint(9, 64), peaked=i % 5 != 0, jitter=0.4)
            for i in range(40)]


def spline_op(L, inp: CurveInput):
    data = L.SplineData(inp.x, inp.y)
    model = L.build_spline(data)
    rows = []
    for xp in inp.points:
        xd = L.variable(xp)
        y = L.eval_dual(model, xd)
        rows.append(y)
        rows.append(attempt(L.x_sin_sq, xd, y))
    return model, rows, attempt(L.find_derivative_root, model, inp.start)


# -- ode-grid ------------------------------------------------------------
#
# f(t), f(sin t) and sin(f(t)) for the Duffing fixture at seeded t.

class OdeInput(NamedTuple):
    t: float


ODE_STEPS = 100


def ode_inputs(seed: int):
    rng = rng_for("ode-grid", seed)
    for t in _stratified(rng, 0.0, 10.0, 100):
        yield OdeInput(t)


def ode_op(L, inp: OdeInput):
    td = L.variable(inp.t)
    f = attempt(L.rk4dual, L.duffing, td)
    f_sin = attempt(lambda: L.rk4dual(L.duffing, L.sin(td)))
    sin_f = f if isinstance(f, Err) else attempt(L.sin, f)
    return [f, f_sin, sin_f]


# -- cli-fixtures --------------------------------------------------------
#
# One fresh `python -m dualnum <variant> --json --check` process per op.

CLI_VARIANTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("nr-example1", ("nr-example1",)),
    ("mechanism", ("mechanism",)),
    ("mechanism-identity", ("mechanism", "--fn", "identity")),
    ("spline", ("spline",)),
    ("diffusivity", ("diffusivity",)),
    ("duffing", ("duffing",)),
    ("spline-csv", ("spline", "--csv", "{spline_csv}")),
    ("diffusivity-csv", ("diffusivity", "--csv", "{diffusivity_csv}")),
)


class CliInput(NamedTuple):
    variant: str
    argv: Tuple[str, ...]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _write_rows(path: str, rows, rng: random.Random) -> None:
    sep = rng.choice((",", ", ", " ", "\t"))
    with open(path, "w", encoding="utf-8") as fh:
        if rng.random() < 0.5:
            fh.write(f"x{sep}y\n")
        for x, y in rows:
            fh.write(f"{x!r}{sep}{y!r}\n")


def write_cli_csvs(seed: int) -> dict:
    """Seeded CSV inputs for the two ``--csv`` variants.

    The spline file holds the bundled log-curve samples in a seeded text
    layout, so ``--check`` still applies.  The diffusivity file is a
    seeded quadratic bump (count, width and range) around the bundled
    peak frequency, which ``--check`` recovers within its 2% tolerance.
    """
    rng = rng_for("cli-fixtures", seed)
    os.makedirs(OUT, exist_ok=True)
    spline_path = os.path.join(OUT, f"cli-{seed}-spline.csv")
    ln_x = [1.0 + 0.25 * i for i in range(9)]
    ln_y = [0.0, 0.22314355, 0.40546511, 0.55961579, 0.69314718,
            0.81093022, 0.91629073, 1.0116009, 1.0986123]
    _write_rows(spline_path, zip(ln_x, ln_y), rng)

    # Evenly spaced: on uneven knots the spline's slope jumps at knots and
    # the peak search can fail (counted by the uneven-knot probe), which
    # would turn --check into a test of that instead of the CLI.
    peak = 9.0 * math.pi * 6.00e-6 / (64.0 * 522e-6)
    width = 4e-3 * rng.uniform(0.5, 2.0)
    n = rng.randint(17, 65)
    lo = peak - width * rng.uniform(0.7, 0.9)
    hi = peak + width * rng.uniform(0.7, 0.9)
    freqs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    amps = [1.0 - ((f - peak) / width) ** 2 for f in freqs]
    diff_path = os.path.join(OUT, f"cli-{seed}-diffusivity.csv")
    _write_rows(diff_path, zip(freqs, amps), rng)
    return {"spline_csv": spline_path, "diffusivity_csv": diff_path}


def cli_inputs(seed: int, csvs: Optional[dict] = None):
    csvs = csvs or write_cli_csvs(seed)
    while True:
        for name, argv in CLI_VARIANTS:
            yield CliInput(name, tuple(a.format(**csvs) for a in argv))


def cli_op(L, inp: CliInput):
    proc = L.run_cli(inp.argv)
    return proc.returncode, proc.stdout


def run_cli(argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "dualnum", *argv, "--json", "--check"],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=120)


INPUTS = {
    "implicit-sweep": implicit_inputs,
    "spline-curves": spline_inputs,
    "ode-grid": ode_inputs,
    "cli-fixtures": cli_inputs,
}

OPS = {
    "implicit-sweep": implicit_op,
    "spline-curves": spline_op,
    "ode-grid": ode_op,
    "cli-fixtures": cli_op,
}
