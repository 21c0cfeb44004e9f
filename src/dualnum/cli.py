"""Command-line surface over the bundled example problems.

Subcommands ``nr-example1``, ``mechanism``, ``spline``, ``diffusivity``
and ``duffing`` each evaluate one of the packaged fixtures (or, where a
``--csv`` flag exists, user data) and emit rows of
value / first derivative / second derivative.  One table,
:data:`PROBLEMS`, gives each subcommand its options, the function that
computes its rows and the reference values ``--check`` compares against.

Shared flags: ``--json`` for machine-readable output, ``--check`` to
compare against the embedded reference values, ``--precision`` for the
number of displayed digits.  Exit codes: 0 success, 1 validation error,
2 numerical failure (including a failed ``--check``), and from a process
(``python -m dualnum`` or the ``dualnum`` script, both :func:`run`) 3
when standard output is a closed pipe.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import sys

from . import fixtures
from .core import Dual3, constant, sin, variable
from .errors import (NonConvergenceError, NumericalError, ValidationError,
                     check_finite)
from .rootfind import RootConfig, find_root

# The spline subcommands import dualnum.spline when they run (no numpy up
# to 96 knots), and duffing dualnum.ode (with dataclasses).

_FIELDS = ("value", "first", "second")

# |F| above which a fixed-count solve's root is rejected (exit 2).
_RESIDUAL_TOL = 1e-9


# -- CSV ingestion -------------------------------------------------------

def read_xy_csv(path: str) -> "SplineData":
    """Two numeric columns, comma or whitespace separated, optionally one
    header line.  Rows must already be sorted by strictly increasing x."""
    from .spline import SplineData

    xs, ys = [], []
    try:  # utf-8-sig drops the byte-order mark some editors write first
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValidationError(
                f"{path}:{lineno}: expected two columns, got {len(parts)}"
            )
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            if not xs and lineno == 1:
                continue  # header line
            raise ValidationError(
                f"{path}:{lineno}: cannot parse numbers from {line!r}"
            ) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(f"{path}:{lineno}: data points must "
                                  f"be finite, got {line!r}")
        if xs and x <= xs[-1]:
            raise ValidationError(f"{path}:{lineno}: x values must be "
                                  "strictly increasing (sort the rows)")
        xs.append(x)
        ys.append(y)
    if len(xs) < 2:
        raise ValidationError(f"{path}: need at least 2 data rows")
    return SplineData(xs, ys)


# -- problems ------------------------------------------------------------

def _solve(cfg: RootConfig, F, g: Dual3) -> tuple[Dual3, float]:
    """``find_root``, whose fixed-count loop has no residual tolerance,
    then :class:`NonConvergenceError` if ``|F|`` at the root exceeds
    ``_RESIDUAL_TOL``.  Returns the root and ``F`` at its real parts."""
    u = find_root(cfg, F, g)
    residual = F(constant(u.f0), constant(g.f0)).f0
    if abs(residual) > _RESIDUAL_TOL:
        raise NonConvergenceError(
            f"|F| = {abs(residual):.3e} > {_RESIDUAL_TOL:.0e} after "
            f"{cfg.max_iters} iterations", residual=residual)
    return u, residual


def _nr_example1(args) -> list[tuple[str, Dual3]]:
    cfg = RootConfig(u0=fixtures.NR_EXAMPLE1_U0,
                     max_iters=fixtures.NR_EXAMPLE1_ITERS, tol=0.0)
    F = fixtures.nr_example1_equation
    xd = variable(fixtures.NR_EXAMPLE1_X0)
    u, _ = _solve(cfg, F, xd)
    return [("u", u), ("g1", sin(u) + xd),
            ("g2", _solve(cfg, F, sin(xd) + xd * xd)[0])]


def _mechanism(args) -> list[tuple[str, Dual3]]:
    F = fixtures.MECHANISM_PARAMS.loop_closure
    cfg = RootConfig(u0=fixtures.MECHANISM_PHI0, max_iters=100, tol=0.0)
    xd = variable(args.x0)
    phi, residual = _solve(cfg, F, xd)
    if args.fn == "identity":
        return [("phi(x0)", phi), ("residual", Dual3(residual))]
    return [("f(phi(x0))", 2.0 * sin(phi) * sin(phi)),
            ("phi(f(x0))", _solve(cfg, F, 2.0 * sin(xd) * sin(xd))[0])]


def _spline(args) -> list[tuple[str, Dual3]]:
    from .spline import build_spline, eval_dual

    data = read_xy_csv(args.csv) if args.csv else fixtures.ln_sample_data()
    model = build_spline(data)
    xd = variable(args.at)
    y = eval_dual(model, xd)
    return [("y", y), ("f", xd * sin(y) * sin(y)),
            ("g", eval_dual(model, xd * sin(xd) * sin(xd)))]


def _diffusivity(args) -> list[tuple[str, Dual3]]:
    from .spline import (build_spline, diffusivity, eval_dual,
                         find_derivative_root)

    data = read_xy_csv(args.csv) if args.csv else fixtures.radiometry_fixture()
    model = build_spline(data)
    if args.x0 is not None:
        start = check_finite("--x0", args.x0)
    else:
        # Plain floats: reading data.x or data.y would load numpy.
        xs, ys = (v.tolist() for v in data._views)
        if len(xs) > 2:  # the strongest interior sample, the first if tied
            start = xs[ys.index(max(ys[1:-1]), 1)]
        else:
            start = 0.5 * (xs[0] + xs[-1])
    peak = find_derivative_root(model, start)
    alpha = diffusivity(args.thickness, peak)
    at_peak = eval_dual(model, variable(peak))
    return [("f1", Dual3(peak, at_peak.f1, at_peak.f2)),
            ("alpha_s", Dual3(alpha))]


def _duffing(args) -> list[tuple[str, Dual3]]:
    from .ode import duffing_problem, rk4dual

    problem = duffing_problem(fixtures.DUFFING_STEPS)
    td = variable(args.t)
    f = rk4dual(problem, td)
    return [("f(t)", f), ("f(g(t))", rk4dual(problem, sin(td))),
            ("g(f(t))", sin(f))]


# label -> (wanted components, atol, rtol); a row passes a component when
# |got - want| <= atol + rtol * |want|.
def _within(expected: dict, atol: float, rtol: float = 0.0) -> dict:
    return {label: (want, atol, rtol) for label, want in expected.items()}


# One subcommand: help line, (flag, argparse options) pairs, the function
# from parsed arguments to labelled rows, and the --check references.
Problem = collections.namedtuple("Problem", "help options run wanted")

_ABS = fixtures.CHECK_ABS_TOL

PROBLEMS: dict[str, Problem] = {
    "nr-example1": Problem(
        "implicit-function derivatives for the bundled trigonometric "
        "equation",
        (),
        _nr_example1,
        _within(fixtures.NR_EXAMPLE1_EXPECTED, _ABS),
    ),
    "mechanism": Problem(
        "RRRCR output-angle derivatives",
        (("--x0", dict(type=float, default=fixtures.MECHANISM_X0,
                       help="input angle (default %(default)s)")),
         ("--fn", dict(choices=("2sin2", "identity"), default="2sin2",
                       help="composition function: 2 sin^2 x or the "
                            "identity"))),
        _mechanism,
        {**_within(fixtures.MECHANISM_EXPECTED, _ABS),
         **_within({"residual": (0.0,)}, _RESIDUAL_TOL)},
    ),
    "spline": Problem(
        "spline value and composition derivatives",
        (("--csv", dict(metavar="PATH",
                        help="two-column (x, y) data; defaults to the "
                             "bundled log-curve samples")),
         ("--at", dict(type=float, default=fixtures.SPLINE_AT,
                       help="evaluation point (default %(default)s)"))),
        _spline,
        _within(fixtures.SPLINE_EXPECTED, _ABS),
    ),
    "diffusivity": Problem(
        "thermal diffusivity from an amplitude-vs-frequency curve",
        (("--csv", dict(metavar="PATH",
                        help="two-column (frequency, amplitude) data; "
                             "defaults to the bundled synthetic curve")),
         ("--thickness", dict(type=float, default=fixtures.SAMPLE_THICKNESS,
                              help="sample thickness in metres "
                                   "(default %(default)s)")),
         ("--x0", dict(type=float,
                       help="start frequency for the peak search, inside "
                            "the data range (default: the strongest "
                            "interior sample, or the midpoint of two "
                            "rows)"))),
        _diffusivity,
        _within({"f1": (fixtures.radiometry_peak_frequency(),),
                 "alpha_s": (fixtures.TARGET_DIFFUSIVITY,)},
                0.0, fixtures.DIFFUSIVITY_RTOL),
    ),
    "duffing": Problem(
        "derivatives of compositions with the Duffing solution (g = sin)",
        (("--t", dict(type=float, default=fixtures.DUFFING_T,
                      help="evaluation time (default %(default)s)")),),
        _duffing,
        _within(fixtures.DUFFING_EXPECTED, _ABS),
    ),
}


# -- checks and output ---------------------------------------------------

def _check(rows: list[tuple[str, Dual3]], wanted: dict) -> list[dict]:
    checks = []
    for label, d in rows:
        if label not in wanted:
            continue
        want, atol, rtol = wanted[label]
        for field, w, got in zip(_FIELDS, want, (d.f0, d.f1, d.f2)):
            checks.append({"label": label, "field": field, "expected": w,
                           "actual": got,
                           "pass": abs(got - w) <= atol + rtol * abs(w)})
    return checks


def _emit(rows: list[tuple[str, Dual3]], checks: list[dict], args) -> None:
    if args.json:
        builtin = "csv" in vars(args) and not args.csv
        provenance = args.command + ("-builtin" if builtin else "")
        payload = {
            "results": [{"label": label, "value": d.f0, "first": d.f1,
                         "second": d.f2, "provenance": provenance}
                        for label, d in rows],
            "status": "ok" if all(c["pass"] for c in checks)
            else "check-failed",
        }
        if args.check:
            payload["checks"] = checks
        print(json.dumps(payload, indent=2))
        return
    digits = args.precision
    width = max(len(label) for label, _ in rows)
    for label, d in rows:
        print(f"{label:<{width}}  {d.f0:+.{digits}f}  "
              f"{d.f1:+.{digits}f}  {d.f2:+.{digits}f}")
    for c in checks:
        verdict = "PASS" if c["pass"] else "FAIL"
        print(f"check {c['label']}.{c['field']}: {c['actual']:+.{digits}f} "
              f"vs {c['expected']:+.{digits}f}  {verdict}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON at full precision")
    common.add_argument("--check", action="store_true",
                        help="compare against the embedded reference values")
    common.add_argument("--precision", type=int, default=4, metavar="DIGITS",
                        help="displayed digits in table output (default 4)")

    parser = argparse.ArgumentParser(
        prog="dualnum",
        description="Exact first/second derivatives through implicit "
                    "functions, splines and ODE solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, problem in PROBLEMS.items():
        p = sub.add_parser(name, parents=[common], help=problem.help)
        for flag, options in problem.options:
            p.add_argument(flag, **options)
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage errors are validation.
        return 1 if exc.code == 2 else int(exc.code or 0)
    if not 1 <= args.precision <= 17:
        print("error: --precision must be between 1 and 17", file=sys.stderr)
        return 1
    problem = PROBLEMS[args.command]
    try:
        rows = problem.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    checks = _check(rows, problem.wanted) if args.check else []
    _emit(rows, checks, args)
    return 0 if all(c["pass"] for c in checks) else 2


def run() -> int:
    """:func:`main` on ``sys.argv`` for a process of its own: a closed
    stdout pipe gives exit code 3 and no traceback."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:  # and the flush at exit would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 3
    return code
