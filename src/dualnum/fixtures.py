"""Embedded example problems and their reference outputs.

Everything the CLI fixture commands need ships here so ``--check`` runs
without external files.  Reference triples are stored to four decimals;
checks compare at 1e-4 absolute.  The nr-example1 residual is a float
kernel with the bits of its operator form,
``reference.nr_example1_equation``; the mechanism's is
``MechanismParams.loop_closure`` (see :mod:`dualnum.rootfind`).
"""

from __future__ import annotations

import math

from .core import Dual3, _mk
from .errors import DomainError
from .rootfind import MechanismParams

# -- implicit-function example -----------------------------------------

NR_EXAMPLE1_X0 = 0.7
NR_EXAMPLE1_U0 = 2.0
NR_EXAMPLE1_ITERS = 100


def nr_example1_equation(u: Dual3, x: Dual3) -> Dual3:
    """f(u, x) = cos(u x) - u^3 + x + sin(u^2 x).

    The operator expression of ``reference.nr_example1_equation``,
    ``cos(u * x) - u ** 3 + x + sin(u * u * x)``, as straight-line float
    code: the ``Dual3`` operators' component formulas in the operators'
    order (``u ** 3`` is ``(u * u) * u``), and ``core._chain``'s formula
    for the two lifts, so the bits are theirs and one ``Dual3`` is
    built.  A non-finite argument of ``cos`` or ``sin`` raises
    ``DomainError`` before libm sees it; any other inf or NaN reaches a
    final component, where ``_mk`` raises ``DomainError`` as the
    operators would.
    """
    u0, u1, u2 = u.f0, u.f1, u.f2
    x0, x1, x2 = x.f0, x.f1, x.f2
    a0 = u0 * x0  # u * x
    a1 = u1 * x0 + u0 * x1
    a2 = u2 * x0 + 2.0 * u1 * x1 + u0 * x2
    p0 = u0 * u0  # u * u, the first factor of both u ** 3 and u * u * x
    p1 = u1 * u0 + u0 * u1
    p2 = u2 * u0 + 2.0 * u1 * u1 + u0 * u2
    b0 = p0 * x0  # u * u * x
    b1 = p1 * x0 + p0 * x1
    b2 = p2 * x0 + 2.0 * p1 * x1 + p0 * x2
    if 0.0 * a0 * b0 != 0.0:
        raise DomainError(f"non-finite argument of cos or sin: u x = {a0!r},"
                          f" u^2 x = {b0!r}")
    # cos(a): the jet (c, -s, -c) chained through a
    c, s = math.cos(a0), math.sin(a0)
    j1, j2 = -s, -c
    r0 = c - p0 * u0  # - u ** 3
    r1 = j1 * a1 - (p1 * u0 + p0 * u1)
    r2 = j2 * a1 * a1 + j1 * a2 - (p2 * u0 + 2.0 * p1 * u1 + p0 * u2)
    # + x + sin(b), the jet (sb, cb, -sb) chained through b
    sb, cb = math.sin(b0), math.cos(b0)
    return _mk(r0 + x0 + sb, r1 + x1 + cb * b1,
               r2 + x2 + (-sb * b1 * b1 + cb * b2))


NR_EXAMPLE1_EXPECTED = {
    "u": (1.3085, 0.1163, -0.9337),
    "g1": (1.6658, 1.0301, -0.2551),
    "g2": (1.2963, -0.2556, -1.1425),
}

# -- RRRCR mechanism -----------------------------------------------------

MECHANISM_PARAMS = MechanismParams(
    L=0.3933578023,
    l=0.4174323687,
    a=0.9526245468,
    R=0.4484604992,
    s1=0.6298138891,
    s2=-0.2506389576,
    b=2.0,
    e=1.0,
)

# Found by scanning starts over [0.3, 2.0]; every one converges to the
# same output-angle branch (phi ~ 2.1351 at theta = 2.0).
MECHANISM_PHI0 = 1.0
MECHANISM_X0 = 2.0

MECHANISM_EXPECTED = {
    "f(phi(x0))": (1.4279, -1.7693, -1.2856),
    "phi(f(x0))": (1.7817, -1.6171, -3.5137),
}

# -- spline example ------------------------------------------------------

# Samples of ln(x) on [1, 3], step 0.25.  Plain tuples, so importing
# this module loads neither numpy nor dualnum.spline.
LN_SAMPLE_X = tuple(1.0 + 0.25 * i for i in range(9))
LN_SAMPLE_Y = (
    0.0,
    0.22314355,
    0.40546511,
    0.55961579,
    0.69314718,
    0.81093022,
    0.91629073,
    1.0116009,
    1.0986123,
)

SPLINE_AT = 1.75

# (value, first derivative) per row; y is the spline itself,
# f(x) = x sin^2(y(x)), g(x) = y(x sin^2 x).
SPLINE_EXPECTED = {
    "y": (0.5596, 0.5727),
    "f": (0.4931, 1.1836),
    "g": (0.5272, 0.2097),
}


def ln_sample_data() -> "SplineData":
    from .spline import SplineData
    return SplineData(LN_SAMPLE_X, LN_SAMPLE_Y)


# -- photothermal pipeline ------------------------------------------------

SAMPLE_THICKNESS = 522e-6        # metres
TARGET_DIFFUSIVITY = 6.00e-6     # m^2/s
DIFFUSIVITY_RTOL = 0.02


def radiometry_peak_frequency() -> float:
    """Peak frequency implied by inverting the diffusivity formula."""
    return 9.0 * math.pi * TARGET_DIFFUSIVITY / (64.0 * SAMPLE_THICKNESS)


def radiometry_fixture() -> "SplineData":
    """Synthetic amplitude-vs-frequency curve with one interior maximum.

    A quadratic bump: its derivative is linear with one zero, which the
    closed-form search on the spline slope finds from any start in
    range.  The peak sits at :func:`radiometry_peak_frequency`, so
    running the full pipeline recovers ``TARGET_DIFFUSIVITY``.
    """
    from .spline import SplineData

    peak = radiometry_peak_frequency()
    width = 4e-3
    lo, hi = peak - 0.8 * width, peak + 0.8 * width
    # np.linspace(lo, hi, 33) bit for bit: i * step + lo, then hi itself
    step = (hi - lo) / 32
    freq = [lo + i * step for i in range(32)] + [hi]
    return SplineData(freq, [1.0 - ((f - peak) / width) ** 2 for f in freq])


# -- Duffing oscillator ----------------------------------------------------

DUFFING_T = 1.0
DUFFING_STEPS = 100

# g(t) = sin t.  Row assignment cross-checked with the chain rule:
# sin(f(1)) = sin(-0.7474) = -0.6797 and cos(f) f' = -0.0940 pin the
# g(f(t)) row; the remaining triple is f(g(t)).
DUFFING_EXPECTED = {
    "f(t)": (-0.7474, -0.1282, 0.8140),
    "f(g(t))": (-0.7144, -0.1638, 0.6608),
    "g(f(t))": (-0.6797, -0.0940, 0.6081),
}

CHECK_ABS_TOL = 1e-4
