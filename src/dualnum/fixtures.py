"""Embedded example problems and their reference outputs.

Everything the CLI fixture commands need ships here so ``--check`` runs
without external files.  Reference triples are stored to four decimals;
checks compare at 1e-4 absolute.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import Dual3, cos, sin
from .rootfind import MechanismParams

if TYPE_CHECKING:
    from .spline import SplineData

# -- implicit-function example -----------------------------------------

NR_EXAMPLE1_X0 = 0.7
NR_EXAMPLE1_U0 = 2.0
NR_EXAMPLE1_ITERS = 100


def nr_example1_equation(u: Dual3, x: Dual3) -> Dual3:
    """f(u, x) = cos(u x) - u^3 + x + sin(u^2 x)."""
    return cos(u * x) - u ** 3 + x + sin(u * u * x)


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


def ln_sample_data() -> SplineData:
    from .spline import SplineData
    return SplineData(LN_SAMPLE_X, LN_SAMPLE_Y)


# -- photothermal pipeline ------------------------------------------------

SAMPLE_THICKNESS = 522e-6        # metres
TARGET_DIFFUSIVITY = 6.00e-6     # m^2/s
DIFFUSIVITY_RTOL = 0.02


def radiometry_peak_frequency() -> float:
    """Peak frequency implied by inverting the diffusivity formula."""
    return 9.0 * math.pi * TARGET_DIFFUSIVITY / (64.0 * SAMPLE_THICKNESS)


def radiometry_fixture() -> SplineData:
    """Synthetic amplitude-vs-frequency curve with one interior maximum.

    A quadratic bump: its derivative is linear with one zero, which the
    closed-form search on the spline slope finds from any start in
    range.  The peak sits at :func:`radiometry_peak_frequency`, so
    running the full pipeline recovers ``TARGET_DIFFUSIVITY``.
    """
    import numpy as np

    from .spline import SplineData

    peak = radiometry_peak_frequency()
    width = 4e-3
    freq = np.linspace(peak - 0.8 * width, peak + 0.8 * width, 33)
    amplitude = 1.0 - ((freq - peak) / width) ** 2
    return SplineData(freq, amplitude)


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
