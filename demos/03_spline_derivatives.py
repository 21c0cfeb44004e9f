"""Differentiate through interpolated data.

Build a natural cubic spline over samples, then evaluate it on dual
arguments: derivatives of the interpolant, of functions of it, and of it
applied to dual expressions all come out of the same call.  Ends with
the peak-location pipeline used for thermal-diffusivity estimation.
"""

import numpy as np

from dualnum import (
    build_spline,
    diffusivity,
    eval_dual,
    find_derivative_root,
    sin,
    variable,
)
from dualnum.fixtures import (
    SAMPLE_THICKNESS,
    ln_sample_data,
    radiometry_fixture,
    radiometry_peak_frequency,
)
from dualnum.reference import tinv_entry, usmani_inverse

model = build_spline(ln_sample_data())
xd = variable(1.75)

y = eval_dual(model, xd)
print("y(1.75), y', y''       ", y)
print("true ln values         ", (float(np.log(1.75)), 1 / 1.75, -1 / 1.75 ** 2))

# compositions around the interpolant
print("x sin^2(y(x))          ", xd * sin(y) * sin(y))
print("y(x sin^2 x)           ", eval_dual(model, xd * sin(xd) * sin(xd)))

# the knot-slope system T D = R has a closed-form inverse; compare one
# entry against the general tridiagonal recurrences
n = len(model.data)
general = usmani_inverse(np.array([2.0] + [4.0] * (n - 2) + [2.0]),
                         np.ones(n - 1), np.ones(n - 1))
print("T^-1[3,5] closed form  ", tinv_entry(n, 3, 5))
print("T^-1[3,5] recurrences  ", general[2, 4])

# peak-location pipeline: spline an amplitude curve, find the zero of its
# derivative (closed-form roots of each segment's slope quadratic, the one
# nearest the start wins), convert to diffusivity
curve = build_spline(radiometry_fixture())
start = float(curve.data.x[len(curve.data) // 2])
peak = find_derivative_root(curve, start)
alpha = diffusivity(SAMPLE_THICKNESS, peak)
print("recovered peak (Hz)    ", peak)
print("designed peak (Hz)     ", radiometry_peak_frequency())
print("thermal diffusivity    ", alpha, "m^2/s")
