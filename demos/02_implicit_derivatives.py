"""Differentiate implicitly defined functions.

u(x) is pinned down only by F(u, x) = 0.  The dual Newton-Raphson solver
returns u with u' and u'' attached, and because the result is an
ordinary Dual3 it composes freely with everything else.
"""

from dualnum import RootConfig, constant, find_root, sin, variable
from dualnum.fixtures import MECHANISM_PARAMS, MECHANISM_PHI0, nr_example1_equation
from dualnum.reference import central_diff

cfg = RootConfig(u0=2.0, max_iters=100, tol=1e-12)
xd = variable(0.7)

u = find_root(cfg, nr_example1_equation, xd)
print("u(0.7), u', u''      ", u)

# sanity: finite differences of repeated solves agree
def u_value(x):
    return find_root(cfg, nr_example1_equation, variable(x)).f0

print("central differences  ", (u_value(0.7), central_diff(u_value, 0.7, 1),
                                central_diff(u_value, 0.7, 2)))

# compositions in both directions
print("sin(u(x)) + x        ", sin(u) + xd)
print("u(sin x + x^2)       ", find_root(cfg, nr_example1_equation,
                                         sin(xd) + xd * xd))

# Halley's method reaches the same fixed point
halley_cfg = RootConfig(u0=2.0, method="halley", max_iters=100, tol=1e-12)
print("via Halley           ", find_root(halley_cfg, nr_example1_equation, xd))

# RRRCR spatial mechanism: output angle phi(theta) defined by the
# loop-closure equation; velocities and accelerations need phi' and phi''
mech_cfg = RootConfig(u0=MECHANISM_PHI0, max_iters=100, tol=1e-12)
theta = variable(2.0)
phi = find_root(mech_cfg, MECHANISM_PARAMS.loop_closure, theta)
print("phi(2.0), phi', phi''", phi)
residual = MECHANISM_PARAMS.loop_closure(constant(phi.f0), constant(2.0))
print("loop residual        ", residual.f0)
print("f(phi) for f=2sin^2  ", 2.0 * sin(phi) * sin(phi))
