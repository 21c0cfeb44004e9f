"""Walk through second-order dual arithmetic.

A Dual3 carries {f, f', f''}.  Seed the variable once, write the
expression as usual, and read both derivatives off the result.
"""

import math

from dualnum import Dual3, compose, constant, exp, log, sin, sqrt, variable

x = variable(0.7)
print("seeded variable      ", x)

# h(x) = x * sin(x^2): product + chain rule, handled invisibly
h = x * sin(x * x)
print("x*sin(x^2) at 0.7    ", h)

hand_first = math.sin(0.49) + 0.7 * math.cos(0.49) * 1.4
hand_second = (2 * 1.4 * math.cos(0.49)
               + 0.7 * (2 * math.cos(0.49) - 1.4 ** 2 * math.sin(0.49)))
print("hand-derived         ", (h.f0, hand_first, hand_second))

# deep composition: exp(sqrt(log(x))) at x = 3
y = variable(3.0)
deep = exp(sqrt(log(y)))
print("exp(sqrt(log(3)))    ", deep)

# constants never pick up derivatives
c = constant(2.5) * sin(constant(1.0)) + 4.0
print("constant chain       ", c)

# compose() is the one place the chain rule lives: give it the jet of f
# at g's value and the jet of g, get the jet of f(g(.))
g = Dual3(2.0, 3.0, 4.0)
cube_jet_at_2 = Dual3(8.0, 12.0, 12.0)
print("compose(cube, g)     ", compose(cube_jet_at_2, g))
print("g*g*g                ", g * g * g)

