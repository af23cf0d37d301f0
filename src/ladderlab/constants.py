"""Shared numerical constants. Every module pulls these from here so the
Euler constant, log(2*pi) and the Bernoulli numbers are defined exactly once."""

import math

# Euler-Mascheroni constant, float64 correctly rounded.
EULER_GAMMA = 0.57721566490153286

# log(2*pi), float64 correctly rounded.
LN_TWO_PI = 1.8378770664093455

TWO_PI = 2.0 * math.pi

# Lowest argument the asymptotic theta expansion is served for.
T_MIN = 10.0

# Ladder operations refuse arguments below this floor.
T_FLOOR = 100.0

# Quadrature and the checkpoint cache refuse bounds above this ceiling.
T_MAX = 1e5

# Bernoulli numbers B_2, B_4, ..., B_28.
B2K = (
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330, 854513.0 / 138,
    -236364091.0 / 2730, 8553103.0 / 6, -23749461029.0 / 870,
)
