"""Independent reference values for the benchmark's output checks.

Nothing here calls fracwave.  The 1D and 3D solutions are transcribed
directly from their elementary forms in the unscaled variable w = r/t
(fracwave evaluates them in q = (r/t)^alpha with a reflection for q > 1),
and the 2D solution is the inverse Abel transform of the 1D derivative,

    G2(r, t) = -(1/pi) int_0^inf G1'(r cosh u, t) du,

integrated with QUADPACK.  G1 is the 1D marginal of the radial G2, so this
route shares no code and no representation with either fracwave route for
n = 2 (the radial Bessel integral and the Mellin-Barnes contour).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import voigt_profile


def _trig(alpha):
    return math.sin(math.pi * alpha / 2.0), math.cos(math.pi * alpha / 2.0)


def g1(alpha, x, t):
    """G_{alpha,1}(x, t) = sin(pi a/2)/(pi t) w^(a-1) / (w^2a + 2 cos(pi a/2) w^a + 1)."""
    s, c = _trig(alpha)
    w = np.abs(np.asarray(x, dtype=float)) / t
    wa = w ** alpha
    return s / (math.pi * t) * w ** (alpha - 1.0) / (wa * wa + 2.0 * c * wa + 1.0)


def g1_dx(alpha, x, t):
    """d/dx G_{alpha,1}(x, t) for x > 0."""
    s, c = _trig(alpha)
    w = np.asarray(x, dtype=float) / t
    wa = w ** alpha
    p = wa * wa + 2.0 * c * wa + 1.0
    num = (alpha - 1.0) - 2.0 * c * wa - (alpha + 1.0) * wa * wa
    return s / (math.pi * t * t) * w ** (alpha - 2.0) * num / (p * p)


def g3(alpha, r, t):
    """G_{alpha,3}(r, t) = -(1/(2 pi r)) d/dr G_{alpha,1}(r, t), for r > 0."""
    s, c = _trig(alpha)
    w = np.asarray(r, dtype=float) / t
    wa = w ** alpha
    p = wa * wa + 2.0 * c * wa + 1.0
    m = (alpha + 1.0) * wa * wa + 2.0 * c * wa - (alpha - 1.0)
    return s / (2.0 * math.pi ** 2 * t ** 3) * w ** (alpha - 3.0) * m / (p * p)


def z_alpha(alpha):
    """Scaled radius of the 3D sign change: the positive root q of
    (a+1) q^2 + 2 cos(pi a/2) q - (a-1) = 0, raised to 1/a."""
    _, c = _trig(alpha)
    q = (alpha - 1.0) / (c + math.sqrt(c * c + (alpha + 1.0) * (alpha - 1.0)))
    return q ** (1.0 / alpha)


def g2(alpha, r, t):
    """G_{alpha,2}(r, t) by the inverse Abel transform of g1_dx (r > 0)."""
    # G1' changes sign at x = z_alpha t; split there so QUADPACK sees two
    # one-signed pieces.  Beyond x = 1e12 t the integrand is below 1e-36.
    u_max = math.acosh(max(1e12 * t / r, 2.0))
    x0 = z_alpha(alpha) * t
    points = [math.acosh(x0 / r)] if x0 > r else None
    val, _ = quad(lambda u: g1_dx(alpha, r * math.cosh(u), t), 0.0, u_max,
                  points=points, limit=400, epsabs=1e-15, epsrel=1e-13)
    return -val / math.pi


def phase_velocity_3d(alpha):
    """Location of the maximum of G_{alpha,3}(., 1): the root right of
    z_alpha of d/dw log G3 = 0, solved with Brent's method."""
    _, c = _trig(alpha)

    def h(w):
        wa = w ** alpha
        p = wa * wa + 2.0 * c * wa + 1.0
        m = (alpha + 1.0) * wa * wa + 2.0 * c * wa - (alpha - 1.0)
        dp = 2.0 * alpha * (wa * wa + c * wa)            # w p'(w)
        dm = 2.0 * alpha * ((alpha + 1.0) * wa * wa + c * wa)  # w m'(w)
        return (alpha - 3.0) * m * p + dm * p - 2.0 * dp * m

    z = z_alpha(alpha)
    return brentq(h, z * (1.0 + 1e-9), 10.0 * z, xtol=1e-15, rtol=1e-15)


def gravity_velocity(alpha):
    """Velocity of the 1D half-line gravity center, 2/(a sin(pi/a))."""
    return 2.0 / (alpha * math.sin(math.pi / alpha))


def gaussian_cauchy(x, sigma, t):
    """alpha = 1 evolution of a unit-mass Gaussian of width sigma: its
    convolution with the Cauchy kernel of width t, a Voigt profile."""
    return voigt_profile(np.asarray(x, dtype=float), sigma, t)


def trapezoid_convolution(alpha, xs, phis, t):
    """Trapezoidal Green convolution u(x_i) = sum_j w_j phi_j G1(x_i - x_j, t)
    on the sample grid itself, with the reference G1."""
    xs = np.asarray(xs, dtype=float)
    w = np.full(xs.size, xs[1] - xs[0])
    w[[0, -1]] *= 0.5
    kern = g1(alpha, xs[:, None] - xs[None, :], t)
    return kern @ (w * np.asarray(phis, dtype=float))
