"""Test-only oracle for the 2D solution, written without fracwave.

The radial 2D solution and the 1D solution are an Abel-transform pair (G1 is
the line integral of G2 across the plane), so

    G2(r, t) = -(1/pi) int_0^inf dG1/dx (r cosh u, t) du,

with the elementary 1D form

    G1(x, t) = sin(pi a/2)/(pi t) * w^(a-1) / (w^(2a) + 2 cos(pi a/2) w^a + 1),
    w = |x|/t.

It shares no code and no representation with either fracwave route for
n = 2 (the radial Bessel integral and the Mellin-Barnes contour).

At alpha = 1 the pair closes in elementary form: G1 is the Cauchy kernel and
G_n the Poisson kernel P_n for every n (poisson_mp).
"""

import math

from scipy.integrate import quad


def g1_dx(alpha, x, t):
    """d/dx G_{alpha,1}(x, t) for x > 0."""
    s, c = math.sin(0.5 * math.pi * alpha), math.cos(0.5 * math.pi * alpha)
    w = x / t
    q = w ** alpha
    p = q * q + 2.0 * c * q + 1.0
    return (s / (math.pi * t * t) * w ** (alpha - 2.0)
            * ((alpha - 1.0) - 2.0 * c * q - (alpha + 1.0) * q * q) / (p * p))


def g2_abel(alpha, r, t):
    """(G_{alpha,2}(r, t), its tolerance) by QUADPACK on the inverse Abel
    transform.  dG1/dx changes sign once, at w^a = q0, the positive root of
    (a+1) q^2 + 2 cos(pi a/2) q - (a-1); the u range is split there and cut
    at x = 1e8 t, past which dG1/dx ~ x^(-a-2) leaves a negligible tail.
    The tolerance is QUADPACK's error estimate, that tail, and 1e-12
    relative for the rounding of the integrand."""
    c = math.cos(0.5 * math.pi * alpha)
    q0 = (-c + math.sqrt(c * c + (alpha + 1.0) * (alpha - 1.0))) / (alpha + 1.0)
    x0 = q0 ** (1.0 / alpha) * t
    u0 = math.acosh(x0 / r) if x0 > r else 0.0
    u_max = math.acosh(max(1e8 * t / r, 2.0 * x0 / r, 2.0))
    total = 0.0
    err = abs(g1_dx(alpha, r * math.cosh(u_max), t))  # the tail past u_max
    for lo, hi in ((0.0, u0), (u0, u_max)):
        if hi > lo:
            val, est = quad(lambda u: g1_dx(alpha, r * math.cosh(u), t), lo, hi,
                            epsabs=1e-16, epsrel=1e-13, limit=400)
            total += val
            err += est
    value = -total / math.pi
    return value, err / math.pi + 1e-12 * abs(value)


def g2_abel_mp(alpha, rho, dps=40):
    """G_{alpha,2}(rho, 1) to about dps digits by mpmath on the same inverse
    Abel transform, in the exact binary values of alpha and rho.

    Near alpha = 2, dG1/dx is the derivative of a Lorentzian of width
    ~sin(pi alpha/2)/alpha at w^alpha = -cos(pi alpha/2); the u range is split
    at w = w0 +- 2^j sin(pi alpha/2), so that tanh-sinh quadrature sees no
    feature narrower than its interval.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a, r = mp.mpf(alpha), mp.mpf(rho)
        s, c = mp.sinpi(a / 2), mp.cospi(a / 2)

        def g1_dx_mp(x):
            q = x ** a
            p = q * q + 2 * c * q + 1
            return s / mp.pi * x ** (a - 2) * ((a - 1) - 2 * c * q - (a + 1) * q * q) / (p * p)

        w0 = (-c) ** (1 / a) if c < 0 else mp.mpf(0)
        ws = sorted({w0 + sign * s * mp.mpf(2) ** j for j in range(-3, 60) for sign in (-1, 1)}
                    | {w0})
        us = [mp.mpf(0)] + [mp.acosh(w / r) for w in ws if r < w < 1e8] + [mp.inf]
        return float(-mp.quad(lambda u: g1_dx_mp(r * mp.cosh(u)), us) / mp.pi)


def poisson_mp(n, r, t, dps=40):
    """G_{1,n}(r, t) = P_n(r, t) = c_n t / (t^2 + r^2)^((n+1)/2),
    c_n = Gamma((n+1)/2) / pi^((n+1)/2), to about dps digits in the exact
    binary values of r and t."""
    import mpmath as mp

    with mp.workdps(dps):
        h = mp.mpf(n + 1) / 2
        r, t = mp.mpf(r), mp.mpf(t)
        return float(mp.gamma(h) / mp.pi ** h * t / (t * t + r * r) ** h)
