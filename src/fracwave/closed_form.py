"""Elementary-function evaluation of the 1D and 3D fundamental solutions.

With q = (r/t)^alpha, c = cos(pi alpha/2), s = sin(pi alpha/2),
D(q) = (q + c)^2 + s^2 and M(q) = (alpha+1) q^2 + 2 c q - (alpha-1):

    G_{alpha,1}     = s/pi t^-1 (r/t)^(alpha-1) / D,
    dG_{alpha,1}/dr = -s/pi t^-2 (r/t)^(alpha-2) M / D^2,
    dG_{alpha,1}/dt = s alpha/pi t^-2 (r/t)^(alpha-1) (q^2 - 1) / D^2,
    G_{alpha,3}     = s/(2 pi^2) t^-3 (r/t)^(alpha-3) M / D^2.

The four share one core.  q is reflected once to u = min(q, 1/q) (D(q) =
q^2 D(1/q), likewise M), and D and M are written in y = u + c, taken from u
or from u - 1, whichever has the digits:

    D = y^2 + s^2,   sigma M = (alpha+sigma) y^2 - 2 alpha c y - (alpha-sigma) s^2,

sigma = +1 for q <= 1, -1 for q > 1: sums that cancel only at the zero of M.
With c, s and 1 + c from order_trig and u - 1 from the exact r - t near
r = t, each form is within 1e-13 relative of a many-digit evaluation for
1 <= alpha < 2, and 1e-15 at r = t; at relative distance d from the zero of
M, add the eps/d that a one-ulp change of r causes there.  The power
r^e t^-(e+k) is taken in logs and scaled in by ldexp, so no intermediate
overflows or underflows where the result does not, and the r = 0 limits of
g1 and g1_dt come out of it.  One exit rule: a result beyond the double
range raises NonConvergence, one below it is +-0.0.  All functions broadcast
over numpy arrays in r and t, which must be finite.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OriginDivergence, check_finite, check_positive, check_scalar, check_window
from .special import ml_neg

_LN2 = math.log(2.0)


def order_trig(alpha: float) -> tuple[float, float, float]:
    """(c, s, 1 + c) with c = cos(pi alpha/2), s = sin(pi alpha/2).

    alpha - 1 and 2 - alpha are exact, so c keeps its digits at alpha = 1 and
    s and 1 + c = 2 sin^2(pi (2 - alpha)/4) keep theirs at alpha = 2.
    """
    return (-math.sin(math.pi * (alpha - 1.0) / 2.0), math.sin(math.pi * (2.0 - alpha) / 2.0),
            2.0 * math.sin(math.pi * (2.0 - alpha) / 4.0) ** 2)


def _closed_form(what: str, alpha: float, r, t, j: int, k: int, rational):
    """s * rational(sigma, u - 1, D, M) * r^e t^-(e+k), e = sigma alpha - j."""
    c, s, one_c = order_trig(alpha)
    r = np.asarray(r, dtype=float)[()]
    t = np.asarray(t, dtype=float)[()]
    with np.errstate(all="ignore"):  # every result passes check_finite
        # log u; a ratio beyond the double range only sends u to 0
        x = -alpha * np.log1p(abs(r - t) / np.minimum(r, t))
        sigma = np.copysign(1.0, t - r)
        v = np.expm1(x)
        # y = u + c is small only near u = -c: where -c > 1/2, take it from u - 1
        y = v + one_c if c < -0.5 else (np.minimum(r, t) / np.maximum(r, t)) ** alpha + c
        y2 = y * y
        m = sigma * ((alpha + sigma) * y2 - 2.0 * alpha * c * y - (alpha - sigma) * (s * s))
        part = rational(sigma, v, y2 + s * s, m)
        # r^e t^-(e+k) = 2^n exp(f); below -1e4 (r = 0, e > 0: -inf) every
        # value is 0.  At e = 0, r^0 = 1 also at r = 0: log(r + 1) keeps
        # e log(.) at 0 there, and adding False leaves every other r exact.
        e = sigma * alpha - j
        log_p = np.maximum(e * np.log(r + (e == 0.0)) - (e + k) * np.log(t), -1e4)
        n = np.rint(log_p / _LN2)
        val = s * np.ldexp(part * np.exp(log_p - n * _LN2), n.astype(int))
    check_finite(what, val)
    return float(val) if np.ndim(val) == 0 else val


def _poisson_kernel(n: int, r, t) -> float | np.ndarray:
    """The Poisson kernel P_n(r, t) = c_n t / (t^2 + r^2)^((n+1)/2),
    c_n = Gamma((n+1)/2) / pi^((n+1)/2), which is G_{1,n}(r, t) for every n:
    E_1(-x) = e^(-x), and e^(-t |kappa|) transforms to P_n (Stein & Weiss,
    "Introduction to Fourier Analysis on Euclidean Spaces", 1971, ch. II).
    At r = 0 it is c_n t^-n.

    r and t (r >= 0, t > 0, arrays that broadcast or scalars) are scaled by
    2^-e, 2^e the binade of max(r, t), exactly unless the smaller one falls
    below the normal range, where the value does too; the power 2^(-n e) is
    applied by ldexp.  So nothing leaves the double range where the value
    does not, and the value is within 4 eps relative.  closed_form's exit
    rule holds: a value beyond the double range raises NonConvergence, one
    below it is 0.
    """
    r = np.asarray(r, dtype=float)[()]
    t = np.asarray(t, dtype=float)[()]
    e = np.frexp(np.maximum(r, t))[1]
    r, t = np.ldexp(r, -e), np.ldexp(t, -e)
    power = 0.5 * (n + 1)
    with np.errstate(over="ignore"):  # checked below
        val = np.ldexp(math.gamma(power) / math.pi ** power * t / np.hypot(r, t) ** (n + 1),
                       -n * e)
    check_finite("the Poisson kernel", val)
    return float(val) if np.ndim(val) == 0 else val


def g1(alpha: float, r, t) -> float | np.ndarray:
    """1D fundamental solution G_{alpha,1}(r, t); a probability density in r.

    Finite and nonnegative for all r >= 0, t > 0; reduces to the Cauchy kernel
    t/(pi (t^2 + r^2)) at alpha = 1.
    """
    check_window(alpha, 1.0, 2.0)
    check_positive("t", t)
    check_positive("r", r, zero_ok=True)
    return _closed_form("G_{alpha,1}", alpha, r, t, 1, 1,
                        lambda sigma, v, d, m: 1.0 / (math.pi * d))


def g1_dr(alpha: float, r, t) -> float | np.ndarray:
    """Exact radial derivative of G_{alpha,1}; vanishes only at r = z_alpha t."""
    check_window(alpha, 1.0, 2.0)
    check_positive("t", t)
    check_positive("r", r)
    return _closed_form("dG_{alpha,1}/dr", alpha, r, t, 2, 2,
                        lambda sigma, v, d, m: -m / (math.pi * d * d))


def g1_dt(alpha: float, r, t) -> float | np.ndarray:
    """Exact time derivative of G_{alpha,1}."""
    check_window(alpha, 1.0, 2.0)
    check_positive("t", t)
    check_positive("r", r, zero_ok=True)
    # q^2 - 1 reflects to sigma (u^2 - 1) = sigma (u - 1)(u - 1 + 2)
    return _closed_form("dG_{alpha,1}/dt", alpha, r, t, 1, 2,
                        lambda sigma, v, d, m: alpha * sigma * v * (v + 2.0) / (math.pi * d * d))


def g3(alpha: float, r, t) -> float | np.ndarray:
    """3D fundamental solution G_{alpha,3}(r, t).

    Negative for r < z_alpha t, zero at r = z_alpha t, positive beyond;
    unbounded at the origin (OriginDivergence) for 1 < alpha < 2.  At
    alpha = 1 it is the Poisson kernel P_3(r, t) = t / (pi^2 (t^2 + r^2)^2)
    (_poisson_kernel), positive and finite also at r = 0.
    """
    check_window(alpha, 1.0, 2.0)
    check_positive("t", t)
    check_positive("r", r, zero_ok=True)
    if alpha == 1.0:
        return _poisson_kernel(3, r, t)
    if (r == 0.0 if isinstance(r, float) else np.any(np.asarray(r) == 0.0)):
        raise OriginDivergence("G_{alpha,3} is unbounded at r = 0")
    return _closed_form("G_{alpha,3}", alpha, r, t, 3, 3,
                        lambda sigma, v, d, m: m / (2.0 * math.pi ** 2 * d * d))


def g3_via_g1_spatial(alpha: float, r, t) -> float | np.ndarray:
    """3D solution from the radial-derivative route: -(1/(2 pi r)) dG1/dr."""
    check_positive("r", r)
    value = -1.0 / (2.0 * math.pi * np.asarray(r, dtype=float)) * g1_dr(alpha, r, t)
    check_finite("G_{alpha,3}", value)
    return value


def g3_via_g1_temporal(alpha: float, r, t) -> float | np.ndarray:
    """3D solution from the time-derivative route:
    (1/(2 pi r^2)) (G1 + t dG1/dt)."""
    check_positive("r", r)
    r_arr = np.asarray(r, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        value = (g1(alpha, r, t) + t_arr * g1_dt(alpha, r, t)) / (2.0 * math.pi * r_arr ** 2)
    check_finite("G_{alpha,3}", value)
    return value


def _power(x: float, y: float) -> float:
    """x ** y, inf where it overflows the double range, rather than Python's
    OverflowError."""
    with np.errstate(over="ignore"):
        return float(np.float64(x) ** y)


def g_hat(alpha: float, kappa_abs: float, t: float) -> float:
    """Fourier-space solution E_alpha(-|kappa|^alpha t^alpha), to ml_neg's target 1e-13; 1 at
    t = 0 and 0, the limit, where (|kappa| t)^alpha leaves the double range."""
    check_window(alpha, 1.0, 2.0)
    check_scalar(kappa_abs=kappa_abs, t=t)
    check_positive("|kappa|", kappa_abs, zero_ok=True)
    check_positive("t", t, zero_ok=True)
    if t == 0.0 or kappa_abs == 0.0:
        return 1.0
    return ml_neg(alpha, _power(kappa_abs * t, alpha)).value
