"""Elementary-function evaluation of the 1D and 3D fundamental solutions.

Everything here reduces to the scaled variable q = (r/t)^alpha with
c = cos(pi*alpha/2), s = sin(pi*alpha/2):

    G_{alpha,1}(r,t) = s/(pi*t) * q^(1-1/alpha) / D(q),
    G_{alpha,3}(r,t) = s/(2 pi^2) * r^(alpha-3) t^(-alpha) * M(q) / D(q)^2,

    D(q) = (q + c)^2 + s^2,   M(q) = (alpha+1) q^2 + 2 c q - (alpha-1).

The denominator is evaluated as a sum of squares (no cancellation), and for
q > 1 the reflection D(q) = q^2 D(1/q) keeps every factor O(1), so the
formulas are stable from r/t ~ 1e-300 out to overflow.  M vanishes exactly at
q = z_alpha^alpha, reproducing the sign change of the 3D solution and the
maximum of the 1D solution.

All functions broadcast over numpy arrays in r and t, which must be finite.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OriginDivergence, check_finite, check_positive, check_window
from .special import DEFAULT_TOL, ml_neg


def _scaled_pieces(alpha: float, r, t):
    """Return (q, u, D(u)) with u = min(q, 1/q) and D evaluated at u."""
    c = math.cos(math.pi * alpha / 2.0)
    s = math.sin(math.pi * alpha / 2.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = (np.asarray(r, dtype=float) / np.asarray(t, dtype=float)) ** alpha
        inv = np.where(q > 0.0, 1.0 / q, np.inf)
        u = np.minimum(q, inv)
    d_u = (u + c) ** 2 + s * s
    return q, u, d_u, c, s


def g1(alpha: float, r, t) -> float | np.ndarray:
    """1D fundamental solution G_{alpha,1}(r, t); a probability density in r.

    Finite and nonnegative for all r >= 0, t > 0; reduces to the Cauchy kernel
    t/(pi (t^2 + r^2)) at alpha = 1.
    """
    check_window(alpha, 1.0, 2.0)
    check_positive("t", t)
    check_positive("r", r, zero_ok=True)
    q, u, d_u, c, s = _scaled_pieces(alpha, r, t)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # q <= 1: q^(1-1/alpha)/D(q); q > 1: q^(-1-1/alpha)/D(1/q) = u^(1+1/alpha)/D(u)
        expo = np.where(q <= 1.0, 1.0 - 1.0 / alpha, 1.0 + 1.0 / alpha)
        val = s / (math.pi * np.asarray(t, dtype=float)) * u ** expo / d_u
        val = np.where(np.asarray(r) == 0.0, 0.0 if alpha > 1.0 else val, val)
    out = np.where(np.isfinite(val), val, 0.0)
    return float(out) if np.ndim(out) == 0 else out


def g1_dr(alpha: float, r, t) -> float | np.ndarray:
    """Exact radial derivative of G_{alpha,1}; vanishes only at r = z_alpha t."""
    check_window(alpha, 1.0, 2.0)
    check_positive("t", t)
    check_positive("r", r)
    q, u, d_u, c, s = _scaled_pieces(alpha, r, t)
    w = np.asarray(r, dtype=float) / np.asarray(t, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # N(q) = (alpha-1) - 2 c q - (alpha+1) q^2; for q > 1 use
        # N(q)/D(q)^2 = u^2 * ((alpha-1) u^2 - 2 c u - (alpha+1)) / D(u)^2.
        n_small = (alpha - 1.0) - 2.0 * c * u - (alpha + 1.0) * u ** 2
        n_large = ((alpha - 1.0) * u ** 2 - 2.0 * c * u - (alpha + 1.0)) * u ** 2
        num = np.where(q <= 1.0, n_small, n_large)
        val = (s / math.pi) * np.asarray(t, dtype=float) ** (-2.0) \
            * w ** (alpha - 2.0) * num / d_u ** 2
    check_finite("dG_{alpha,1}/dr", val)
    return float(val) if np.ndim(val) == 0 else val


def g1_dt(alpha: float, r, t) -> float | np.ndarray:
    """Exact time derivative of G_{alpha,1}."""
    check_window(alpha, 1.0, 2.0)
    check_positive("t", t)
    check_positive("r", r, zero_ok=True)
    q, u, d_u, c, s = _scaled_pieces(alpha, r, t)
    w = np.asarray(r, dtype=float) / np.asarray(t, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # (q^2 - 1)/D(q)^2; for q > 1 equals u^2 (1 - u^2)/D(u)^2.
        f_small = (u ** 2 - 1.0)
        f_large = (1.0 - u ** 2) * u ** 2
        frac = np.where(q <= 1.0, f_small, f_large)
        val = (s * alpha / math.pi) * np.asarray(t, dtype=float) ** (-2.0) \
            * w ** (alpha - 1.0) * frac / d_u ** 2
        val = np.where(np.asarray(r) == 0.0, 0.0 if alpha > 1.0 else val, val)
    out = np.where(np.isfinite(val), val, 0.0)
    return float(out) if np.ndim(out) == 0 else out


def g3(alpha: float, r, t) -> float | np.ndarray:
    """3D fundamental solution G_{alpha,3}(r, t) for r > 0.

    Negative for r < z_alpha t, zero at r = z_alpha t, positive beyond;
    unbounded at the origin.  alpha = 1 is accepted (the formula remains
    finite) but lies outside the range established for the 3D solution.
    """
    check_window(alpha, 1.0, 2.0)
    check_positive("t", t)
    check_positive("r", r, zero_ok=True)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr == 0.0):
        raise OriginDivergence("G_{alpha,3} is unbounded at r = 0")
    q, u, d_u, c, s = _scaled_pieces(alpha, r, t)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # M(q) = (alpha+1) q^2 + 2 c q - (alpha-1); for q > 1 use
        # M(q)/D(q)^2 = u^2 * ((alpha+1) + 2 c u - (alpha-1) u^2) / D(u)^2.
        m_small = (alpha + 1.0) * u ** 2 + 2.0 * c * u - (alpha - 1.0)
        m_large = ((alpha + 1.0) + 2.0 * c * u - (alpha - 1.0) * u ** 2) * u ** 2
        num = np.where(q <= 1.0, m_small, m_large)
        val = s / (2.0 * math.pi ** 2) * r_arr ** (alpha - 3.0) \
            * np.asarray(t, dtype=float) ** (-alpha) * num / d_u ** 2
    check_finite("G_{alpha,3}", val)
    return float(val) if np.ndim(val) == 0 else val


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


def g_hat(alpha: float, kappa_abs: float, t: float, tol: float = DEFAULT_TOL) -> float:
    """Fourier-space solution E_alpha(-|kappa|^alpha t^alpha); equals 1 at t = 0."""
    check_window(alpha, 1.0, 2.0)
    check_positive("|kappa|", kappa_abs, zero_ok=True)
    check_positive("t", t, zero_ok=True)
    check_positive("tol", tol)
    if t == 0.0 or kappa_abs == 0.0:
        return 1.0
    return ml_neg(alpha, (kappa_abs * t) ** alpha, tol).value
