"""Mellin-Barnes contour evaluation of the fundamental solution.

Third, independent route:

    G_{alpha,n}(r,t) = 1/(alpha pi^(n/2) r^n) * 1/(2 pi i)
                       * int_L K(s) (t/r)^(-s) ds,

    K(s) = Gamma(s/alpha) Gamma(1 - s/alpha) Gamma(n/2 - s/2)
           / (Gamma(1 - s) 2^s Gamma(s/2)),

with L a vertical line Re s = sigma inside the pole-free strip
0 < sigma < min(alpha, n).  Along the line the kernel decays like
exp(-mu |Im s|) with mu = (pi/2)(2/alpha - 1) > 0 for alpha < 2, so a
truncated line integral with a Stirling-based tail bound suffices.  Schwarz
reflection K(conj s) = conj K(s) reduces the integral to twice the real part
over Im s >= 0.

The same contour integral with (t/r)^(-s) replaced by rho^s gives the
single-argument profile function L_{alpha,n}(rho) of the self-similar form
G = r^(-n) L_{alpha,n}(r/t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma as _loggamma

from .errors import ContourFailure, InvalidContour, InvalidOrder, PoleError
from .quadrature import QuadResult, _check_dimension
from .special import _GL16_NODES, _GL16_WEIGHTS

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ContourConfig:
    """Vertical-line abscissa and truncation policy.

    sigma = None selects min(alpha, n)/2 at evaluation time; y_max = None
    derives the truncation height from the kernel decay rate with a safety
    factor of 10.
    """

    sigma: float | None = None
    y_max: float | None = None
    step_tol: float = 1e-10

    def __post_init__(self):
        if not (self.step_tol > 0.0):
            raise ValueError("step_tol must be positive")
        if self.y_max is not None and not (self.y_max > 0.0):
            raise ValueError("y_max must be positive")


def _resolve_sigma(alpha: float, n: int, cfg: ContourConfig) -> float:
    sigma = cfg.sigma if cfg.sigma is not None else min(alpha, float(n)) / 2.0
    if not (0.0 < sigma < min(alpha, float(n))):
        raise InvalidContour(
            f"sigma must lie in (0, min(alpha, n)) = (0, {min(alpha, float(n))}), got {sigma}"
        )
    return sigma


def _check_inputs(alpha: float, n: int) -> None:
    _check_dimension(n)
    if not (1.0 < alpha < 2.0):
        raise InvalidOrder(f"Mellin-Barnes route requires 1 < alpha < 2, got {alpha}")


def _log_kernel(alpha: float, n: int, s: np.ndarray) -> np.ndarray:
    """log of the Gamma quotient, combined in the exponent to avoid overflow."""
    return (_loggamma(s / alpha) + _loggamma(1.0 - s / alpha)
            + _loggamma(0.5 * (n - s)) - _loggamma(1.0 - s)
            - s * _LN2 - _loggamma(0.5 * s))


def mb_kernel(alpha: float, n: int, s: complex) -> complex:
    """Gamma-quotient kernel of the contour representation at a single point.

    Raises PoleError on the poles of the numerator Gamma factors (where the
    kernel itself is unbounded); at poles of the denominator factors the
    kernel vanishes and 0 is returned.
    """
    _check_inputs(alpha, n)
    s = complex(s)

    def _is_nonpos_int(z: complex) -> bool:
        return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)

    # s = 0 is regular: the Gamma(s/alpha) pole cancels against Gamma(s/2).
    if s == 0.0:
        return complex(0.5 * alpha * math.gamma(0.5 * n))
    for arg in (s / alpha, 1.0 - s / alpha, 0.5 * (n - s)):
        if _is_nonpos_int(arg):
            raise PoleError(f"kernel pole: Gamma argument {arg} is a non-positive integer")
    if _is_nonpos_int(1.0 - s) or _is_nonpos_int(0.5 * s):
        return 0.0 + 0.0j
    return complex(np.exp(_log_kernel(alpha, n, np.asarray(s, dtype=complex))))


def _decay_rate(alpha: float) -> float:
    return 0.5 * math.pi * (2.0 / alpha - 1.0)


def _auto_y_max(alpha: float, n: int, sigma: float, log_rho: float, tol: float) -> float:
    """Truncation height: solve mu*y - P*log(y) = log(10 * C0 / (mu * tol))
    with P = (n-1)/2 and C0 the kernel amplitude measured at moderate height."""
    mu = _decay_rate(alpha)
    p_pow = 0.5 * (n - 1)
    y0 = 8.0
    s0 = complex(sigma, y0)
    log_c0 = float(np.real(_log_kernel(alpha, n, np.asarray(s0, dtype=complex)))) \
        + sigma * log_rho + mu * y0 - p_pow * math.log(y0)
    target = log_c0 + math.log(10.0 / max(mu, 1e-3)) - math.log(tol)
    y = max(20.0, y0)
    for _ in range(60):
        y_new = (target + p_pow * math.log(y)) / mu
        if abs(y_new - y) < 0.01 * y:
            break
        y = max(20.0, y_new)
    return min(max(y, 20.0), 2.0e5)


def _mb_core(alpha: float, n: int, rho: float, cfg: ContourConfig,
             symmetric: bool = True) -> tuple[complex, float, float]:
    """Line integral (1/(2 pi)) int K(sigma+iy) rho^(sigma+iy) dy.

    Returns (integral, est_error, y_max); symmetric=True integrates y >= 0
    and doubles the real part, symmetric=False walks the full line (used by
    the realness diagnostics).
    """
    sigma = _resolve_sigma(alpha, n, cfg)
    log_rho = math.log(rho)
    y_max = cfg.y_max if cfg.y_max is not None else _auto_y_max(
        alpha, n, sigma, log_rho, cfg.step_tol)

    mu = _decay_rate(alpha)
    tail_mag = float(np.exp(np.real(_log_kernel(
        alpha, n, np.asarray(complex(sigma, y_max), dtype=complex))))
        * rho ** sigma) / max(mu, 1e-6)
    if tail_mag > cfg.step_tol:
        raise ContourFailure(
            f"tail bound {tail_mag:.2e} at y_max={y_max:.1f} exceeds step_tol={cfg.step_tol:.2e}; "
            "raise y_max or loosen step_tol"
        )

    # Panel width resolves the rho^(iy) oscillation and the Gamma phase drift.
    h = min(2.0, math.pi / (2.0 * (1.0 + abs(log_rho))))
    m = max(8, math.ceil(y_max / h))

    def line_integral(m_panels: int) -> complex:
        if symmetric:
            edges = np.linspace(0.0, y_max, m_panels + 1)
        else:
            edges = np.linspace(-y_max, y_max, 2 * m_panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * np.diff(edges)
        ys = (mids[:, None] + halves[:, None] * _GL16_NODES[None, :]).ravel()
        ss = sigma + 1j * ys
        vals = np.exp(_log_kernel(alpha, n, ss) + ss * log_rho)
        vals = vals.reshape(len(mids), -1)
        return complex(np.sum(halves * (vals @ _GL16_WEIGHTS)))

    prev = line_integral(m)
    for _ in range(7):
        cur = line_integral(2 * m)
        delta = abs(cur - prev)
        if delta <= 0.25 * cfg.step_tol:
            est = delta + tail_mag
            integral = cur * (2.0 if symmetric else 1.0) / (2.0 * math.pi)
            if symmetric:
                integral = complex(integral.real, 0.0)
            return integral, est / (2.0 * math.pi) * (2.0 if symmetric else 1.0), y_max
        prev = cur
        m *= 2
    raise ContourFailure(
        f"panel refinement did not reach step_tol={cfg.step_tol:.2e} "
        f"(alpha={alpha}, n={n}, rho={rho})"
    )


def g_mellin_barnes(alpha: float, n: int, r: float, t: float,
                    cfg: ContourConfig | None = None) -> QuadResult:
    """Evaluate G_{alpha,n}(r, t) by numerical Mellin-Barnes contour integration."""
    cfg = cfg or ContourConfig()
    _check_inputs(alpha, n)
    if not (r > 0.0):
        raise ValueError("Mellin-Barnes route requires r > 0")
    if not (t > 0.0):
        raise ValueError("t must be positive")
    core, est, _ = _mb_core(alpha, n, r / t, cfg, symmetric=True)
    pref = 1.0 / (alpha * math.pi ** (0.5 * n) * r ** n)
    return QuadResult(pref * core.real, pref * est + 1e-16 * abs(pref * core.real),
                      0, True)


def l_aux(alpha: float, n: int, rho: float, cfg: ContourConfig | None = None) -> float:
    """Single-argument profile L_{alpha,n}(rho) with G = r^(-n) L_{alpha,n}(r/t)."""
    cfg = cfg or ContourConfig()
    _check_inputs(alpha, n)
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    core, est, _ = _mb_core(alpha, n, rho, cfg, symmetric=True)
    return core.real / (alpha * math.pi ** (0.5 * n))


def _mb_unsymmetrized(alpha: float, n: int, r: float, t: float,
                      cfg: ContourConfig | None = None) -> complex:
    """Full-line variant without Schwarz reduction; the imaginary part is a
    numerical-residue diagnostic used by the test suite."""
    cfg = cfg or ContourConfig()
    _check_inputs(alpha, n)
    core, _, _ = _mb_core(alpha, n, r / t, cfg, symmetric=False)
    return core / (alpha * math.pi ** (0.5 * n) * r ** n)
