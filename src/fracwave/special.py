"""Special-function kernel: Mittag-Leffler on the negative real axis, complex
log-Gamma, and the Bessel kernels of the radial integral representations.

The central object is ``ml_neg(alpha, x)`` = E_alpha(-x), the Mittag-Leffler
function evaluated on the negative axis, which carries all time dependence of
the fractional wave propagator in Fourier space.  Three regimes are used:

* ``series``        -- Taylor sum, x <= 1;
* ``intermediate``  -- compensated double-precision Taylor sum when roundoff
                       permits, otherwise the exact decomposition into a pair
                       of exponentially damped oscillations (residues of the
                       Laplace inversion, present for 1 < alpha <= 2) plus a
                       completely monotone branch-cut integral, whose
                       quadrature rule is built once per (alpha, tol) and
                       cached;
* ``asymptotic``    -- optimally truncated inverse-power expansion, augmented
                       with the same exponential pair. Engaged only once its
                       truncation floor ~exp(-x^(1/alpha)) is below tolerance.

Every path returns an error estimate; a high-precision summation fallback
(mpmath) guards pathological tolerances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln
from scipy.special import j0 as _scipy_j0
from scipy.special import loggamma as _scipy_loggamma
from scipy.special import rgamma as _scipy_rgamma

from .errors import InvalidOrder, NonConvergence, PoleError, UnsupportedOrder

DEFAULT_TOL = 1e-12

# Regime boundaries: series below SERIES_CUTOFF; asymptotic above x_a(alpha, tol).
SERIES_CUTOFF = 1.0

_EPS = np.finfo(float).eps

REGIME_SERIES = "series"
REGIME_INTERMEDIATE = "intermediate"
REGIME_ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class MLResult:
    """Mittag-Leffler value with the regime used and an error estimate."""

    value: float
    regime: str
    est_error: float


def asymptotic_cutoff(alpha: float, tol: float = DEFAULT_TOL) -> float:
    """Smallest x from which the optimally truncated inverse-power expansion
    (with the exponential pair included) can reach ``tol``.

    The truncation floor decays like exp(-x^(1/alpha)), so the cutoff grows
    like log(1/tol)^alpha; the floor of 15 keeps the window conventional for
    loose tolerances.
    """
    return max(15.0, (math.log(20.0) - math.log(tol)) ** alpha)


def _check_ml_order(alpha: float) -> None:
    if not (0.0 < alpha <= 2.0):
        raise InvalidOrder(f"Mittag-Leffler order must lie in (0, 2], got {alpha}")


def _taylor_kahan(alpha: float, x: float, tol: float) -> tuple[float, float]:
    """Compensated Taylor summation of E_alpha(-x).

    Returns (value, est_error); est_error includes the roundoff bound
    eps * max|term|, which is what invalidates this path for large x.
    """
    total = 0.0
    comp = 0.0
    max_term = 0.0
    term = 1.0  # k = 0
    k = 0
    lg_prev = 0.0  # log Gamma(1 + alpha*k) at k
    while True:
        y = term - comp
        t_new = total + y
        comp = (t_new - total) - y
        total = t_new
        max_term = max(max_term, abs(term))
        k += 1
        if k > 10000:
            return total, math.inf
        lg_next = gammaln(1.0 + alpha * k)
        log_ratio = math.log(x) + lg_prev - lg_next if x > 0 else -math.inf
        if log_ratio > 700.0:
            return total, math.inf  # term overflow imminent
        term = -term * math.exp(log_ratio)
        lg_prev = lg_next
        if abs(term) < 1e-18 * (1.0 + abs(total)) and alpha * k > x ** (1.0 / alpha):
            break
    est = abs(term) + 4.0 * _EPS * max_term + _EPS * abs(total)
    return total, est


def _exp_pair(alpha: float, x: float) -> float:
    """Oscillatory residue contribution (2/alpha) e^{s cos(pi/a)} cos(s sin(pi/a)),
    s = x^(1/alpha).  Exact for 1 < alpha <= 2; absent below alpha = 1."""
    if alpha <= 1.0:
        return 0.0
    s = x ** (1.0 / alpha)
    th = math.pi / alpha
    damp = s * math.cos(th)
    if damp < -745.0:
        return 0.0
    return (2.0 / alpha) * math.exp(damp) * math.cos(s * math.sin(th))


_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)

# The branch-cut rule is built for x from half the series cutoff (so that it
# also serves the overlap with the Taylor sum) up to the asymptotic cutoff;
# panels are tested at this many geometric samples of tt = x^(1/alpha).
_RULE_X_LO = 0.5 * SERIES_CUTOFF
_RULE_TT_SAMPLES = 24


@dataclass(frozen=True)
class _BranchCutRule:
    """Fixed quadrature of the branch-cut integral for one (alpha, tol).

    The integral is sum_ij w_ij exp(-tt g_ij).  Row i is one accepted panel:
    columns 0-31 are the 16-point Gauss-Legendre nodes of its two halves (the
    fine rule), columns 32-47 those of the whole panel with negated weights
    (the coarse rule), so a row sum is the panel's fine-minus-coarse delta.
    The r-range is cut at r_end; the neglected tail is at most
    tail_scale * exp(-tt r_end).
    """

    g: np.ndarray
    w: np.ndarray
    r_end: float
    tail_scale: float


def _bisect_panels(kernel, expo, a: float, b: float, tts: np.ndarray, budget: float,
                   max_depth: int = 26, max_panels: int = 4000) -> list[tuple]:
    """Adaptive bisection of [a, b] into 16-point Gauss-Legendre panels for
    int_a^b kernel(y) exp(-tt expo(y)) dy, valid at every tt in tts at once.

    A panel is accepted once the delta between its two-half refinement and
    itself fits its share of the budget at every sampled tt.  The depth and
    panel caps bound the work for unreachable budgets; the per-x delta then
    reports the shortfall.  Returns the accepted panels as (g, w) rows.
    """
    span = b - a

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        y = 0.5 * (lo + hi) + half * _GL16_NODES
        g = expo(y)
        w = half * _GL16_WEIGHTS * kernel(y)
        return g, w, np.exp(-np.outer(tts, g)) @ w

    rows = []
    used = 0
    stack = [(a, b, panel(a, b), 0)]
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        used += 2
        delta = float(np.max(np.abs(left[2] + right[2] - coarse[2])))
        if delta <= budget * (hi - lo) / span or depth >= max_depth or used >= max_panels:
            rows.append((np.concatenate((left[0], right[0], coarse[0])),
                         np.concatenate((left[1], right[1], -coarse[1]))))
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return rows


@functools.lru_cache(maxsize=16)
def _branch_cut_rule(alpha: float, tol: float) -> _BranchCutRule:
    """Nodes and weights of the branch-cut integral at (alpha, tol); see
    _branch_cut_integral.  Only exp(-tt g) depends on x, so the rule is
    built once, lazily, and cached."""
    c_pi = math.cos(math.pi * alpha)
    s_pi = math.sin(math.pi * alpha)
    s_abs = abs(s_pi)
    tt_lo = _RULE_X_LO ** (1.0 / alpha)
    tt_hi = asymptotic_cutoff(alpha, tol) ** (1.0 / alpha)
    tts = np.geomspace(tt_lo, tt_hi, _RULE_TT_SAMPLES)
    rows = []

    # v-window around the spike (v = r^alpha + c_pi = 0 at the spike).
    V_HI = 0.3
    v_lo = max(c_pi, -V_HI)

    if c_pi < V_HI and s_abs > 0.0:
        # Spike zone in the tan-substituted variable.  The substitution
        # resolves the Lorentzian peak at v = 0 exactly, but for s_abs << 1
        # the decades s_abs < |v| < V_HI collapse into slivers next to the
        # interval ends, so a geometric ladder of breakpoints is inserted.
        ladder = [V_HI]
        while ladder[-1] > 4.0 * s_abs and len(ladder) < 60:
            ladder.append(ladder[-1] * 0.25)
        v_points = sorted({v_lo, V_HI}
                          | {v for v in ladder if v_lo < v < V_HI}
                          | {-v for v in ladder if v_lo < -v < V_HI})
        phis = [math.atan2(v, s_abs) for v in v_points]
        spike_w = math.copysign(1.0, s_pi) / (alpha * math.pi)

        def spike_expo(phi):
            return np.maximum(s_abs * np.tan(phi) - c_pi, 0.0) ** (1.0 / alpha)

        sub_budget = tol * 0.05 / max(len(phis) - 1, 1)
        for lo, hi in zip(phis[:-1], phis[1:]):
            rows.extend(_bisect_panels(lambda phi: spike_w, spike_expo, lo, hi, tts,
                                       sub_budget))

    pref = s_pi / math.pi

    def add_r_piece(r_a, r_b):
        if alpha >= 1.0:
            def kernel(r):
                return pref * r ** (alpha - 1.0) / ((r ** alpha + c_pi) ** 2 + s_pi ** 2)
            rows.extend(_bisect_panels(kernel, lambda r: r, r_a, r_b, tts, tol * 0.05))
        else:
            # u = r^alpha removes the endpoint singularity for alpha < 1.
            def kernel(u):
                return pref / (alpha * ((u + c_pi) ** 2 + s_pi ** 2))
            rows.extend(_bisect_panels(kernel, lambda u: u ** (1.0 / alpha),
                                       r_a ** alpha, r_b ** alpha, tts, tol * 0.05))

    # Cut the range where exp(-tt r) is far below tol for every x the rule
    # serves.  r_end^alpha >= 10^alpha * 2 >= 2|c_pi|, so beyond it
    # r^alpha + c_pi >= r^alpha / 2 and the neglected tail is at most
    # 4 |pref| exp(-tt r_end) / (alpha r_end^alpha).
    r_end = (max(-math.log(tol), 0.0) + 10.0) / tt_lo

    if c_pi < -V_HI:
        add_r_piece(0.0, (-V_HI - c_pi) ** (1.0 / alpha))
    r_b_start = (V_HI - c_pi) ** (1.0 / alpha) if c_pi < V_HI else 0.0
    add_r_piece(r_b_start, r_end)

    g = np.array([row[0] for row in rows])
    w = np.array([row[1] for row in rows])
    g.flags.writeable = False
    w.flags.writeable = False
    return _BranchCutRule(g, w, r_end, 4.0 * abs(pref) / (alpha * r_end ** alpha))


def _branch_cut_integral(alpha: float, x: float, tol: float) -> tuple[float, float]:
    """Branch-cut part of E_alpha(-x): the completely monotone Laplace integral

        sin(pi*alpha)/pi * int_0^inf e^{-r x^(1/alpha)} r^(alpha-1) / D(r) dr,
        D(r) = (r^alpha + cos(pi*alpha))^2 + sin(pi*alpha)^2.

    D has a Poisson-kernel spike at r0 = (-cos(pi*alpha))^(1/alpha) whose width
    is |sin(pi*alpha)|; the spike zone is integrated after the substitution
    v = r^alpha + cos(pi*alpha), v = |sin(pi*alpha)| tan(phi), which resolves
    it exactly; the outer zones are smooth.

    The quadrature rule depends on (alpha, tol) only (_branch_cut_rule); the
    error estimate sums the per-panel fine-minus-coarse deltas at this x, the
    bound on the truncated tail, and the roundoff.
    """
    rule = _branch_cut_rule(alpha, tol)
    tt = x ** (1.0 / alpha)
    terms = np.exp(-tt * rule.g) * rule.w
    # Every fine weight carries the sign of sin(pi alpha), so |value| also
    # bounds the sum of the magnitudes.
    value = float(terms[:, :32].sum())
    err = float(np.abs(terms.sum(axis=1)).sum()) \
        + rule.tail_scale * math.exp(-tt * rule.r_end) + 4.0 * _EPS * abs(value)
    return value, err


def _ml_intermediate(alpha: float, x: float, tol: float) -> tuple[float, float]:
    """Exact exponential-pair + branch-cut evaluation (any x > 0).

    The pair's phase and damping, s sin(pi/alpha) and s cos(pi/alpha) with
    s = x^(1/alpha), carry an absolute rounding error of about
    s (4 + |ln x|/alpha) eps, which the pair's amplitude scales into the
    estimate; near alpha = 2, where the pair is barely damped, it dominates.
    """
    pair = _exp_pair(alpha, x)
    bc, err = _branch_cut_integral(alpha, x, tol)
    value = pair + bc
    err += 4.0 * _EPS * (abs(pair) + abs(bc))
    if alpha > 1.0:
        s = x ** (1.0 / alpha)
        amp = (2.0 / alpha) * math.exp(max(s * math.cos(math.pi / alpha), -745.0))
        err += amp * _EPS * s * (4.0 + abs(math.log(x)) / alpha)
    return value, err


def _ml_asymptotic(alpha: float, x: float, tol: float) -> tuple[float, float]:
    """Optimally truncated inverse-power expansion plus the exponential pair.

    Terms (-1)^(k+1) x^(-k) / Gamma(1 - alpha k).  Their magnitudes are
    modulated by sin(pi alpha k) through the reflection formula, so the
    truncation point must come from the smooth envelope
    Gamma(alpha k) x^(-k) / pi, minimized at alpha k = x^(1/alpha); stopping
    at the first raw-magnitude uptick would quit at a sin dip with an error
    far above the envelope floor.
    """
    pair = _exp_pair(alpha, x)
    s = x ** (1.0 / alpha)
    k_opt = max(1, int(s / alpha))
    log_x = math.log(x)
    ks = np.arange(1, k_opt + 1, dtype=float)
    with np.errstate(under="ignore", invalid="ignore", over="ignore"):
        terms = np.where(ks % 2 == 1, 1.0, -1.0) \
            * np.exp(-ks * log_x) * _scipy_rgamma(1.0 - alpha * ks)
    total = float(np.sum(terms[np.isfinite(terms)]))
    log_env = gammaln(alpha * (k_opt + 1)) - (k_opt + 1) * log_x - math.log(math.pi)
    est = 2.0 * math.exp(min(log_env, 700.0))
    first_term_scale = abs(float(_scipy_rgamma(1.0 - alpha))) / x
    est += 4.0 * _EPS * (abs(total) + abs(pair) + first_term_scale)
    return pair + total, est


def _log10_max_term(alpha: float, x: float) -> float:
    """Stirling estimate of log10 of the largest Taylor term of E_alpha(-x),
    x^k / Gamma(1 + alpha k) at alpha k = x^(1/alpha): the digits that
    cancellation costs a Taylor sum."""
    k_star = max(1.0, x ** (1.0 / alpha) / alpha)
    return (k_star * math.log(max(x, 1.0)) - gammaln(1.0 + alpha * k_star)) / math.log(10.0)


def _ml_mpmath(alpha: float, x: float, tol: float) -> tuple[float, float]:
    """Arbitrary-precision Taylor summation fallback."""
    import mpmath as mp

    log10_max = _log10_max_term(alpha, x)
    lost = max(0.0, log10_max)
    dps = int(min(300, 25 + lost - math.log10(tol)))
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        z = -mp.mpf(x)
        total = mp.mpf(0)
        k = 0
        while k < 200000:
            term = z ** k / mp.gamma(1 + a * k)
            total += term
            if k > 4 and abs(term) < mp.mpf(10) ** (-dps + 5) * (1 + abs(total)):
                value = float(total)
                est = abs(float(term)) + 10.0 ** (-dps + 6) * (1.0 + 10.0 ** log10_max)
                return value, est
            k += 1
    raise NonConvergence(
        f"high-precision series for E_alpha(-x) did not converge (alpha={alpha}, x={x})"
    )


def ml_neg(alpha: float, x: float, tol: float = DEFAULT_TOL) -> MLResult:
    """Evaluate E_alpha(-x) for x >= 0 and 0 < alpha <= 2 to absolute error <= tol.

    E_alpha(-inf) = 0 for alpha < 2; at alpha = 2, E_2(-x) = cos(sqrt(x)) has
    no limit and x = inf raises ValueError, as do NaN and x < 0.  Raises
    InvalidOrder for alpha outside (0, 2] and NonConvergence if no regime can
    attain the requested tolerance.
    """
    _check_ml_order(alpha)
    if not (x >= 0.0):
        raise ValueError(f"ml_neg requires x >= 0, got {x}")
    if not (tol > 0.0):
        raise ValueError(f"ml_neg requires tol > 0, got {tol}")

    if x == 0.0:
        return MLResult(1.0, REGIME_SERIES, 0.0)
    if math.isinf(x):
        if alpha == 2.0:
            raise ValueError("ml_neg(2, inf) has no limit: E_2(-x) = cos(sqrt(x)) oscillates")
        return MLResult(0.0, REGIME_ASYMPTOTIC, 0.0)

    if x <= SERIES_CUTOFF:
        regime = REGIME_SERIES
    elif x >= asymptotic_cutoff(alpha, tol):
        regime = REGIME_ASYMPTOTIC
    else:
        regime = REGIME_INTERMEDIATE

    if alpha == 1.0:
        # exact identity E_1(-x) = exp(-x); the power asymptotics and the
        # branch-cut decomposition both degenerate at alpha = 1.
        v = math.exp(-x)
        return MLResult(v, regime, 4.0 * _EPS * (1.0 + v))

    if regime == REGIME_SERIES:
        value, est = _taylor_kahan(alpha, x, tol)
        if est <= tol:
            return MLResult(value, regime, est)
        value, est = _ml_mpmath(alpha, x, tol)
        if est <= tol:
            return MLResult(value, regime, est)
        raise NonConvergence(f"series regime cannot reach tol={tol} at alpha={alpha}, x={x}")

    if regime == REGIME_ASYMPTOTIC:
        value, est = _ml_asymptotic(alpha, x, tol)
        if est <= tol:
            return MLResult(value, regime, est)
        regime = REGIME_INTERMEDIATE  # truncation floor too high; fall through

    # Intermediate: fast compensated summation when roundoff allows it.  Its
    # floor 4 eps max|term| is known in advance; skip the sum when hopeless.
    if _log10_max_term(alpha, x) <= math.log10(0.25 * tol / (4.0 * _EPS)):
        value, est = _taylor_kahan(alpha, x, tol)
        if est <= 0.25 * tol:
            return MLResult(value, REGIME_INTERMEDIATE, est)
    value, est = _ml_intermediate(alpha, x, tol)
    if est <= tol:
        return MLResult(value, REGIME_INTERMEDIATE, est)
    value, est = _ml_mpmath(alpha, x, tol)
    if est <= tol:
        return MLResult(value, REGIME_INTERMEDIATE, est)
    raise NonConvergence(f"no regime attains tol={tol} for alpha={alpha}, x={x}")


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log Gamma(z); relative error <= 1e-13 for |z| <= 100.

    Raises PoleError at the non-positive integers.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError(f"log Gamma pole at z = {z.real:.0f}")
    return complex(_scipy_loggamma(z))


def bessel_kernel(nu: float, z: float) -> float:
    """Bessel kernel J_nu(z) for the three radial representations.

    Half-integer orders use the closed trigonometric forms
    J_{-1/2}(z) = sqrt(2/(pi z)) cos(z), J_{1/2}(z) = sqrt(2/(pi z)) sin(z);
    nu = 0 delegates to a standard series/asymptotic evaluation.
    """
    if not (z >= 0.0):
        raise ValueError(f"bessel_kernel requires z >= 0, got {z}")
    if nu == 0.0:
        return float(_scipy_j0(z))
    if nu == 0.5:
        if z == 0.0:
            return 0.0  # O(z^(1/2)) limit
        return math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
    if nu == -0.5:
        if z == 0.0:
            return math.inf  # O(z^(-1/2)) divergence
        return math.sqrt(2.0 / (math.pi * z)) * math.cos(z)
    raise UnsupportedOrder(f"bessel_kernel supports nu in {{-1/2, 0, 1/2}}, got {nu}")
