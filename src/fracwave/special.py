"""Special-function kernel: Mittag-Leffler on the negative real axis, complex
log-Gamma, and the Bessel kernels of the radial integral representations.

The central object is ``ml_neg(alpha, x)`` = E_alpha(-x), the Mittag-Leffler
function evaluated on the negative axis, which carries all time dependence of
the fractional wave propagator in Fourier space.  Three regimes are used:

* ``series``        -- compensated Taylor sum, x <= 1;
* ``intermediate``  -- the exact decomposition into a pair of exponentially
                       damped oscillations (residues of the Laplace
                       inversion, present for 1 < alpha <= 2) plus a
                       completely monotone branch-cut integral, whose
                       quadrature rule is built once per (alpha, tol) and
                       cached;
* ``asymptotic``    -- inverse-power expansion plus the same exponential
                       pair, summed from a cached per-alpha coefficient table
                       only until the omitted part is below 1e-3 tol: the
                       terms still short of the envelope minimum, each at
                       most the envelope at the first omitted term, plus
                       twice the envelope past the minimum.  Engaged only
                       once that truncation floor ~exp(-x^(1/alpha)) is
                       below tolerance.

Every path works in double precision and returns an error estimate.  A
tolerance that the regimes cannot meet raises NonConvergence: below 1e-13 for
some inputs, and below ~1e-15 (4 eps) for every 0 < x <= 1 at alpha < 2.
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
# Largest exponent that is safely a finite double under exp.
_LOG_MAX = 700.0

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


def _taylor_kahan(alpha: float, x: float) -> tuple[float, float]:
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
        if log_ratio > _LOG_MAX:
            return total, math.inf  # term overflow imminent
        term = -term * math.exp(log_ratio)
        lg_prev = lg_next
        if abs(term) < 1e-18 * (1.0 + abs(total)) and alpha * k > x ** (1.0 / alpha):
            break
    est = abs(term) + 4.0 * _EPS * max_term + _EPS * abs(total)
    return total, est


def _exp_pair(alpha: float, x: float, tol: float) -> tuple[float, float]:
    """Oscillatory residue contribution (2/alpha) e^{s cos(pi/a)} cos(s sin(pi/a)),
    s = x^(1/alpha), and its rounding error.  Exact for 1 < alpha <= 2; absent
    below alpha = 1.

    In double precision the phase and damping, s sin(pi/alpha) and
    s cos(pi/alpha), carry an absolute rounding error of about
    s (4 + |ln x|/alpha) eps, which the pair's amplitude scales.  Near
    alpha = 2, where the pair is barely damped while s grows, that error can
    approach tol, which no double-precision regime could then meet; above
    0.1 tol the pair is evaluated at 30 digits instead (~0.1 ms).
    """
    if alpha <= 1.0:
        return 0.0, 0.0
    s = x ** (1.0 / alpha)
    th = math.pi / alpha
    damp = s * math.cos(th)
    if damp < -745.0:
        return 0.0, 0.0
    amp = (2.0 / alpha) * math.exp(damp)
    err = amp * _EPS * s * (4.0 + abs(math.log(x)) / alpha)
    if err <= 0.1 * tol:
        return amp * math.cos(s * math.sin(th)), err
    import mpmath as mp

    with mp.workdps(30):
        a = mp.mpf(alpha)
        s = mp.mpf(x) ** (1 / a)
        value = 2 / a * mp.exp(s * mp.cos(mp.pi / a)) * mp.cos(s * mp.sin(mp.pi / a))
        return float(value), _EPS * amp


# The 15-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk15): the one panel
# rule of the package.  A panel's value is its K15 sum and |K15 - G7| its
# error estimate.  Listed for x >= 0, outermost node first; the 7-point Gauss
# nodes are the 2nd, 4th, 6th and 8th.
_GK15_HALF_NODES = (
    0.991455371120812639206854697526, 0.949107912342758524526189684048,
    0.864864423359769072789712788641, 0.741531185599394439863864773281,
    0.586087235467691130294144838259, 0.405845151377397166906606412077,
    0.207784955007898467600689403773, 0.0,
)
_K15_HALF_WEIGHTS = (
    0.022935322010529224963732008059, 0.0630920926299785532907006631892,
    0.104790010322250183839876322542, 0.140653259715525918745189590510,
    0.169004726639267902826583426599, 0.190350578064785409913256402421,
    0.204432940075298892414161999235, 0.209482141084727828012999174892,
)
_G7_HALF_WEIGHTS = (
    0.0, 0.129484966168869693270611432679, 0.0, 0.279705391489276667901467771424,
    0.0, 0.381830050505118944950369775489, 0.0, 0.417959183673469387755102040816,
)


def _mirror(half, sign: float = 1.0) -> np.ndarray:
    """The 15 entries of a symmetric (sign 1) or odd (sign -1) table from its
    8 entries for x >= 0."""
    half = np.asarray(half)
    return np.concatenate((sign * half[:-1], half[::-1]))


_GK15_X = _mirror(_GK15_HALF_NODES, -1.0)
_GK15_W = _mirror(_K15_HALF_WEIGHTS)
_GK15_D = _GK15_W - _mirror(_G7_HALF_WEIGHTS)


def _gk15_cells(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GK15 on every cell [edges[i], edges[i+1]]: the nodes x, the K15
    weights w and the K15 - G7 weights d, each of shape (cells, 15).  Over
    row i, sum w f(x) is cell i's integral and |sum d f(x)| its error estimate."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return mid + half * _GK15_X, half * _GK15_W, half * _GK15_D


# The branch-cut rule is built for x from half the series cutoff (so that it
# also serves the overlap with the Taylor sum) up to the asymptotic cutoff;
# panels are tested at this many geometric samples of tt = x^(1/alpha).
_RULE_X_LO = 0.5 * SERIES_CUTOFF
_RULE_TT_SAMPLES = 24


@dataclass(frozen=True)
class _BranchCutRule:
    """Fixed quadrature of the branch-cut integral for one (alpha, tol).

    Row i is one accepted GK15 panel: its 15 exponents g, its K15 weights w
    and its K15 - G7 weights d, both times the kernel.  The integral is
    sum_ij w_ij exp(-tt g_ij), and |sum_j d_ij exp(-tt g_ij)| is panel i's
    error estimate.  The r-range is cut at r_end; the neglected tail is at
    most tail_scale * exp(-tt r_end).
    """

    g: np.ndarray
    w: np.ndarray
    d: np.ndarray
    r_end: float
    tail_scale: float


def _bisect_panels(kernel, expo, a: float, b: float, tts: np.ndarray, budget: float,
                   max_depth: int = 26, max_panels: int = 4000) -> list[tuple]:
    """Adaptive bisection of [a, b] into GK15 panels for
    int_a^b kernel(y) exp(-tt expo(y)) dy, valid at every tt in tts at once.

    A panel is accepted once its |K15 - G7| fits its share of the budget at
    every sampled tt.  The depth and panel caps bound the work for
    unreachable budgets; the per-x estimate then reports the shortfall.
    Returns the accepted panels as (g, w, d) rows (see _BranchCutRule).
    """
    span = b - a
    rows = []
    used = 0
    stack = [(a, b, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        y, wk, wd = _gk15_cells([lo, hi])
        kern = kernel(y[0])
        g, w, d = expo(y[0]), wk[0] * kern, wd[0] * kern
        used += 1
        delta = float(np.max(np.abs(np.exp(-np.outer(tts, g)) @ d)))
        if delta <= budget * (hi - lo) / span or depth >= max_depth or used >= max_panels:
            rows.append((g, w, d))
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return rows


@functools.lru_cache(maxsize=16)
def _branch_cut_rule(alpha: float, tol: float) -> _BranchCutRule:
    """Nodes and weights of the branch-cut integral at (alpha, tol); see
    _branch_cut_integral.  Only exp(-tt g) depends on x, so the rule is
    built once, lazily, and cached."""
    # The rule samples exp(-tt r) for tt = x^(1/alpha) up to tt_hi and r up
    # to r_end = r_scale / tt_lo (below); at small alpha their product,
    # (x_a / _RULE_X_LO)^(1/alpha) r_scale, is no double.
    r_scale = max(-math.log(tol), 0.0) + 10.0
    if math.log(asymptotic_cutoff(alpha, tol) / _RULE_X_LO) / alpha + math.log(r_scale) > _LOG_MAX:
        raise NonConvergence(f"branch-cut rule exceeds the double range at alpha={alpha}")
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
    r_end = r_scale / tt_lo

    if c_pi < -V_HI:
        add_r_piece(0.0, (-V_HI - c_pi) ** (1.0 / alpha))
    r_b_start = (V_HI - c_pi) ** (1.0 / alpha) if c_pi < V_HI else 0.0
    add_r_piece(r_b_start, r_end)

    g, w, d = (np.array(col) for col in zip(*rows))
    for arr in (g, w, d):
        arr.flags.writeable = False
    return _BranchCutRule(g, w, d, r_end, 4.0 * abs(pref) / (alpha * r_end ** alpha))


def _branch_cut_integral(alpha: float, x: float, tol: float) -> tuple[float, float]:
    """Branch-cut part of E_alpha(-x): the completely monotone Laplace integral

        sin(pi*alpha)/pi * int_0^inf e^{-r x^(1/alpha)} r^(alpha-1) / D(r) dr,
        D(r) = (r^alpha + cos(pi*alpha))^2 + sin(pi*alpha)^2.

    D has a Poisson-kernel spike at r0 = (-cos(pi*alpha))^(1/alpha) whose width
    is |sin(pi*alpha)|; the spike zone is integrated after the substitution
    v = r^alpha + cos(pi*alpha), v = |sin(pi*alpha)| tan(phi), which resolves
    it exactly; the outer zones are smooth.

    The quadrature rule depends on (alpha, tol) only (_branch_cut_rule); the
    error estimate sums the per-panel |K15 - G7| at this x, the bound on the
    truncated tail, and the roundoff.
    """
    rule = _branch_cut_rule(alpha, tol)
    if math.log(x) / alpha + math.log(rule.r_end) > _LOG_MAX:
        raise NonConvergence(f"x^(1/alpha) r_end exceeds the double range at alpha={alpha}, x={x}")
    tt = x ** (1.0 / alpha)
    decay = np.exp(-tt * rule.g)
    # Every K15 weight carries the sign of sin(pi alpha), so |value| also
    # bounds the sum of the magnitudes.
    value = float(np.vdot(decay, rule.w))
    err = float(np.abs((decay * rule.d).sum(axis=1)).sum()) \
        + rule.tail_scale * math.exp(-tt * rule.r_end) + 4.0 * _EPS * abs(value)
    return value, err


def _ml_intermediate(alpha: float, x: float, tol: float) -> tuple[float, float]:
    """Exact exponential-pair + branch-cut evaluation (any x > 0)."""
    pair, pair_err = _exp_pair(alpha, x, tol)
    bc, err = _branch_cut_integral(alpha, x, tol)
    value = pair + bc
    err += 4.0 * _EPS * (abs(pair) + abs(bc)) + pair_err
    return value, err


# Cap on the length of the inverse-power series.  Short of the envelope
# minimum, the envelope at k is below about exp(-alpha k).
_INV_POWER_MAX_TERMS = 2000
_LOG_PI = math.log(math.pi)


@dataclass(frozen=True)
class _InversePowerTable:
    """The x-independent factors of the inverse-power series of E_alpha(-x)
    for one alpha, at k = 1 .. _INV_POWER_MAX_TERMS + 1 (entry k - 1):
    coef, the signed coefficients (-1)^(k+1) / Gamma(1 - alpha k) of x^(-k),
    and log_gamma, log Gamma(alpha k), the x-independent part of the
    envelope Gamma(alpha k) x^(-k) / pi.  Tuples of floats, because the
    asymptotic regime reads a few entries at a time."""

    coef: tuple
    log_gamma: tuple


@functools.lru_cache(maxsize=16)
def _inverse_power_table(alpha: float) -> _InversePowerTable:
    """The inverse-power table of one alpha, built once, lazily, and cached."""
    ks = np.arange(1, _INV_POWER_MAX_TERMS + 2, dtype=float)
    coef = np.where(ks % 2 == 1, 1.0, -1.0) * _scipy_rgamma(1.0 - alpha * ks)
    return _InversePowerTable(tuple(coef.tolist()), tuple(gammaln(alpha * ks).tolist()))


def _envelope_minimum(alpha: float, x: float) -> int:
    """Where the inverse-power envelope is least, alpha k = x^(1/alpha), at
    most _INV_POWER_MAX_TERMS (also where x^(1/alpha) would overflow)."""
    if math.log(x) <= _LOG_MAX * alpha:
        return min(_INV_POWER_MAX_TERMS, max(1, int(x ** (1.0 / alpha) / alpha)))
    return _INV_POWER_MAX_TERMS


def _envelope(log_gamma: float, k: int, log_x: float) -> float:
    """The envelope Gamma(alpha k) x^(-k) / pi at k, given log Gamma(alpha k)."""
    return math.exp(min(log_gamma - k * log_x - _LOG_PI, _LOG_MAX))


def _inverse_power_terms(alpha: float, x: float) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Inverse-power series of E_alpha(-x), x > 1, cut at its envelope
    minimum: (ks, terms, k_end, envelope).

    Terms (-1)^(k+1) x^(-k) / Gamma(1 - alpha k).  Their magnitudes are
    modulated by sin(pi alpha k) through the reflection formula, so the
    truncation point must come from the smooth envelope
    Gamma(alpha k) x^(-k) / pi, minimized at alpha k = x^(1/alpha); stopping
    at the first raw-magnitude uptick would quit at a sin dip with an error
    far above the envelope floor.  k_end is that minimum, at most
    _INV_POWER_MAX_TERMS; twice the envelope at k_end + 1 bounds the
    truncation.  Terms whose factors over- and underflow lie below
    exp(-171): left out.  _ml_asymptotic sums the same table only as far as
    its tolerance needs.
    """
    table = _inverse_power_table(alpha)
    log_x = math.log(x)
    k_end = _envelope_minimum(alpha, x)
    ks = np.arange(1, k_end + 1, dtype=float)
    with np.errstate(under="ignore", invalid="ignore", over="ignore"):
        terms = np.array(table.coef[:k_end]) * np.exp(-ks * log_x)
    finite = np.isfinite(terms)
    return ks[finite], terms[finite], k_end, _envelope(table.log_gamma[k_end], k_end + 1, log_x)


def _ml_asymptotic(alpha: float, x: float, tol: float) -> tuple[float, float]:
    """Inverse-power expansion plus the exponential pair.

    The terms of _inverse_power_terms are summed, from the cached table, only
    until the omitted part is below 1e-3 tol.  After term K that part is at
    most (k_end - K) env(K + 1) + 2 env(k_end + 1): the envelope decreases on
    [1, k_end], so it bounds each omitted term by env(K + 1), and twice its
    value past the minimum bounds the optimal remainder.  Near the
    asymptotic cutoff the envelope ratio is close to 1, so the omitted terms
    are not a geometric tail.  If the bound stays above 1e-3 tol, the sum
    runs to k_end and the bound is 2 env(k_end + 1).
    """
    pair, pair_err = _exp_pair(alpha, x, tol)
    table = _inverse_power_table(alpha)
    coef, log_gamma = table.coef, table.log_gamma
    log_x = math.log(x)
    k_end = _envelope_minimum(alpha, x)
    floor = 2.0 * _envelope(log_gamma[k_end], k_end + 1, log_x)
    goal = 1e-3 * tol
    total = 0.0
    for k in range(1, k_end + 1):
        term = coef[k - 1] * math.exp(-k * log_x)
        if math.isfinite(term):
            total += term
        omitted = (k_end - k) * _envelope(log_gamma[k], k + 1, log_x) + floor
        if omitted <= goal:
            break
    est = omitted + 4.0 * _EPS * (abs(total) + abs(pair) + abs(coef[0]) / x) + pair_err
    return pair + total, est


def _cos_sqrt(x: float, tol: float) -> tuple[float, float]:
    """E_2(-x) = cos(sqrt(x)) and its error.

    In double precision the phase s = sqrt(x) carries an absolute rounding
    error of up to s eps / 2.  Above 0.1 tol the phase is evaluated with
    mpmath at 30 + log10(s) digits instead, 30 digits after the point.
    """
    s = math.sqrt(x)
    err = _EPS * (0.5 * s + 1.0)
    if err <= 0.1 * tol:
        return math.cos(s), err
    import mpmath as mp

    with mp.workdps(31 + max(0, int(math.log10(s)))):
        value = float(mp.cos(mp.sqrt(mp.mpf(x))))
    return value, _EPS * abs(value) + 1e-30


def ml_neg(alpha: float, x: float, tol: float = DEFAULT_TOL) -> MLResult:
    """Evaluate E_alpha(-x) for x >= 0 and 0 < alpha <= 2 to absolute error <= tol.

    E_alpha(-inf) = 0 for alpha < 2; at alpha = 2, E_2(-x) = cos(sqrt(x)) has
    no limit and x = inf raises ValueError, as do NaN and x < 0.  Raises
    InvalidOrder for alpha outside (0, 2] and NonConvergence if no regime can
    attain the requested tolerance.  Every regime works in double precision:
    a tol below 1e-13 fails for some inputs, and below ~1e-15 (4 eps) for
    every 0 < x <= 1 at alpha < 2.  Below alpha ~0.005 no intermediate x
    converges: x^(1/alpha) leaves the double range.
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
        value = math.exp(-x)
        est = 4.0 * _EPS * (1.0 + value)
    elif alpha == 2.0:
        # exact identity E_2(-x) = cos(sqrt(x)); the exponential pair's
        # damping s cos(pi/2) rounds to 6e-17 s, not 0, and overflows.
        value, est = _cos_sqrt(x, tol)
    elif regime == REGIME_SERIES:
        value, est = _taylor_kahan(alpha, x)
    else:
        if regime == REGIME_ASYMPTOTIC:
            value, est = _ml_asymptotic(alpha, x, tol)
        if regime == REGIME_INTERMEDIATE or est > tol:
            # the asymptotic truncation floor is too high: fall through
            regime = REGIME_INTERMEDIATE
            value, est = _ml_intermediate(alpha, x, tol)
    if est > tol:
        raise NonConvergence(f"no regime attains tol={tol} for alpha={alpha}, x={x}")
    return MLResult(value, regime, est)


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
