"""Oscillatory quadrature for the radial Bessel-integral representation

    G_{alpha,n}(r,t) = r^(1-n/2)/(2 pi)^(n/2)
                       * int_0^inf E_alpha(-(tau t)^alpha) tau^(n/2) J_{n/2-1}(tau r) dtau,

the only evaluation route available for n = 2.  The semi-infinite integral is
split at the zeros of the oscillatory kernel (cos for n=1, J_0 for n=2, sin
for n=3), each lobe is integrated with a fixed panel rule, and the resulting
alternating lobe series is summed in two phases:

* while the damped oscillation of E_alpha itself (decay rate t|cos(pi/alpha)|)
  is still visible, lobes are accumulated directly -- the lobe signs are not
  reliable there and nonlinear acceleration is unsafe;
* past that point the lobe series is alternating with algebraically decaying
  magnitudes (integrable only by cancellation for n >= 2), and Wynn's epsilon
  algorithm is applied to the partial sums.

The returned error estimate combines the acceleration increments, the panel
error estimates, and the truncated oscillation amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import g1
from .errors import (
    InvalidGrid,
    InvalidOrder,
    NonConvergence,
    OriginDivergence,
    UnsupportedDimension,
)
from scipy.special import j0 as _bessel_j0
from scipy.special import j1 as _bessel_j1
from scipy.special import rgamma as _rgamma

from .special import asymptotic_cutoff, ml_neg

# Classical 15-point Kronrod extension of 7-point Gauss (QUADPACK constants).
_GK15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_G7_INDEX = np.array([1, 3, 5, 7, 9, 11, 13])


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances, truncation, and acceleration policy for the lobe sums."""

    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    max_lobes: int = 10_000
    accel_order: int = 8

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("abs_tol and rel_tol must be positive")
        if self.max_lobes < 8:
            raise ValueError("max_lobes must be at least 8")
        if self.accel_order < 4:
            raise ValueError("accel_order must be at least 4")


@dataclass(frozen=True)
class QuadResult:
    value: float
    est_error: float
    lobes_used: int
    converged: bool


def _check_dimension(n: int) -> None:
    if n not in (1, 2, 3):
        raise UnsupportedDimension(f"dimension must be 1, 2, or 3, got {n}")


def _j0_zero(k: int) -> float:
    """k-th positive zero of J_0: McMahon expansion refined by Newton.

    One step suffices from k = 2 on; the first zero needs a second step
    because the expansion is weakest there.
    """
    beta = (k - 0.25) * math.pi
    z = beta + 1.0 / (8.0 * beta) - 124.0 / (3.0 * (8.0 * beta) ** 3)
    z = z + _bessel_j0(z) / _bessel_j1(z)
    if k == 1:
        z = z + _bessel_j0(z) / _bessel_j1(z)
    return z


def _lobe_edge(n: int, r: float, k: int) -> float:
    """Upper boundary of lobe k (k = 0, 1, ...) in the tau variable."""
    if n == 1:
        return (k + 0.5) * math.pi / r
    if n == 3:
        return (k + 1.0) * math.pi / r
    return _j0_zero(k + 1) / r


def _panel(f, a: float, b: float) -> tuple[float, float]:
    """Integrate f over [a, b] by Gauss-Kronrod 15; returns (value, |K15 - G7|)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fv = f(mid + half * _GK15_NODES)
    k15 = half * float(np.dot(_GK15_WEIGHTS, fv))
    g7 = half * float(np.dot(_G7_WEIGHTS, fv[_G7_INDEX]))
    return k15, abs(k15 - g7)


def _wynn_epsilon(sums: list[float]) -> list[float]:
    """Even-column tail of Wynn's epsilon table: successive accelerations of
    the partial-sum sequence, lowest order first."""
    prev = [0.0] * (len(sums) + 1)
    cur = list(sums)
    out = [cur[-1]]
    col = 0
    while len(cur) >= 2:
        nxt = []
        ok = True
        for i in range(len(cur) - 1):
            d = cur[i + 1] - cur[i]
            if d == 0.0 or not math.isfinite(d):
                ok = False
                break
            nxt.append(prev[i + 1] + 1.0 / d)
        if not ok:
            break
        prev, cur = cur, nxt
        col += 1
        if col % 2 == 0 and cur:
            out.append(cur[-1])
    return out


def _ml_osc_amplitude(alpha: float, tau_t: float) -> float:
    """Amplitude of the damped-oscillation part of E_alpha(-(tau t)^alpha)."""
    if alpha <= 1.0:
        return math.exp(-min(tau_t, 745.0))
    damp = tau_t * math.cos(math.pi / alpha)
    return (2.0 / alpha) * math.exp(max(min(damp, 50.0), -745.0))


def _make_integrand(alpha: float, n: int, r: float, t: float, ml_tol: float):
    """Vectorized integrand of the radial representation, including prefactor."""
    if n == 1:
        pref = 1.0 / math.pi
    elif n == 2:
        pref = 1.0 / (2.0 * math.pi)
    else:
        pref = 1.0 / (2.0 * math.pi ** 2 * r)

    def f(taus: np.ndarray) -> np.ndarray:
        taus = np.atleast_1d(taus)
        ml = np.empty_like(taus)
        for i, tau in enumerate(taus):
            ml[i] = ml_neg(alpha, (tau * t) ** alpha, ml_tol).value if tau > 0.0 else 1.0
        if n == 1:
            kern = np.cos(taus * r)
        elif n == 2:
            kern = taus * _bessel_j0(taus * r)
        else:
            kern = taus * np.sin(taus * r)
        return pref * ml * kern

    return f


def g_integral(alpha: float, n: int, r: float, t: float,
               cfg: QuadratureConfig | None = None) -> QuadResult:
    """Evaluate G_{alpha,n}(r,t) from the oscillatory radial integral.

    Raises OriginDivergence for r = 0 with n >= 2 and NonConvergence if the
    accelerated lobe series does not stabilize within cfg.max_lobes.
    """
    cfg = cfg or QuadratureConfig()
    _check_dimension(n)
    if n == 1:
        if not (1.0 <= alpha < 2.0):
            raise InvalidOrder(f"n=1 requires 1 <= alpha < 2, got {alpha}")
    elif not (1.0 < alpha < 2.0):
        raise InvalidOrder(f"n={n} requires 1 < alpha < 2, got {alpha}")
    if not (t > 0.0):
        raise ValueError("t must be positive")
    if not (r >= 0.0):
        raise ValueError("r must be nonnegative")
    if r == 0.0:
        if n >= 2:
            raise OriginDivergence(f"G_{{alpha,{n}}} diverges at r = 0")
        return _integral_origin_1d(alpha, t, cfg)

    ml_tol = min(1e-13, 0.01 * cfg.abs_tol)
    f = _make_integrand(alpha, n, r, t, ml_tol)

    osc_period = 2.0 * math.pi / (t * math.sin(math.pi / alpha)) if alpha > 1.0 else math.inf
    kernel_env = {1: 1.0 / math.pi, 2: 1.0 / (2.0 * math.pi),
                  3: 1.0 / (2.0 * math.pi ** 2 * r)}[n]

    decay_rate = t * abs(math.cos(math.pi / alpha)) if alpha > 1.0 else t
    ml_scale = min(osc_period / 3.0, 2.0 / decay_rate) if decay_rate > 0 else osc_period / 3.0

    def lobe_integral(a: float, b: float) -> tuple[float, float]:
        # The integrand has a tau^alpha branch point at tau = 0 (singular
        # higher derivatives), cured by a geometrically graded mesh; while the
        # Mittag-Leffler oscillation is alive, panels must also resolve its
        # period and its exponential decay scale 1/decay_rate.
        if a == 0.0:
            base = [0.0] + [b * 0.25 ** j for j in range(14, -1, -1)]
        else:
            base = [a, b]
        val = 0.0
        err = 0.0
        for lo, hi in zip(base[:-1], base[1:]):
            m = 1
            if _ml_osc_amplitude(alpha, lo * t) > 1e-18:
                m = max(1, math.ceil((hi - lo) / ml_scale))
            edges = np.linspace(lo, hi, m + 1)
            for p_lo, p_hi in zip(edges[:-1], edges[1:]):
                v, e = _panel(f, p_lo, p_hi)
                val += v
                err += e
        return val, err

    direct_sum = 0.0
    panel_err = 0.0
    lobe_sums: list[float] = []
    partials: list[float] = []
    lobes = 0
    a = 0.0
    window = 2 * cfg.accel_order + 1

    # Phase 1: direct summation through the damped-oscillation region.
    while lobes < cfg.max_lobes:
        b = _lobe_edge(n, r, lobes)
        amp = _ml_osc_amplitude(alpha, b * t)
        tau_pow = b if n >= 2 else 1.0
        osc_bound = amp * kernel_env * tau_pow * (b - a)
        if osc_bound <= 0.02 * cfg.abs_tol or lobes >= cfg.max_lobes // 2:
            break
        v, e = lobe_integral(a, b)
        direct_sum += v
        panel_err += e
        a = b
        lobes += 1
    else:
        raise NonConvergence("phase-1 lobe budget exhausted")

    # Phase 2: accelerated summation of the alternating algebraic tail.  The
    # residual Mittag-Leffler oscillation is still integrated exactly by the
    # subdivided panels; only the lobe SIGN pattern needed phase 1.
    accel_hist: list[float] = []
    while lobes < cfg.max_lobes:
        b = _lobe_edge(n, r, lobes)
        v, e = lobe_integral(a, b)
        lobe_sums.append(v)
        partials.append((partials[-1] if partials else 0.0) + v)
        panel_err += e
        a = b
        lobes += 1
        if len(partials) < max(6, window // 2):
            continue
        evens = _wynn_epsilon(partials[-window:])
        accel = evens[-1]
        accel_hist.append(accel)
        if len(accel_hist) < 3:
            continue
        value = direct_sum + accel
        accel_est = abs(accel_hist[-1] - accel_hist[-2]) + \
            0.5 * abs(accel_hist[-1] - accel_hist[-3])
        if len(evens) >= 2:
            accel_est += 0.25 * abs(evens[-1] - evens[-2])
        est = 3.0 * accel_est + panel_err + 1e-16 * abs(value)
        target = max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if est <= target:
            return QuadResult(value, est, lobes, True)

    raise NonConvergence(
        f"lobe acceleration did not stabilize within {cfg.max_lobes} lobes "
        f"(alpha={alpha}, n={n}, r={r}, t={t})"
    )


def _integral_origin_1d(alpha: float, t: float, cfg: QuadratureConfig) -> QuadResult:
    """n = 1 integral at r = 0: (1/pi) int_0^inf E_alpha(-(tau t)^alpha) dtau.

    No kernel oscillation; integrate to where the inverse-power expansion of
    E_alpha holds, then add the analytic tail (power terms plus the explicit
    integral of the damped-oscillation pair).
    """
    ml_tol = min(1e-13, 0.01 * cfg.abs_tol)
    x_a = asymptotic_cutoff(alpha, 1e-10)
    tau_cut = x_a ** (1.0 / alpha) / t
    f = _make_integrand(alpha, 1, 0.0, t, ml_tol)

    period = 2.0 * math.pi / (t * math.sin(math.pi / alpha)) if alpha > 1.0 else 1.0 / t
    decay = t * abs(math.cos(math.pi / alpha)) if alpha > 1.0 else t
    step = min(period / 3.0, 2.0 / decay) if decay > 0 else period / 3.0
    m = max(8, math.ceil(tau_cut / step))
    if m > 100 * cfg.max_lobes:
        raise NonConvergence("origin integral needs too many panels (alpha too close to 2)")
    edges = np.linspace(0.0, tau_cut, m + 1)
    # graded refinement of the first cell: tau^alpha branch point at tau = 0
    first = [edges[1] * 0.25 ** j for j in range(14, -1, -1)]
    all_edges = np.concatenate(([0.0], first, edges[2:]))
    val = 0.0
    err = 0.0
    for lo, hi in zip(all_edges[:-1], all_edges[1:]):
        v, e = _panel(f, lo, hi)
        val += v
        err += e

    # Analytic tail: inverse-power part, optimally truncated.
    tail = 0.0
    best = math.inf
    k = 1
    while k <= 60:
        g = float(_rgamma(1.0 - alpha * k))
        coeff = (1.0 if k % 2 == 1 else -1.0) * g * t ** (-alpha * k)
        if coeff == 0.0 or not math.isfinite(coeff):
            k += 1
            continue
        term = coeff * tau_cut ** (1.0 - alpha * k) / (alpha * k - 1.0)
        if not math.isfinite(term):
            break
        mag = abs(term)
        if mag > 0.0:
            if mag > best:
                break
            best = mag
            tail += term
        k += 1
    # Damped-oscillation pair integrates in closed form.
    if alpha > 1.0:
        th = math.pi / alpha
        zpole = complex(math.cos(th), math.sin(th))
        pair_tail = -(2.0 / alpha) * (np.exp(tau_cut * t * zpole) / (t * zpole)).real
    else:
        pair_tail = 0.0
    value = val + (tail + pair_tail) / math.pi
    est = err + (best if math.isfinite(best) else 0.0) / math.pi + 1e-15
    if est > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        raise NonConvergence("origin integral tail estimate above tolerance")
    return QuadResult(value, est, m, True)


def g_origin(alpha: float, n: int, t: float) -> float:
    """Value of G_{alpha,n} at the spatial origin.

    Zero for n = 1 and 1 < alpha < 2, the Cauchy-kernel center 1/(pi t) at
    alpha = 1; unbounded (OriginDivergence) for n >= 2 because the Mellin
    convergence window 0 < n < alpha is empty there.
    """
    _check_dimension(n)
    if not (1.0 <= alpha < 2.0):
        raise InvalidOrder(f"order must lie in [1, 2), got {alpha}")
    if not (t > 0.0):
        raise ValueError("t must be positive")
    if n >= 2:
        raise OriginDivergence(
            f"G_{{alpha,{n}}}(0, t) diverges: the window 0 < n < alpha is empty for n = {n}"
        )
    if alpha == 1.0:
        return 1.0 / (math.pi * t)
    return 0.0


def solve_ivp_1d(alpha: float, xs, phis, t: float, out_grid) -> np.ndarray:
    """Solve the 1D initial-value problem with initial displacement sampled as
    (xs, phis) on a uniform grid and zero initial velocity, by trapezoidal
    convolution with the closed-form Green function:

        u(x, t) = int G_{alpha,1}(x - xi, t) phi(xi) d xi.

    Returns u evaluated on out_grid.  Raises InvalidGrid for unsorted or
    non-uniform sample grids.
    """
    if not (1.0 <= alpha < 2.0):
        raise InvalidOrder(f"order must lie in [1, 2), got {alpha}")
    if not (t > 0.0):
        raise ValueError("t must be positive")
    xs = np.asarray(xs, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or xs.shape != phis.shape:
        raise InvalidGrid("phi must be sampled as two equal-length 1D arrays")
    d = np.diff(xs)
    if np.any(d <= 0.0):
        raise InvalidGrid("sample grid must be strictly increasing")
    h = d[0]
    if np.max(np.abs(d - h)) > 1e-9 * h:
        raise InvalidGrid("sample grid must be uniform")
    w = np.full_like(phis, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    out = np.asarray(out_grid, dtype=float)
    u = np.empty_like(out)
    for i, x in enumerate(out):
        u[i] = float(np.dot(w * phis, g1(alpha, np.abs(x - xs), t)))
    return u
