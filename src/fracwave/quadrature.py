"""Oscillatory quadrature for the radial Bessel-integral representation

    G_{alpha,n}(r,t) = r^(1-n/2)/(2 pi)^(n/2)
                       * int_0^inf E_alpha(-(tau t)^alpha) tau^(n/2) J_{n/2-1}(tau r) dtau,

with the contour, one of two routes for n = 2.  The semi-infinite integral is
split at the zeros of the oscillatory kernel (cos for n=1, J_0 for n=2, sin
for n=3), each lobe is integrated by the GK15 rule on a mesh of cells that
resolves the branch point at tau = 0 and the Mittag-Leffler oscillation, and
the resulting alternating lobe series is summed in two phases:

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
from .errors import (InvalidGrid, NonConvergence, OriginDivergence, check_dimension,
                     check_finite, check_positive, check_window)
from scipy.special import j0 as _bessel_j0
from scipy.special import j1 as _bessel_j1

from .special import _gk15_cells, _inverse_power_terms, asymptotic_cutoff, ml_neg

# Order of the Wynn epsilon acceleration: each estimate uses the last
# 2 * _ACCEL_ORDER + 1 partial sums of the lobe series.
_ACCEL_ORDER = 8
# Most lobes g_integral sums before it raises NonConvergence; at most half of
# them are summed directly.
_MAX_LOBES = 10_000
# Most GK15 cells one lobe's mesh may have.  Below r/t ~5e-14 lobe 0 would
# need more, which takes minutes and gigabytes.
_MAX_CELLS = 1 << 16


@dataclass(frozen=True)
class QuadResult:
    value: float
    est_error: float
    lobes_used: int


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


def _cells(alpha: float, t: float, a: float, b: float) -> np.ndarray:
    """Edges of the GK15 cells covering [a, b] in the tau variable.

    The integrand has a tau^alpha branch point at tau = 0 (singular higher
    derivatives), cured by a mesh graded geometrically towards it when a = 0.
    While the Mittag-Leffler oscillation is above 1e-18, no cell is wider
    than a third of its period or twice its decay length 1/(t |cos(pi/alpha)|)
    (1/t, with no period, at alpha = 1).  Past it the integrand falls off
    like a power of tau, over which |K15 - G7| overstates the K15 error
    about 1e4-fold on a cell with hi = 4 lo; such cells are split
    geometrically to hi <= 2 lo.
    """
    if alpha > 1.0:
        scale = min(2.0 * math.pi / (3.0 * t * math.sin(math.pi / alpha)),
                    2.0 / (t * abs(math.cos(math.pi / alpha))))
    else:
        scale = 2.0 / t
    base = [0.0] + [b * 0.25 ** j for j in range(14, -1, -1)] if a == 0.0 else [a, b]
    widths = [(hi - lo) / scale if _ml_osc_amplitude(alpha, lo * t) > 1e-18 else 0.0
              for lo, hi in zip(base[:-1], base[1:])]
    if not sum(widths) <= _MAX_CELLS:
        raise NonConvergence(f"the lobe [{a:.3g}, {b:.3g}] needs {sum(widths):.3g} cells, "
                             f"more than {_MAX_CELLS}: r/t is too small for the integral")
    edges = [base[0]]
    for lo, hi, width in zip(base[:-1], base[1:], widths):
        if width == 0.0 and hi > 2.0 * lo:
            edges.extend(np.geomspace(lo, hi, math.ceil(math.log2(hi / lo)) + 1)[1:])
        else:
            edges.extend(np.linspace(lo, hi, max(1, math.ceil(width)) + 1)[1:])
    return np.array(edges)


def _integrate(f, edges: np.ndarray) -> tuple[float, float]:
    """GK15 over every cell of a mesh, with one call of the vectorized f on
    all nodes; returns (value, sum over the cells of |K15 - G7|)."""
    x, w, d = _gk15_cells(edges)
    fx = f(x.ravel()).reshape(x.shape)
    return float(np.vdot(w, fx)), float(np.abs((d * fx).sum(axis=1)).sum())


def _prefactor(n: int, r: float) -> float:
    """Constant factor of the radial integrand, whose kernel is cos(tau r)
    for n = 1, tau J_0(tau r) for n = 2 and tau sin(tau r) for n = 3."""
    return 1.0 / (math.pi, 2.0 * math.pi, 2.0 * math.pi ** 2 * r)[n - 1]


def _make_integrand(alpha: float, n: int, r: float, t: float, ml_tol: float):
    """Vectorized integrand of the radial representation, including prefactor."""
    pref = _prefactor(n, r)

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


def g_integral(alpha: float, n: int, r: float, t: float, tol: float = 1e-8) -> QuadResult:
    """Evaluate G_{alpha,n}(r,t) from the oscillatory radial integral, to an
    est_error within max(tol, tol * |value|).

    Raises OriginDivergence for r = 0 with n >= 2 and NonConvergence once the
    cell error alone exceeds the target or after _MAX_LOBES lobes.
    """
    check_dimension(n)
    check_window(alpha, 1.0, 2.0, lo_open=n > 1, what=f"order for n = {n}")
    check_positive("t", t)
    check_positive("r", r, zero_ok=True)
    check_positive("tol", tol)
    ml_tol = min(1e-13, 0.01 * tol)
    if r == 0.0:
        if n >= 2:
            raise OriginDivergence(f"G_{{alpha,{n}}} diverges at r = 0")
        return _integral_origin_1d(alpha, t, tol, ml_tol)

    f = _make_integrand(alpha, n, r, t, ml_tol)
    kernel_env = _prefactor(n, r)

    # Lobes are summed directly while the damped oscillation of E_alpha can
    # still flip their signs, then by Wynn acceleration of the partial sums.
    # The residual Mittag-Leffler oscillation is integrated by the cells in
    # both phases; only the lobe SIGN pattern needs the direct phase.
    direct = True
    direct_sum = 0.0
    panel_err = 0.0
    partials: list[float] = []
    accel_hist: list[float] = []
    a = 0.0
    window = 2 * _ACCEL_ORDER + 1
    for k in range(_MAX_LOBES):
        b = _lobe_edge(n, r, k)
        if direct:
            tau_pow = b if n >= 2 else 1.0
            osc_bound = _ml_osc_amplitude(alpha, b * t) * kernel_env * tau_pow * (b - a)
            direct = osc_bound > 0.02 * tol and k < _MAX_LOBES // 2
        v, e = _integrate(f, _cells(alpha, t, a, b))
        panel_err += e
        a = b
        if direct:
            direct_sum += v
            continue
        partials.append((partials[-1] if partials else 0.0) + v)
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
        target = max(tol, tol * abs(value))
        if est <= target:  # so both are finite: est >= 1e-16 |value|
            return QuadResult(value, est, k + 1)
        if panel_err > target:  # panel_err only grows, and est >= panel_err
            raise NonConvergence(f"cell error {panel_err:.2e} exceeds the target {target:.2e} "
                                 f"after {k + 1} lobes (alpha={alpha}, n={n}, r={r}, t={t})")

    raise NonConvergence(
        f"lobe acceleration did not stabilize within {_MAX_LOBES} lobes "
        f"(alpha={alpha}, n={n}, r={r}, t={t})"
    )


def _integral_origin_1d(alpha: float, t: float, tol: float, ml_tol: float) -> QuadResult:
    """n = 1 integral at r = 0: (1/pi) int_0^inf E_alpha(-(tau t)^alpha) dtau.

    No kernel oscillation; integrate to where the inverse-power expansion of
    E_alpha holds, then add the analytic tail (power terms plus the explicit
    integral of the damped-oscillation pair).  It counts as one lobe.
    """
    x_a = asymptotic_cutoff(alpha, 1e-10)
    tau_cut = x_a ** (1.0 / alpha) / t
    edges = _cells(alpha, t, 0.0, tau_cut)
    val, err = _integrate(_make_integrand(alpha, 1, 0.0, t, ml_tol), edges)

    # Analytic tail.  Term k of the inverse-power series at x_a integrates
    # over [tau_cut, inf) to term_k * tau_cut / (alpha k - 1), and the
    # truncation bound 2 * envelope likewise.  The damped-oscillation pair
    # integrates in closed form; at alpha = 1 its two poles merge into the one
    # of E_1(-x) = exp(-x), which has no power part.
    if alpha > 1.0:
        ks, terms, k_end, envelope = _inverse_power_terms(alpha, x_a)
        tail = tau_cut * float(np.sum(terms / (alpha * ks - 1.0)))
        tail_err = 2.0 * envelope * tau_cut / (alpha * (k_end + 1) - 1.0)
        th = math.pi / alpha
        zpole = complex(math.cos(th), math.sin(th))
        tail -= (2.0 / alpha) * (np.exp(tau_cut * t * zpole) / (t * zpole)).real
    else:
        tail, tail_err = math.exp(-tau_cut * t) / t, 0.0
    value = float(val + tail / math.pi)
    est = err + tail_err / math.pi + 1e-15
    check_finite("the origin integral or its est_error", value, est)
    if est > max(tol, tol * abs(value)):
        raise NonConvergence("origin integral tail estimate above tolerance")
    return QuadResult(value, est, 1)


def g_origin(alpha: float, n: int, t: float) -> float:
    """Value of G_{alpha,n} at the spatial origin.

    Zero for n = 1 and 1 < alpha < 2, the Cauchy-kernel center 1/(pi t) at
    alpha = 1; unbounded (OriginDivergence) for n >= 2 because the Mellin
    convergence window 0 < n < alpha is empty there.
    """
    check_dimension(n)
    check_window(alpha, 1.0, 2.0)
    check_positive("t", t)
    if n >= 2:
        raise OriginDivergence(
            f"G_{{alpha,{n}}}(0, t) diverges: the window 0 < n < alpha is empty for n = {n}"
        )
    if alpha == 1.0:
        value = 1.0 / (math.pi * t)
        check_finite("G at the origin", value)
        return value
    return 0.0


def solve_ivp_1d(alpha: float, xs, phis, t: float, out_grid) -> np.ndarray:
    """Solve the 1D initial-value problem with initial displacement sampled as
    (xs, phis) on a uniform grid and zero initial velocity, by trapezoidal
    convolution with the closed-form Green function:

        u(x, t) = int G_{alpha,1}(x - xi, t) phi(xi) d xi.

    Returns u evaluated on out_grid.  When out_grid is the sample grid itself,
    G_{alpha,1}(x_i - x_j) depends on i - j only: the N-point grid costs 2N - 1
    kernel values (N g1 evaluations, mirrored) and one discrete convolution.
    Any other out_grid is summed directly, N g1 values per output point.
    Raises InvalidGrid for unsorted, non-uniform or non-finite sample grids
    and non-finite samples or output points.
    """
    check_window(alpha, 1.0, 2.0)
    check_positive("t", t)
    xs = np.asarray(xs, dtype=float)
    phis = np.asarray(phis, dtype=float)
    out = np.asarray(out_grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or xs.shape != phis.shape:
        raise InvalidGrid("phi must be sampled as two equal-length 1D arrays")
    check_finite("the sample grid, the samples or the output grid", xs, phis, out,
                 exc=InvalidGrid)
    d = np.diff(xs)
    if np.any(d <= 0.0):
        raise InvalidGrid("sample grid must be strictly increasing")
    h = d[0]
    if np.max(np.abs(d - h)) > 1e-9 * h:
        raise InvalidGrid("sample grid must be uniform")
    w = np.full_like(phis, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    if np.array_equal(out, xs):
        # mean spacing: the rounding in h = x_1 - x_0 would grow k-fold in k h
        g = g1(alpha, (xs[-1] - xs[0]) / (xs.size - 1) * np.arange(xs.size), t)
        u = np.convolve(np.concatenate((g[:0:-1], g)), w * phis, mode="valid")
    else:
        u = np.empty_like(out)
        for i, x in enumerate(out):
            u[i] = float(np.dot(w * phis, g1(alpha, np.abs(x - xs), t)))
    check_finite("the solution", u)
    return u
