"""Oscillatory quadrature for the radial Bessel-integral representation

    G_{alpha,n}(r,t) = r^(1-n/2)/(2 pi)^(n/2)
                       * int_0^inf E_alpha(-(tau t)^alpha) tau^(n/2) J_{n/2-1}(tau r) dtau,

with the contour, one of two routes for n = 2.  For 1 < alpha < 2,
E_alpha(-(tau t)^alpha) is a damped oscillating pair (2/alpha) Re exp(-p tau),
p = -t e^{i pi/alpha}, plus a completely monotone branch-cut part, which is
how special.ml_neg computes it.  Against the kernel (cos for n = 1, tau J_0
for n = 2, tau sin for n = 3) the pair has a closed-form Laplace transform,
which is added; only E_alpha minus the pair is integrated numerically.  That
integral is split at the zeros of the kernel (McMahon's leading term for
those of J_0), each lobe is integrated by the GK15 rule on a geometric mesh
of cells (graded towards the branch point at tau = 0 in lobe 0), and the
lobe series, which alternates in sign from lobe 0, is summed by Wynn's
epsilon algorithm.

The returned error estimate combines the acceleration increments, the cell
error estimates, and the rounding of the per-node subtraction and of the
closed-form term.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .closed_form import g1
from .errors import (InvalidInput, NonConvergence, OriginDivergence, check_dimension,
                     check_finite, check_positive, check_window)
from scipy.special import j0 as _bessel_j0

from .special import _EPS, _exp_pair, _gk15_cells, _inverse_power_terms, asymptotic_cutoff, ml_neg

# Order of the Wynn epsilon acceleration: each estimate uses the last
# 2 * _ACCEL_ORDER + 1 partial sums of the lobe series.
_ACCEL_ORDER = 8
# Most lobes g_integral sums before it raises NonConvergence.
_MAX_LOBES = 10_000


@dataclass(frozen=True)
class QuadResult:
    value: float
    est_error: float
    lobes_used: int


def _lobe_edge(n: int, r: float, k: int) -> float:
    """Upper boundary of lobe k (k = 0, 1, ...) in the tau variable: the
    (k+1)-th zero of cos (n = 1) and sin (n = 3), and McMahon's leading term
    for that zero of J_0 (n = 2; DLMF 10.21.19)."""
    return (k + 0.25 * (n + 1)) * math.pi / r


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


def _cells(t: float, a: float, b: float) -> np.ndarray:
    """Edges of the GK15 cells covering [a, b] in the tau variable.

    With the damped pair taken out, the integrand has no oscillation of its
    own: it has a tau^alpha branch point at tau = 0 (singular higher
    derivatives) and falls off like a power of tau, over which |K15 - G7|
    overstates the K15 error about 1e4-fold on a cell with hi = 4 lo.  So
    every cell is geometric with hi <= 2 lo, and from a = 0 the mesh is
    halved down to about 2^-28 min(b, 1/t), where the first cell [0, .] is
    far below the branch point's scale 1/t at any r/t.
    """
    if a == 0.0:
        check_finite("the first lobe in units of 1/t", b * t)
        halvings = 28 + max(0, math.ceil(math.log2(b * t)))
        return np.array([0.0] + [math.ldexp(b, -j) for j in range(halvings, -1, -1)])
    return np.geomspace(a, b, math.ceil(math.log2(b / a)) + 1)


def _integrate(f, edges: np.ndarray) -> tuple[float, float]:
    """GK15 over every cell of a mesh, with one call of the vectorized f on
    all nodes; returns (value, error), the error being the sum over the cells
    of |K15 - G7| plus the K15 sum of the per-node rounding bound f reports."""
    x, w, d = _gk15_cells(edges)
    fx, rounding = f(x.ravel())
    fx = fx.reshape(x.shape)
    return float(np.vdot(w, fx)), float(np.abs((d * fx).sum(axis=1)).sum() + np.vdot(w, rounding))


def _prefactor(n: int, r: float) -> float:
    """Constant factor of the radial integrand, whose kernel is cos(tau r)
    for n = 1, tau J_0(tau r) for n = 2 and tau sin(tau r) for n = 3."""
    return 1.0 / (math.pi, 2.0 * math.pi, 2.0 * math.pi ** 2 * r)[n - 1]


def _make_integrand(alpha: float, n: int, r: float, t: float, ml_tol: float):
    """Vectorized integrand of the radial representation with the damped
    pair subtracted, including the prefactor.  Returns its values and a
    per-node bound on the rounding of the subtraction.

    The pair subtracted is the one ml_neg's regimes add (special._exp_pair at
    the same x and tol), so the rounding of its phase cancels.
    """
    pref = _prefactor(n, r)
    pair_at_0 = 2.0 / alpha if alpha > 1.0 else 0.0

    def f(taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ml = np.empty_like(taus)
        pair = np.empty_like(taus)
        with np.errstate(over="ignore", invalid="ignore"):  # both checked below
            xs = (taus * t) ** alpha
            check_finite("(tau t)^alpha on the radial mesh", xs)
            for i, x in enumerate(xs):
                ml[i] = ml_neg(alpha, x, ml_tol).value
                pair[i] = _exp_pair(alpha, x, ml_tol)[0] if x > 0.0 else pair_at_0
            kern = pref * (np.cos(taus * r) if n == 1 else
                           taus * (_bessel_j0(taus * r) if n == 2 else np.sin(taus * r)))
            values = (ml - pair) * kern
        check_finite("the radial integrand", values)
        return values, 4.0 * _EPS * (np.abs(ml) + np.abs(pair)) * np.abs(kern)

    return f


def _pair_transform(alpha: float, n: int, r: float, t: float) -> tuple[float, float]:
    """The damped pair's part of G and its rounding bound.

    The part is pref (2/alpha) Re L, with L the Laplace transform of the
    kernel at p = -t e^{i pi/alpha}: p/q, p/q^(3/2) and 2 p r/q^2 for
    n = 1, 2, 3, q = p^2 + r^2.  Im q < 0, so the principal branch is the
    continuation from real p.  Near alpha = 2 and r = t, q cancels; it is
    formed from the exact r - t and 2 - alpha, in units of t^2, as
    q = (r - t)(r + t) - 2i t^2 sin(d) e^{i d}, d = pi (2 - alpha)/(2 alpha).
    At alpha = 1 there is no pair.
    """
    if alpha == 1.0:
        return 0.0, 0.0
    d = 0.5 * math.pi * (2.0 - alpha) / alpha
    p = complex(math.sin(d), -math.cos(d))
    with np.errstate(all="ignore"):  # g_integral checks that both are finite
        u = np.float64(r - t) / t * ((r + t) / t)
        q = u - 2j * math.sin(d) * cmath.exp(1j * d)
        power = (1.0, 1.5, 2.0)[n - 1]
        big_l = (p, p, 2.0 * p * (r / t))[n - 1] / q ** power / (t if n == 1 else t * t)
        # Each part of q is formed to a few eps, and q^power amplifies q's
        # relative error power-fold.
        q_rel = 4.0 * _EPS * (abs(u) + 2.0 * math.sin(d)) / abs(q)
        scale = 2.0 / alpha * _prefactor(n, r)
        return float(scale * big_l.real), float(scale * abs(big_l) * (8.0 * _EPS + power * q_rel))


def g_integral(alpha: float, n: int, r: float, t: float, tol: float = 1e-8) -> QuadResult:
    """Evaluate G_{alpha,n}(r,t) from the oscillatory radial integral, to an
    est_error within max(tol, tol * |value|).

    Raises OriginDivergence for r = 0 with n >= 2 and NonConvergence once the
    error that no further lobe can lower exceeds the target, or after
    _MAX_LOBES lobes.
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
    pair, fixed_err = _pair_transform(alpha, n, r, t)
    check_finite("the damped pair's part of G or its rounding bound", pair, fixed_err)
    # fixed_err, which only grows: closed-form rounding, cell errors, subtraction rounding
    partials: list[float] = []
    accel_hist: list[float] = []
    a = 0.0
    window = 2 * _ACCEL_ORDER + 1
    for k in range(_MAX_LOBES):
        b = _lobe_edge(n, r, k)
        v, e = _integrate(f, _cells(t, a, b))
        fixed_err += e
        a = b
        partials.append((partials[-1] if partials else 0.0) + v)
        if len(partials) < max(6, window // 2):
            continue
        evens = _wynn_epsilon(partials[-window:])
        accel = evens[-1]
        accel_hist.append(accel)
        if len(accel_hist) < 3:
            continue
        value = pair + accel
        accel_est = abs(accel_hist[-1] - accel_hist[-2]) + \
            0.5 * abs(accel_hist[-1] - accel_hist[-3])
        if len(evens) >= 2:
            accel_est += 0.25 * abs(evens[-1] - evens[-2])
        est = 3.0 * accel_est + fixed_err + 1e-16 * abs(value)
        target = max(tol, tol * abs(value))
        if est <= target:
            check_finite("the radial integral or its est_error", value, est)
            return QuadResult(value, est, k + 1)
        if fixed_err > target:  # est >= fixed_err
            raise NonConvergence(f"cell and rounding error {fixed_err:.2e} exceeds the target "
                                 f"{target:.2e} after {k + 1} lobes "
                                 f"(alpha={alpha}, n={n}, r={r}, t={t})")

    raise NonConvergence(
        f"lobe acceleration did not stabilize within {_MAX_LOBES} lobes "
        f"(alpha={alpha}, n={n}, r={r}, t={t})"
    )


def _integral_origin_1d(alpha: float, t: float, tol: float, ml_tol: float) -> QuadResult:
    """n = 1 integral at r = 0: (1/pi) int_0^inf E_alpha(-(tau t)^alpha) dtau.

    No kernel oscillation.  The damped pair integrates to (1/pi) (2/alpha)
    Re(1/p) (_pair_transform); the rest is integrated to where the
    inverse-power expansion of E_alpha holds, and the analytic tail of that
    expansion is added.  It counts as one lobe.
    """
    x_a = asymptotic_cutoff(alpha, 1e-10)
    tau_cut = x_a ** (1.0 / alpha) / t
    val, err = _integrate(_make_integrand(alpha, 1, 0.0, t, ml_tol), _cells(t, 0.0, tau_cut))
    pair, pair_err = _pair_transform(alpha, 1, 0.0, t)

    # Analytic tail.  Term k of the inverse-power series at x_a integrates
    # over [tau_cut, inf) to term_k * tau_cut / (alpha k - 1), and the
    # truncation bound 2 * envelope likewise.  At alpha = 1, E_1(-x) =
    # exp(-x) has neither a pair nor a power part.
    if alpha > 1.0:
        ks, terms, k_end, envelope = _inverse_power_terms(alpha, x_a)
        tail = tau_cut * float(np.sum(terms / (alpha * ks - 1.0)))
        tail_err = 2.0 * envelope * tau_cut / (alpha * (k_end + 1) - 1.0)
    else:
        tail, tail_err = math.exp(-tau_cut * t) / t, 0.0
    value = float(val + pair + tail / math.pi)
    est = err + pair_err + tail_err / math.pi + 1e-15
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
    Raises InvalidInput for unsorted, non-uniform or non-finite sample grids
    and non-finite samples or output points.
    """
    check_window(alpha, 1.0, 2.0)
    check_positive("t", t)
    xs = np.asarray(xs, dtype=float)
    phis = np.asarray(phis, dtype=float)
    out = np.asarray(out_grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or xs.shape != phis.shape:
        raise InvalidInput("phi must be sampled as two equal-length 1D arrays")
    check_finite("the sample grid, the samples or the output grid", xs, phis, out,
                 exc=InvalidInput)
    d = np.diff(xs)
    if np.any(d <= 0.0):
        raise InvalidInput("sample grid must be strictly increasing")
    h = d[0]
    if np.max(np.abs(d - h)) > 1e-9 * h:
        raise InvalidInput("sample grid must be uniform")
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
