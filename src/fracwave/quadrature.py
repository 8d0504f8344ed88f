"""Two routes from the radial Bessel-integral representation

    G_{alpha,n}(r,t) = r^(1-n/2)/(2 pi)^(n/2)
                       * int_0^inf E_alpha(-(tau t)^alpha) tau^(n/2) J_{n/2-1}(tau r) dtau:

the spectral route g_spectral, which takes the tau-integral in closed form
and leaves one non-oscillatory integral over the branch cut of E_alpha, all
points at once (see its docstring), and the oscillatory quadrature
g_integral, one point per call.  For 1 < alpha < 2,
E_alpha(-(tau t)^alpha) is a damped oscillating pair (2/alpha) Re exp(-p tau),
p = -t e^{i pi/alpha}, plus a completely monotone branch-cut part, which is
how special.ml_neg computes it.  The branch-cut part is an integral of one
weight w(rho), and one GK15 mesh of it, special._branch_cut_mesh, with one
sum over it, special._mesh_sums, serves both ml_neg and g_spectral.  Both
parts are mixtures of exp(-s tau), so their parts of G are mixtures of the
Poisson kernel P_n(r, s), one formula for every n (g_spectral).  Both routes add the pair's part in closed form.  g_integral
integrates E_alpha minus the pair (special._ml_neg_minus_pair, on whole
arrays of nodes in ml_neg's regimes) against its kernel (cos for n = 1,
tau J_0 for n = 2, tau sin for n = 3), split at the zeros of the kernel
(McMahon's leading term for those of J_0).  Each lobe is integrated by the
GK15 rule on a geometric mesh of cells (graded towards the branch point at
tau = 0 in lobe 0), and the lobe series, which alternates in sign from
lobe 0, is summed by Wynn's epsilon algorithm.

g_integral's error estimate combines the acceleration increments, the cell
error estimates, the per-node rounding bound of E_alpha minus the pair
(4 eps (|E_alpha| + |pair|) where the pair is subtracted, 4 eps times the
value elsewhere), and the rounding of the closed-form term.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .closed_form import g1
from .errors import (InvalidInput, NonConvergence, OriginDivergence, check_dimension,
                     check_finite, check_positive, check_window)
from .special import (_EPS, _branch_cut_mesh, _cos_sin_pi, _gk15_cells, _inverse_power_terms,
                      _mesh_sums, _ml_neg_minus_pair, _pair_angle, asymptotic_cutoff)

# Order of the Wynn epsilon acceleration: each estimate uses the last
# 2 * _ACCEL_ORDER + 1 partial sums of the lobe series.
_ACCEL_ORDER = 8
# Most lobes g_integral sums before it raises NonConvergence.
_MAX_LOBES = 10_000
# Lobes g_integral sums before its first acceleration.  Its stop rule
# compares three accelerations, so it sums at least _FIRST_ACCEL + 2 lobes,
# and it integrates those in one call of the integrand.
_FIRST_ACCEL = max(6, _ACCEL_ORDER)
_FIRST_LOBES = _FIRST_ACCEL + 2


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


def _integrate_lobes(f, meshes) -> tuple[np.ndarray, np.ndarray]:
    """GK15 over every cell of consecutive meshes (each one's first edge the
    last edge of the one before), with one call of the vectorized f on all
    nodes; returns each mesh's value and error, the error being the sum over
    its cells of |K15 - G7| plus the K15 sum of the per-node rounding bound f
    reports."""
    x, w, d = _gk15_cells(np.concatenate([meshes[0]] + [m[1:] for m in meshes[1:]]))
    fx, rounding = f(x.ravel())
    fx, rounding = fx.reshape(x.shape), rounding.reshape(x.shape)
    starts = np.cumsum([0] + [m.size - 1 for m in meshes[:-1]])
    values = np.add.reduceat((w * fx).sum(axis=1), starts)
    errors = np.add.reduceat(np.abs((d * fx).sum(axis=1)) + (w * rounding).sum(axis=1), starts)
    return values, errors


def _integrate(f, edges: np.ndarray) -> tuple[float, float]:
    """GK15 over every cell of one mesh (_integrate_lobes): (value, error)."""
    values, errors = _integrate_lobes(f, [edges])
    return float(values[0]), float(errors[0])


def _prefactor(n: int, r: float) -> float:
    """Constant factor of the radial integrand, whose kernel is cos(tau r)
    for n = 1, tau J_0(tau r) for n = 2 and tau sin(tau r) for n = 3."""
    return 1.0 / (math.pi, 2.0 * math.pi, 2.0 * math.pi ** 2 * r)[n - 1]


def _make_integrand(alpha: float, n: int, r: float, t: float, ml_tol: float):
    """Vectorized integrand of the radial representation with the damped
    pair taken out, including the prefactor.  Returns its values and a
    per-node bound on their rounding.

    E_alpha minus the pair comes from special._ml_neg_minus_pair in one call
    over all nodes, in the regimes ml_neg chooses at ml_tol: the Taylor sum
    minus the pair at x <= 1 (and x <= 2 where the sum is the fallback), and
    the branch-cut integral or the inverse-power sum, which the pair is not
    added to, above.
    """
    pref = _prefactor(n, r)
    if n == 2:
        from scipy.special import j0  # on first use (special's docstring)

    def f(taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore"):  # checked below
            xs = (taus * t) ** alpha
        check_finite("(tau t)^alpha on the radial mesh", xs)
        reduced, rounding = _ml_neg_minus_pair(alpha, xs, ml_tol)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            kern = pref * (np.cos(taus * r) if n == 1 else
                           taus * (j0(taus * r) if n == 2 else np.sin(taus * r)))
            values = reduced * kern
        check_finite("the radial integrand", values)
        return values, rounding * np.abs(kern)

    return f


def _pair_transform(alpha: float, n: int, r, t) -> tuple[np.ndarray, np.ndarray]:
    """The damped pair's part of G and its rounding bound, at r and t that
    broadcast together.

    The part is (2/alpha) Re P_n(r, p), P_n the Poisson kernel (g_spectral) at
    p = -t e^{i pi/alpha}: c_n p/(t^n q^((n+1)/2)) with p and q = p^2 + r^2 in
    units of t and t^2.  Im q < 0, so the principal branch is the
    continuation from real p.  Near alpha = 2 and r = t, q cancels; it is
    formed from the exact r - t and 2 - alpha as
    q = (r - t)(r + t) - 2i t^2 sin(d) e^{i d}, d = special._pair_angle(alpha).
    At alpha = 1 there is no pair.
    """
    if alpha == 1.0:
        zero = np.zeros(np.broadcast(r, t).shape)
        return zero, zero
    d = _pair_angle(alpha)
    p = complex(math.sin(d), -math.cos(d))
    power = 0.5 * (n + 1)
    with np.errstate(all="ignore"):  # the callers check that both are finite
        u = np.subtract(r, t) / t * (np.add(r, t) / t)
        q = u - 2j * math.sin(d) * cmath.exp(1j * d)
        big_p = 2.0 / alpha * math.gamma(power) / math.pi ** power * p / q ** power / np.power(t, n)
        # Each part of q is formed to a few eps, and q^power amplifies q's
        # relative error power-fold.
        q_rel = 4.0 * _EPS * (np.abs(u) + 2.0 * math.sin(d)) / np.abs(q)
        return big_p.real, np.abs(big_p) * (8.0 * _EPS + power * q_rel)


def g_spectral(alpha: float, n: int, r, t) -> QuadResult:
    """Evaluate G_{alpha,n}(r, t) by the spectral route: the radial
    integral with E_alpha(-(tau t)^alpha) split into its damped pair and its
    branch-cut part (Gorenflo & Mainardi, CISM Courses 378, 1997),

        E_alpha(-(tau t)^alpha) = (2/alpha) Re e^{-p tau} + int_0^inf w(rho) e^{-rho t tau} drho,
        w(rho) = sin(pi alpha)/pi * rho^(alpha-1)
                 / ((rho^alpha + cos(pi alpha))^2 + sin(pi alpha)^2),

    and the tau-integral taken first, in closed form for both parts.  Each is a
    mixture of e^(-s tau), whose n-dimensional inverse Fourier transform is the
    Poisson kernel P_n(r, s) (Stein & Weiss, "Introduction to Fourier Analysis
    on Euclidean Spaces", 1971, ch. II), so that

        G = (2/alpha) Re P_n(r, p) + int_0^inf w(rho) P_n(r, rho t) drho,
        P_n(r, s) = c_n s / (s^2 + r^2)^((n+1)/2),  c_n = Gamma((n+1)/2) / pi^((n+1)/2).

    The first term is _pair_transform; the second is a real integral that does
    not oscillate, on one GK15 mesh that all points share: that of ml_neg's
    branch-cut integral (special._branch_cut_mesh), with ends at powers of 2
    from below 1e-10 min(1, r/t) to above 1e10 max(1, r/t), summed by the
    same code (special._mesh_sums).  Its kernel is formed without squaring
    x = rho t / r, so it keeps its x^-n fall-off where x^2 would overflow:
    for n = 1 the r^-1 scale makes it O(1) once r/t < ~1e-144.  At alpha = 1
    (n = 1 only) w is a delta at rho = 1 and G = P_1(r, t).

    r and t are scalars or arrays that broadcast together; scalar input gives
    float value and est_error, array input arrays of the broadcast shape.  The
    est_error sums the per-cell |K15 - G7|, the pair's rounding bound, 8 eps
    times sum |w P_n| and analytic bounds on the two tails past the mesh
    (w <= 2 |sin(pi alpha)|/pi rho^(alpha-1) below it, 4 |sin(pi alpha)|/pi
    rho^(-alpha-1) above it; P_n(r, s) <= c_n r^(-n) min(s/r, (s/r)^(-n))),
    and a bound on what underflow takes from the branch-cut sum.  The r^(-n)
    scale is applied in exponent form, so the value may lie where r^n leaves
    the double range: every r/t >= 1e-150 returns.  Where that underflow
    bound passes eps times the sum (from r/t ~ 1e-150 to 1e-300, by n and
    alpha) the call raises NonConvergence.  r = 0 gives g_origin for n = 1 and
    raises OriginDivergence for n >= 2; a value or a mesh outside the double
    range raises NonConvergence.
    """
    check_dimension(n)
    check_window(alpha, 1.0, 2.0, lo_open=n > 1, what=f"order for n = {n}")
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    check_positive("r", r, zero_ok=True)
    check_positive("t", t)
    origin = r == 0.0
    if n >= 2 and np.any(origin):
        raise OriginDivergence(f"G_{{alpha,{n}}} diverges at r = 0")
    value, est = np.zeros(r.shape), np.zeros(r.shape)
    value[origin] = g_origin(alpha, 1, 1.0) / t[origin]
    rs, ts = r[~origin], t[~origin]
    if alpha == 1.0:
        value[~origin] = ts / np.hypot(rs, ts) / (math.pi * np.hypot(rs, ts))
        est[~origin] = 4.0 * _EPS * value[~origin]
    elif rs.size:
        with np.errstate(over="ignore", divide="ignore"):  # r/t out of the double range
            rho = rs / ts
            check_finite("log(r/t)", np.log(rho))
        k_lo = math.floor(math.log2(min(1.0, float(rho.min())))) - 34
        k_hi = math.ceil(math.log2(max(1.0, float(rho.max())))) + 34
        if k_lo < -1074 or k_hi > 1023:
            raise NonConvergence(f"r/t in [{rho.min():.3g}, {rho.max():.3g}] leaves the double "
                                 "range of the spectral mesh")

        def poisson(q, nodes):
            # P_n(r, rho t) = c_n r^(-n) f(x), x = rho t / r, f(x) = x / (x^2 + 1)^((n+1)/2),
            # formed as s h^(1-n), s = 1/(x + 1/x), h = hypot(x, 1): neither squares x,
            # so both keep their ~1/x where x^2 overflows, and x = 0 or inf gives
            # f = 0, its limit
            with np.errstate(over="ignore", divide="ignore"):
                x = nodes / q
                return 1.0 / (x + 1.0 / x) * np.hypot(x, 1.0) ** (1 - n)

        mesh = _branch_cut_mesh(alpha, k_lo, k_hi)
        branch, cell_err = _mesh_sums(poisson, rho, mesh)
        lo, hi = math.ldexp(1.0, k_lo), math.ldexp(1.0, k_hi)
        s_abs = abs(_cos_sin_pi(alpha)[1]) / math.pi
        tails = s_abs * (2.0 * lo ** (alpha + 1.0) / ((alpha + 1.0) * rho)
                         + 4.0 * (rho / hi) ** n * hi ** -alpha / (alpha + n))
        # What underflow can take from the sum: up to 2^-1073 per node where
        # a weight, f or their product falls below the normal range.
        underflow = mesh[0].size * 2.0 ** -1073
        # Every weight carries the sign of sin(pi alpha) and f >= 0,
        # so |branch| is also the sum of the magnitudes.
        lost = np.flatnonzero(_EPS * np.abs(branch) < underflow)
        if lost.size:
            raise NonConvergence(f"the spectral sum at r/t = {rho[lost[0]]:.3g} has lost digits "
                                 "to underflow")
        pair, pair_err = _pair_transform(alpha, n, rs, ts)
        # c_n r^-n in exponent form, r = m 2^e: r^n may leave the double
        # range where the value does not
        m, e = np.frexp(rs)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            scale = math.gamma(0.5 * (n + 1)) / math.pi ** (0.5 * (n + 1)) / m ** n
            value[~origin] = pair + np.ldexp(scale * branch, -n * e)
            est[~origin] = pair_err + np.ldexp(
                scale * (cell_err + 8.0 * _EPS * np.abs(branch) + tails + underflow), -n * e)
    check_finite("the spectral value or its est_error", value, est)
    if value.ndim == 0:
        return QuadResult(float(value), float(est), 0)
    return QuadResult(value, est, 0)


def g_integral(alpha: float, n: int, r: float, t: float, tol: float = 1e-8) -> QuadResult:
    """Evaluate G_{alpha,n}(r,t) from the oscillatory radial integral, to an
    est_error within max(tol, tol * |value|).

    Keep tol >= ~3e-9 (the default is 1e-8).  Measured for n = 3 at
    r/t in [1e-8, 1e-2], alpha in [1.5, 1.99]: at tol = 1e-9 the error reaches
    1.6 est_error and at 3e-10 6 est_error, and from ~1e-10 on the
    |K15 - G7| estimates of lobe 0's cells, which overstate their error, can
    exceed the target alone and raise NonConvergence.  g_spectral, with no
    tolerance to set, is within 1e-9 relative or better.

    Every call sums at least _FIRST_LOBES lobes; their cells are integrated
    in one call of the integrand, later lobes one at a time.

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
    pair, fixed_err = map(float, _pair_transform(alpha, n, r, t))
    check_finite("the damped pair's part of G or its rounding bound", pair, fixed_err)
    # fixed_err, which only grows: closed-form rounding, cell errors, integrand rounding
    partials: list[float] = []
    accel_hist: list[float] = []
    edges = [0.0] + [_lobe_edge(n, r, k) for k in range(_FIRST_LOBES)]
    first = zip(*_integrate_lobes(f, [_cells(t, a, b) for a, b in zip(edges, edges[1:])]))
    window = 2 * _ACCEL_ORDER + 1
    for k in range(_MAX_LOBES):
        if k < _FIRST_LOBES:
            v, e = next(first)
        else:
            v, e = _integrate(f, _cells(t, _lobe_edge(n, r, k - 1), _lobe_edge(n, r, k)))
        fixed_err += float(e)
        partials.append((partials[-1] if partials else 0.0) + float(v))
        if len(partials) < _FIRST_ACCEL:
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
    pair, pair_err = map(float, _pair_transform(alpha, 1, 0.0, t))

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
