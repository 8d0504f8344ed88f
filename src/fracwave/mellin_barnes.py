"""Mellin-Barnes contour evaluation of the fundamental solution.

Third, independent route:

    G_{alpha,n}(r,t) = 1/(alpha pi^(n/2) r^n) * 1/(2 pi i)
                       * int_L K(s) (t/r)^(-s) ds,

    K(s) = Gamma(s/alpha) Gamma(1 - s/alpha) Gamma(n/2 - s/2)
           / (Gamma(1 - s) 2^s Gamma(s/2))
         = sqrt(pi) sin(pi s/2) / sin(pi s/alpha) * Gamma((n - s)/2) / Gamma((1 - s)/2)

by Euler's reflection and Legendre's duplication formulas (Paris & Kaminski,
"Asymptotics and Mellin-Barnes Integrals", CUP 2001).  The Gamma ratio is 1
for n = 1 and (1 - s)/2 for n = 3; K is regular at s = 0, and its only poles
are simple, at s = alpha k, k != 0.  At real s it is the radial Mellin
transform of G (analysis.moment).  L is a vertical line Re s = sigma inside
the pole-free strip 0 < sigma < min(alpha, n).  Along the line K decays like
exp(-mu |Im s|) with mu = (pi/2)(2/alpha - 1) > 0 for alpha < 2, so a
truncated line integral with a tail bound suffices.  Schwarz reflection
K(conj s) = conj K(s) reduces the integral to twice the real part over Im s >= 0.

The integrand is analytic in a strip around L, so the trapezoidal rule on the
line converges geometrically in 1/h, and halving h reuses every node
(Trefethen & Weideman, SIAM Review 56, 2014).  The kernel does not depend on
rho = r/t; only rho^s does.  One call therefore builds one table of
K(sigma + i j h) for all its points and sums it against rho^(sigma + i j h) at
every rho.  On these uniform nodes the phase rho^(i j h) of J nodes splits into
two tables of about sqrt(J) columns each, so a point costs O(sqrt(J))
exponentials rather than J (_phase_sum).  It halves h from 0.2, or from
1/max|log rho| where that is smaller (|log rho| > 5), adding only the odd
nodes, until at every rho the h and h/2 sums agree to _STEP_TOL or to
the rounding bound of the terms, below which more halvings cannot lower the
error; past a fixed number of halvings it raises NonConvergence.  The error
estimate is the h vs h/2 difference, the tail bound and that rounding bound.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (InvalidInput, NonConvergence, check_dimension, check_finite, check_positive,
                     check_scalar, check_window)
from .quadrature import QuadResult

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_LOG_HALF_I = complex(math.log(0.5), 0.5 * math.pi)  # log(i/2)
_EPS = float(np.finfo(float).eps)
_H0 = 0.2           # first trapezoidal step on the line
_MAX_HALVINGS = 6   # the finest step is _H0 / 2**6
_NODE_BLOCK = 1 << 16  # nodes whose kernel values are computed at once
_BLOCK = 1 << 20  # entries of one (points x nodes) temporary
# The tail bound must stay within this, the last step halving within this
# or the rounding bound.
_STEP_TOL = 1e-10


def _loggamma(z):
    """scipy.special.loggamma, imported on its first call.  _log_kernel_terms
    looks this name up on every call, so a wrapper installed on it (the
    benchmark's point counter) sees every point."""
    from scipy.special import loggamma

    return loggamma(z)


def _log_sin(z: np.ndarray) -> np.ndarray:
    """log sin z up to a multiple of 2 pi i, without overflow at large Im z >= 0:
    log(i/2) - i z + log(1 - e^(2iz))."""
    return _LOG_HALF_I - 1j * z + np.log(-np.expm1(2j * z))


def _log_kernel_terms(alpha: float, n: int, s: np.ndarray | complex) -> tuple[np.ndarray, ...]:
    """The terms of log K, kept apart for the rounding bound: log sqrt(pi), the
    two log-sines and the log of the Gamma ratio, which is nothing for n = 1,
    log((1 - s)/2) for n = 3 and two log-Gammas for n = 2."""
    terms = (_LOG_SQRT_PI, _log_sin(0.5 * math.pi * s), -_log_sin(math.pi / alpha * s))
    if n == 2:
        return terms + (_loggamma(1.0 - 0.5 * s), -_loggamma(0.5 * (1.0 - s)))
    if n == 3:
        return terms + (np.log(0.5 * (1.0 - s)),)
    return terms


def _sin_pi(x: float, a: float, m: int = 0) -> float:
    """sin(pi (m + x)/a) for real x, integer m, a > 0, with m + x reduced exactly
    (x by fmod, then m + x by k a, |k| <= 2): it keeps its digits at any x, also
    where m + x would round, and is exactly 0 at m + x = k a."""
    y = math.fmod(x, 2.0 * a)
    k = round((m + y) / a)
    return math.sin(math.pi * ((m - k * a) + y) / a) * (-1.0 if k % 2 else 1.0)


# Gamma(z + 1/2)/Gamma(z) ~ sqrt(z) sum_k c_k z^-k (Abramowitz & Stegun 6.1.47)
_HALF_RATIO_SERIES = (1.0, -1 / 8, 1 / 128, 5 / 1024, -21 / 32768, -399 / 262144, 869 / 4194304)


def _gamma_half_ratio(z: float) -> float:
    """Gamma(z + 1/2)/Gamma(z) for z > 0, by the series past z = 170 (terms left out < 1e-17);
    from z = 1 on at w = z + 1/2 and w - 1/2 (exact), so w's rounding moves both alike."""
    if z >= 170.0:
        return math.sqrt(z) * sum(c / z ** k for k, c in enumerate(_HALF_RATIO_SERIES))
    w = z + 0.5
    return math.gamma(w) / math.gamma(w - 0.5 if z >= 1.0 else z)


def _real_numerator(n: int, x: float, m: int = 0) -> float:
    """K's numerator K(s) sin(pi s/alpha) at a real s = m + x != 0 (m an integer):
    sqrt(pi) sin(pi s/2) times 1 (n = 1) or (1 - s)/2 (n = 3).  For n = 2,
    pi^(3/2)/(Gamma(s/2) Gamma((1 - s)/2)) = sqrt(pi) sin(pi s/2) R((1 - s)/2)
    for s < 0 and sqrt(pi) cos(pi s/2) R(s/2) for s > 0, R(z) = Gamma(z + 1/2)/Gamma(z)."""
    if n == 2:
        num = (_sin_pi(x, 2.0, m) * _gamma_half_ratio(0.5 * ((1 - m) - x)) if m + x < 0.0
               else _sin_pi(-x, 2.0, 1 - m) * _gamma_half_ratio(0.5 * (m + x)))
    else:
        num = _sin_pi(x, 2.0, m) * (1.0 if n == 1 else 0.5 * ((1 - m) - x))
    return math.sqrt(math.pi) * num


# Below this |s|, K(s) is K(0) to rounding (_real_kernel).
_KERNEL_FLAT = 1e-17


def _real_kernel(alpha: float, n: int, x: float, m: int = 0) -> float:
    """K(s) at s = m + x (m an integer; alpha, n checked): _real_numerator over
    sin(pi s/alpha), NonConvergence at s = alpha k != 0, and the limit
    K(0) = alpha Gamma(n/2)/2 wherever |s| < _KERNEL_FLAT = 1e-17.  There
    K(s)/K(0) - 1 is at most |s| (its slope at 0 is 0, (psi(1/2) - psi(1))/2
    = -0.69 and -1 for n = 1, 2, 3; the curvature adds below 1e-33), under
    eps/8, and the general form would meet subnormal s, which pi s and
    Gamma(s/2) do not survive."""
    s = m + x
    if abs(s) < _KERNEL_FLAT:
        return 0.5 * alpha * math.gamma(0.5 * n)
    if s / alpha == round(s / alpha):
        raise NonConvergence(f"kernel pole at s = {s} = alpha * {round(s / alpha)}")
    return _real_numerator(n, x, m) / _sin_pi(x, alpha, m)


def mb_kernel(alpha: float, n: int, s: complex) -> complex:
    """Kernel K of the contour representation at a single point.

    Raises NonConvergence at its poles, the real s = alpha k with k != 0.  At
    s = 0, and wherever |s| < 1e-17, it returns the limit alpha Gamma(n/2) / 2
    (_real_kernel), at its zeros 0.  The order window is
    1 < alpha < 2: at alpha = 1 the poles of 1/sin(pi s) at integer s meet
    zeros of the numerator (at even s for n = 1), which _real_kernel's test
    s/alpha == round(s/alpha) would report as poles.  g_mellin_barnes takes
    alpha = 1: its line Re s = sigma lies inside the pole-free strip, and it
    forms K in log form.
    """
    check_dimension(n)
    check_window(alpha, 1.0, 2.0, lo_open=True)
    check_scalar(s=s)
    s = complex(s)
    check_finite("s", s, exc=InvalidInput)
    if s.imag < 0.0:  # Schwarz reflection: _log_sin serves Im s >= 0 only
        return mb_kernel(alpha, n, s.conjugate()).conjugate()
    if s.imag == 0.0 or abs(s) < _KERNEL_FLAT:
        # the log form would meet log 0 times a pole of Gamma(1 - s/2) on the
        # real axis, and lose its digits near s = 0, where K is K(0)
        return complex(_real_kernel(alpha, n, s.real))
    value = complex(np.exp(sum(_log_kernel_terms(alpha, n, s))))
    check_finite("the kernel", value)
    return value


def _phase_sum(log_rho: np.ndarray, sigma: float, y0: float, dy: float,
               wk: np.ndarray) -> np.ndarray:
    """sum_j wk_j rho^(sigma + i (y0 + j dy)) at every entry of log_rho = log rho,
    by a two-level phase table.  With j = b M + m and M = ceil(sqrt(J)) for J
    weights, rho^(i j dy) = e^(i b M dy L) e^(i m dy L), L = log rho, so

        sum = rho^sigma e^(i y0 L) sum_b e^(i b M dy L) sum_m wk_(bM+m) e^(i m dy L):

    P (M + B) exponentials and one (P x M) . (M x B) contraction for P points,
    where the direct exp(L s_j) takes P J exponentials.  Each factor's argument
    rounds at eps times its size, and with y0, dy >= 0 these sizes add up to
    (sigma + y_j) |L|; the three exponentials and the three products add a few
    eps.  So each term is off by at most eps |wk_j| rho^sigma (8 + (sigma + y_j)
    |L|).  einsum rather than a BLAS product: threaded BLAS spends milliseconds
    starting threads on a product this small.
    """
    size = wk.size
    m = math.isqrt(size - 1) + 1
    b = -(-size // m)
    table = np.zeros(b * m, dtype=complex)
    table[:size] = wk
    fine = np.exp(np.outer(log_rho, 1j * dy * np.arange(m)))
    coarse = np.exp(np.outer(log_rho, 1j * dy * np.arange(0, b * m, m)))
    inner = np.einsum("pm,bm->pb", fine, table.reshape(b, m))
    return np.exp(log_rho * complex(sigma, y0)) * np.einsum("pb,pb->p", inner, coarse)


def _decay_rate(alpha: float) -> float:
    return 0.5 * math.pi * (2.0 / alpha - 1.0)


def _auto_y_max(alpha: float, n: int, sigma: float, log_rho: float, tol: float) -> float:
    """Truncation height: solve mu*y - P*log(y) = log(10 * C0 / (mu * tol))
    with P = (n-1)/2 and C0 the kernel amplitude measured at moderate height."""
    mu = _decay_rate(alpha)
    p_pow = 0.5 * (n - 1)
    y0 = 8.0
    log_c0 = float(sum(_log_kernel_terms(alpha, n, complex(sigma, y0))).real) \
        + sigma * log_rho + mu * y0 - p_pow * math.log(y0)
    target = log_c0 + math.log(10.0 / max(mu, 1e-3)) - math.log(tol)
    y = max(20.0, y0)
    for _ in range(60):
        y_new = (target + p_pow * math.log(y)) / mu
        if abs(y_new - y) < 0.01 * y:
            break
        y = max(20.0, y_new)
    return min(max(y, 20.0), 2.0e5)


def _mb_core(alpha: float, n: int, rho: np.ndarray,
             sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Line integral (1/(2 pi)) int K(sigma+iy) rho^(sigma+iy) dy at every
    entry of the 1-D array rho, as twice the real part of the sum over the
    nodes y >= 0 (Schwarz reflection); returns (integral, est_error), each real.
    """
    if rho.size == 0:
        return rho.copy(), rho.copy()
    with np.errstate(divide="ignore"):  # r/t underflowed to 0: checked below
        log_rho = np.log(rho)
    check_finite("log(r/t)", log_rho)
    # The height grows with rho^sigma, so the largest rho sets it for all.
    y_max = _auto_y_max(alpha, n, sigma, float(np.max(log_rho)), _STEP_TOL)

    # |K| decays like y^P exp(-mu y) with P = (n-1)/2, so past y_max the
    # line integral is at most |K(sigma + i y_max)| rho^sigma / (mu - P/y_max).
    tail_rate = max(_decay_rate(alpha) - 0.5 * (n - 1) / y_max, 1e-6)
    tail_mag = math.exp(sum(_log_kernel_terms(alpha, n, complex(sigma, y_max))).real) \
        * rho ** sigma / tail_rate
    if np.any(tail_mag > _STEP_TOL):
        raise NonConvergence(
            f"tail bound {np.max(tail_mag):.2e} at y_max={y_max:.1f} exceeds {_STEP_TOL:.0e} "
            f"(alpha={alpha}, n={n}): the kernel decays too slowly for the height cap"
        )

    def add_nodes(y: np.ndarray, w: np.ndarray, dy: float):
        """Line sum at the nodes y = y_0 + j dy with weights w, and two node
        sums that bound its rounding.  A term K rho^s is off by a few eps, plus
        eps times the size of each term of log K, plus the rounding of its
        phase (_phase_sum): in all eps |K| rho^sigma (8 + sum |log K terms|
        + (sigma + y) |L|).  The nodes go in blocks of up to _NODE_BLOCK,
        whose phase tables, P x 2 sqrt(block) entries for P points, hold
        about _BLOCK entries at most."""
        line = np.zeros(log_rho.size, dtype=complex)
        sizes = np.zeros(2)
        step = min(_NODE_BLOCK, max(1, (_BLOCK // (2 * log_rho.size)) ** 2))
        for i in range(0, y.size, step):
            yb = y[i:i + step]
            terms = _log_kernel_terms(alpha, n, sigma + 1j * yb)
            wk = w[i:i + step] * np.exp(sum(terms))
            mag = np.abs(wk)
            line += _phase_sum(log_rho, sigma, float(yb[0]), dy, wk)
            sizes += (np.sum(mag * (8.0 + sum(np.abs(x) for x in terms))),
                      np.sum(mag * (sigma + yb)))
        return line.real, sizes

    # Nodes j h on [0, m h].  A halving adds the odd multiples of h/2 only.
    # Past |log rho| h0 ~ pi the h0 and h0/2 sums share their dominant alias
    # and agree, however far both are off: h0 keeps |log rho| h0 <= 1.
    h = _H0 / max(1.0, _H0 * float(np.max(np.abs(log_rho))))
    m = math.ceil(y_max / h)
    y = h * np.arange(m + 1)
    w = np.ones(y.size)
    w[0] = 0.5
    total, sizes = add_nodes(y, w, h)
    prev = h * total
    for _ in range(_MAX_HALVINGS):
        y = h * (np.arange(m) + 0.5)
        part, part_sizes = add_nodes(y, np.ones(y.size), h)
        total += part
        sizes += part_sizes
        h *= 0.5
        m *= 2
        cur = h * total
        delta = np.abs(cur - prev)
        roundoff = _EPS * h * rho ** sigma * (sizes[0] + np.abs(log_rho) * sizes[1])
        if np.all(delta <= np.maximum(0.25 * _STEP_TOL, roundoff)):
            scale = 1.0 / math.pi
            return cur * scale, (delta + tail_mag + roundoff) * scale
        prev = cur
    raise NonConvergence(
        f"{_MAX_HALVINGS} step halvings did not reach {_STEP_TOL:.0e} or the rounding "
        f"bound (alpha={alpha}, n={n}, rho in [{np.min(rho):.3g}, {np.max(rho):.3g}])"
    )


def g_mellin_barnes(alpha: float, n: int, r, t, sigma: float | None = None) -> QuadResult:
    """Evaluate G_{alpha,n}(r, t) by numerical Mellin-Barnes contour integration.

    r and t are scalars or arrays that broadcast together, and all the points
    share one kernel table.  Scalar input gives float value and est_error;
    array input gives arrays of the broadcast shape.  The line Re s = sigma
    must lie in the pole-free strip (0, min(alpha, n)), else InvalidInput;
    sigma = None takes its middle.  The truncation height is derived from the
    kernel decay rate with a safety factor of 10 (_auto_y_max).  A tail bound
    above the step tolerance at the height cap, step halvings that do not
    converge, or a value that is not finite raise NonConvergence.  The order
    window is 1 <= alpha < 2 for every n: at alpha = 1 the strip is (0, 1),
    the kernel decays like exp(-pi |Im s|/2), and the value is the Poisson
    kernel P_n(r, t).  r = 0 is refused (InvalidInput) at every order: the
    route forms G as r^-n times a line integral that vanishes there;
    g_origin gives the value at the origin.
    """
    check_dimension(n)
    check_window(alpha, 1.0, 2.0)
    if sigma is None:
        sigma = min(alpha, float(n)) / 2.0
    check_window(sigma, 0.0, min(alpha, float(n)), lo_open=True, what="sigma")
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    check_positive("r", r)
    check_positive("t", t)
    with np.errstate(over="ignore"):  # r/t out of the double range: checked in _mb_core
        rho = (r / t).ravel()
    core, est = _mb_core(alpha, n, rho, sigma)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
        pref = 1.0 / (alpha * math.pi ** (0.5 * n) * r ** n)
        value = pref * core.reshape(r.shape)
        est = pref * est.reshape(r.shape) + 1e-16 * np.abs(value)
    check_finite("the contour value or its est_error", value, est)
    if value.ndim == 0:
        return QuadResult(float(value), float(est), 0)
    return QuadResult(value, est, 0)


def l_aux(alpha: float, n: int, rho: float) -> float:
    """Profile L_{alpha,n}(rho) = rho^n G_{alpha,n}(rho, 1), so G = r^(-n) L_{alpha,n}(r/t)."""
    check_scalar(rho=rho)
    from .closed_form import _power

    value = g_mellin_barnes(alpha, n, rho, 1.0).value * _power(rho, n)
    check_finite("L_{alpha,n}", value)
    return value
