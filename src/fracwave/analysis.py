"""Derived wave quantities: extremum locations, phase and gravity-center
velocities, radial moments of the 1D, 2D and 3D fundamental solutions, and
the 3D sign structure.

Key closed forms:

* zero crossing  z_alpha = ((-cos(pi a/2) + sqrt(a^2 - sin^2(pi a/2)))/(a+1))^(1/a),
  the sign change of the 3D solution and the unique maximum of the 1D one;
* moments        int_0^inf G_{a,n}(r, t) r^b dr = t^(b+1-n) K_n(n - 1 - b) / (a pi^(n/2)),
  the radial Mellin transform, with K_n the contour kernel of mellin_barnes at
  a real point; finite for -1 < b < a at n = 1, n - 1 - a < b < n - 1 + a at n = 2, 3.

The 3D maximum location at t = 1 solves d/dw log G_{a,3}(w, 1) = 0, a quartic
in q = w^a whose one real root right of z_alpha^a is taken (within ~1e-8 of
a = 2 a double root, which rounding may split into a close conjugate pair); it
is then scaled by t (legitimate because all time dependence enters through r/t).
The quartics of all orders are solved together: one eigenvalue call on the
stack of their companion matrices, for a whole velocity curve as for one
max_location.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed_form import _power, g1, g3, order_trig
from .errors import (InvalidInput, NonConvergence, check_dimension, check_finite, check_positive,
                     check_scalar, check_window)
from .mellin_barnes import _real_kernel, _real_numerator
from .quadrature import g_spectral

KIND_MAXIMUM = "maximum"
_ZERO_TOL = 1e-9  # |G3| t^3 and |r/t - z_alpha| at or below this count as sign 0


@dataclass(frozen=True)
class ExtremumReport:
    location: float
    value: float
    kind: str


def zero_crossing_z(alpha: float) -> float:
    """Scaled radius z_alpha of the 3D sign change; also the 1D maximum location.

    Rises monotonically from 0 at alpha = 1 to 1 at alpha = 2 (alpha = 2 is
    admitted for this limit check only).
    """
    check_window(alpha, 1.0, 2.0, hi_open=False)
    c = order_trig(alpha)[0]
    # alpha^2 - s^2 = (alpha-1)(alpha+1) + c^2 and -c >= 0: nothing cancels
    root = math.sqrt((alpha - 1.0) * (alpha + 1.0) + c * c)
    return ((root - c) / (alpha + 1.0)) ** (1.0 / alpha)


def _quadratic_products(x, y):
    """Coefficients (low to high) of the products of the quadratics in the
    last axes of x and y, (..., 3) each."""
    out = np.zeros(x.shape[:-1] + (5,))
    for i in range(3):
        out[..., i:i + 3] += x[..., i:i + 1] * y
    return out


def _max_location_3d(alphas) -> np.ndarray:
    """The 3D maximum location c(alpha) at t = 1 for each order in alphas:
    the root right of z_alpha of d/dw log G_{alpha,3}(w, 1) = 0, a quartic in
    q = w^alpha.  All quartics are solved by one eigenvalue call on the stack
    of their companion matrices.  At the first offending order, in the order
    given, raises InvalidInput outside (1, 2) or NonConvergence where c^alpha
    and z_alpha^alpha are one double (alpha within ~1e-8 of 2)."""
    orders = np.asarray(alphas, dtype=float)
    valid = (orders > 1.0) & (orders < 2.0)
    k = orders.size if valid.all() else int(np.argmin(valid))  # the first invalid order
    a = orders[:k, None]
    # c and z_alpha^alpha as in order_trig and zero_crossing_z
    c = -np.sin(0.5 * math.pi * (a - 1.0))
    z_pow = (np.sqrt((a - 1.0) * (a + 1.0) + c * c) - c) / (a + 1.0)
    # G3(w, 1) ~ w^(alpha-3) m(q) / p(q)^2 with p = D, m = M of closed_form;
    # w d/dw log G3 = 0 reads (alpha-3) m p + (w m') p - 2 (w p') m = 0, and
    # w d/dw q^k = alpha k q^k keeps every factor a quadratic in q.
    one, zero = np.ones_like(a), np.zeros_like(a)
    p = np.hstack([one, 2.0 * c, one])
    m = np.hstack([1.0 - a, 2.0 * c, a + 1.0])
    wp = 2.0 * a * np.hstack([zero, c, one])
    wm = 2.0 * a * np.hstack([zero, c, a + 1.0])
    quartic = _quadratic_products((a - 3.0) * m + wm, p) - 2.0 * _quadratic_products(wp, m)
    companion = np.zeros((k, 4, 4))  # numpy.polynomial's polycompanion, stacked
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    companion[:, :, 3] = -quartic[:, :4] / quartic[:, 4:]
    roots = np.linalg.eigvals(companion)
    # Within ~1e-8 of alpha = 2 the two roots near q = 1 merge, and rounding
    # splits the double root into a pair with |Im| ~ sqrt(eps): take its real part.
    real = np.abs(roots.imag) <= 4.0 * math.sqrt(np.finfo(float).eps) * np.abs(roots)
    q = np.where(real & (roots.real > z_pow), roots.real, math.inf).min(axis=1)
    unresolved = np.flatnonzero(q == math.inf)
    if unresolved.size:
        raise NonConvergence(f"the 3D maximum at alpha={float(a[unresolved[0], 0])} is not "
                             "resolved from the zero crossing in double precision")
    if k < orders.size:
        check_window(float(orders[k]), 1.0, 2.0, lo_open=True)
    return q ** (1.0 / a[:, 0])


def max_location(alpha: float, n: int, t: float) -> ExtremumReport:
    """Location and value of the unique maximum of G_{alpha,n}(., t), n in {1, 3}.

    The location is c(alpha, n) * t: z_alpha * t for n = 1; for n = 3, c is
    the root right of z_alpha of d/dw log G_{alpha,3}(w, 1) = 0, a quartic in
    w^alpha (_max_location_3d).  n = 2 is refused: that profile has multiple
    extrema.  The order window is 1 < alpha < 2: at alpha = 1, G is the
    Poisson kernel, whose maximum sits at the origin.  Raises NonConvergence
    where c^alpha and z_alpha^alpha are one double (alpha within ~1e-8 of 2).
    """
    if n == 2:
        raise InvalidInput("the 2D solution has multiple local extrema")
    check_dimension(n, (1, 3))
    check_window(alpha, 1.0, 2.0, lo_open=True)
    check_scalar(t=t)
    check_positive("t", t)
    if n == 1:
        loc = zero_crossing_z(alpha) * t
        return ExtremumReport(loc, float(g1(alpha, loc, t)), KIND_MAXIMUM)
    loc = float(_max_location_3d([alpha])[0]) * t
    return ExtremumReport(loc, float(g3(alpha, loc, t)), KIND_MAXIMUM)


def phase_velocity(alpha: float, n: int) -> float:
    """Propagation velocity of the maximum location; constant in time.

    n = 1: equals z_alpha (0 at alpha = 1).  n = 3: c(alpha, 3), the maximum
    location at t = 1, for 1 < alpha < 2: at alpha = 1 the maximum of the
    Poisson kernel P_3 sits at the origin.
    """
    if n == 2:
        raise InvalidInput("no single phase velocity for the 2D solution")
    check_dimension(n, (1, 3))
    if n == 1:
        check_window(alpha, 1.0, 2.0)
        return zero_crossing_z(alpha)
    return float(_max_location_3d([alpha])[0])


def velocity_curve(n: int, alphas, which: str = "phase") -> list[tuple[float, float]]:
    """Velocity samples (alpha, v) over strictly increasing alphas in [1, 2).

    The 3D phase velocities come from one stacked eigenvalue solve for all
    orders (_max_location_3d); an order it cannot serve raises as
    phase_velocity would, at the first such order.
    """
    alphas = [float(a) for a in alphas]
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise InvalidInput("alphas must be strictly increasing")
    if which == "phase":
        if n == 3:
            return list(zip(alphas, _max_location_3d(alphas).tolist()))
        return [(a, phase_velocity(a, n)) for a in alphas]
    if which == "gravity":
        if n != 1:
            raise InvalidInput("gravity-center velocity is a 1D quantity")
        return [(a, gravity_center_velocity(a)) for a in alphas]
    raise InvalidInput(f"unknown velocity kind {which!r}")


def moment(alpha: float, n: int, beta: float, t: float) -> float:
    """Radial moment int_0^inf G_{alpha,n}(r, t) r^beta dr = t^(beta+1-n)
    K_n(n - 1 - beta) / (alpha pi^(n/2)), n in {1, 2, 3}, for -1 < beta < alpha
    at n = 1 and n - 1 - alpha < beta < n - 1 + alpha (alpha > 1) at n = 2, 3;
    plain integrals, signed for n >= 2.  The removable point beta = n - 1 gives
    Gamma(n/2)/(2 pi^(n/2)): 1/2, 1/(2 pi) and 1/(4 pi), the unit mass.

    alpha = 1 stays refused at n = 2, 3: there the origin term r^(alpha - n),
    whose coefficient has the factor cos(pi alpha/2), vanishes, so the window
    is wider (-1 < beta < n), and on it the poles of K_n's 1/sin(pi s) meet
    zeros of its numerator at integer s, which _real_kernel's pole test would
    report as poles."""
    check_dimension(n)
    check_window(alpha, 1.0, 2.0, lo_open=n > 1, what=f"order for n = {n}")
    check_scalar(t=t)
    check_positive("t", t)
    check_window(beta, -1.0 if n == 1 else n - 1.0 - alpha, n - 1.0 + alpha, lo_open=True,
                 what=f"{n}D moment order")
    value = _power(t, beta - (n - 1.0)) * _real_kernel(alpha, n, -beta, n - 1) \
        / (alpha * math.pi ** (0.5 * n))
    check_finite(f"the {n}D moment", value)
    return value


_MOMENT_R_MAX = 1e6  # moment_numeric's quadrature stops at r/t = _MOMENT_R_MAX
# moment_numeric takes int_0^r0 from this many terms of the origin series, at
# r0 = _MOMENT_R_HEAD z_alpha: the first term left out is ~r0^(7 alpha) of the first
_MOMENT_HEAD_TERMS = 6
_MOMENT_R_HEAD = 1e-3


def moment_numeric(alpha: float, n: int, beta: float, t: float) -> float:
    """Independent numerical moment, for the orders and times of moment:
    quadrature of G_{alpha,n}(r, 1) (g_spectral for n = 2) from r0 to
    R = _MOMENT_R_MAX, plus the analytic head below r0 and the analytic
    power-law tail above R, scaled by t^(beta + 1 - n):
    G_{alpha,n}(r, t) = t^(-n) G_{alpha,n}(r/t, 1).

    The head integrates the origin series G_{alpha,n}(r, 1) =
    sum_k a_k r^(alpha k - n), a_k = (-1)^(k+1) N_n(alpha k) / pi^(n/2 + 1),
    N_n K's numerator: the residues of the contour kernel K_n at its poles
    s = alpha k, as the tail is its residue at s = -alpha.  Near the lower
    window end, where r^(beta + alpha - n) is barely integrable, the head
    carries the integral that quadrature toward r = 0 could not reach."""
    # Imported here, its only use: it would add ~0.2 s to every CLI start.
    from scipy.integrate import IntegrationWarning, quad

    moment(alpha, n, beta, t)  # raises outside its windows

    def g(r):  # G_{alpha,n}(r, 1)
        return float(g1(alpha, r, 1.0) if n == 1 else g3(alpha, r, 1.0) if n == 3
                     else g_spectral(alpha, 2, r, 1.0).value)

    # Near field in r (resolves the signed region around the zero crossing
    # exactly), far field in log r (pure power decay), then the analytic tail.
    r_star = zero_crossing_z(alpha)
    r_head = _MOMENT_R_HEAD * min(1.0, r_star)  # 0 at alpha = 1: no head
    r_mid = 100.0 * max(1.0, r_star)
    pts = [r_star * f for f in (0.25, 1.0, 4.0)]
    head = 0.0
    for k in range(1, _MOMENT_HEAD_TERMS + 1):
        expo = alpha * k - (n - 1.0) + beta  # > 0 inside the moment window
        head += ((-1) ** (k + 1) * _real_numerator(n, alpha * k) / math.pi ** (0.5 * n + 1.0)
                 * r_head ** expo / expo)
    with warnings.catch_warnings():
        # the endpoint singularity r^(beta+alpha-n) trips QUADPACK's
        # slow-convergence heuristic; the dual-route tests bound the error
        warnings.simplefilter("ignore", IntegrationWarning)
        near, _ = quad(lambda r: g(r) * r ** beta, r_head, r_mid, limit=800,
                       epsabs=1e-13, epsrel=1e-11, points=pts)
        far, _ = quad(lambda u: g(math.exp(u)) * math.exp(u) ** (beta + 1.0), math.log(r_mid),
                      math.log(_MOMENT_R_MAX), limit=400, epsabs=1e-14, epsrel=1e-11)
    # G_{alpha,n}(r, 1) ~ c r^(-n-alpha) at large r: the residue of K_n at s = -alpha
    c_tail = order_trig(alpha)[1] * math.gamma(0.5 * (n + alpha)) \
        / (math.pi ** (0.5 * (n + 1)) * math.gamma(0.5 * (1.0 + alpha)))
    expo = beta - alpha - (n - 1.0)
    tail = -c_tail * _MOMENT_R_MAX ** expo / expo  # expo < 0 inside the moment window
    value = (head + near + far + tail) * _power(t, beta - (n - 1.0))
    check_finite("the numerical moment", value)
    return value


def gravity_center_velocity(alpha: float) -> float:
    """Velocity 2/(alpha sin(pi/alpha)) of the half-line gravity center
    moment(alpha, 1, 1, t)/moment(alpha, 1, 0, t); diverges as alpha -> 1,
    so alpha = 1, where the Cauchy kernel has no half-line mean, is refused."""
    check_window(alpha, 1.0, 2.0, lo_open=True)
    return 2.0 / (alpha * math.sin(math.pi / alpha))


def sign_profile_3d(alpha: float, t: float, r_grid) -> list[int]:
    """Sign of G_{alpha,3}(r, t) at each grid point (-1, 0, +1), checked for
    consistency against the zero-crossing threshold z_alpha * t.

    Both tests are made in the scaled variables, on t^3 G_{alpha,3}(r, t) =
    G_{alpha,3}(r/t, 1) and r/t - z_alpha, so the signs do not depend on t.
    The order window is 1 < alpha < 2: at alpha = 1, z_alpha = 0, and the
    Poisson kernel P_3 is positive everywhere, with its maximum at the origin.
    """
    check_window(alpha, 1.0, 2.0, lo_open=True)
    check_scalar(t=t)
    check_positive("t", t)
    r = np.atleast_1d(r_grid).astype(float)
    check_positive("r", r, zero_ok=True)
    with np.errstate(over="ignore", divide="ignore"):  # r/t out of the double range
        rho = r / t
        check_finite("log(r/t)", np.log(rho[r > 0.0]))
    v = g3(alpha, rho, 1.0)
    d = rho - zero_crossing_z(alpha)
    sign = np.where(np.abs(v) <= _ZERO_TOL, 0, np.where(v > 0.0, 1, -1))
    expected = np.where(np.abs(d) <= _ZERO_TOL, 0, np.where(d > 0.0, 1, -1))
    bad = np.flatnonzero((sign != 0) & (expected != 0) & (sign != expected))
    if bad.size:
        i = bad[0]
        raise NonConvergence(
            f"sign structure violated at r={r[i]}: got {sign[i]}, expected {expected[i]}"
        )
    return sign.tolist()
