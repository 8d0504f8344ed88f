"""Derived wave quantities: extremum locations, phase and gravity-center
velocities, moments of the 1D and 3D fundamental solutions, and the 3D sign
structure.

Key closed forms:

* zero crossing  z_alpha = ((-cos(pi a/2) + sqrt(a^2 - sin^2(pi a/2)))/(a+1))^(1/a),
  the sign change of the 3D solution and the unique maximum of the 1D one;
* 1D moments     int_0^inf G_{a,1} r^b dr = t^b sin(pi b/2)/(a sin(pi b/a)),
  finite for |b| < a (contract window -1 < b < a);
* 3D "moments"   I_{a,b}(t) = t^(b-2)(b-1)/(2 a pi) * sin(pi b/2)/sin(pi(2-b)/a),
  finite for 2-a < b < 2+a (plain integrals; the 3D solution is signed).

The 3D maximum location at t = 1 solves d/dw log G_{a,3}(w, 1) = 0, a quartic
in q = w^a whose one real root right of z_alpha^a is taken; it is then scaled
by t (legitimate because all time dependence enters through r/t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polymul, polyroots
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as _quad

from .closed_form import g1, g3
from .errors import InvalidOrder, MomentOutOfRange, UnsupportedDimension

KIND_MAXIMUM = "maximum"
KIND_MINIMUM = "minimum"
KIND_ZERO_CROSSING = "zero_crossing"


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
    if not (1.0 <= alpha <= 2.0):
        raise InvalidOrder(f"zero_crossing_z requires 1 <= alpha <= 2, got {alpha}")
    c = math.cos(math.pi * alpha / 2.0)
    s = math.sin(math.pi * alpha / 2.0)
    num = -c + math.sqrt(max(alpha * alpha - s * s, 0.0))
    num = max(num, 0.0)  # roundoff guard at alpha = 1 where num = 0
    return (num / (alpha + 1.0)) ** (1.0 / alpha)


def max_location(alpha: float, n: int, t: float) -> ExtremumReport:
    """Location and value of the unique maximum of G_{alpha,n}(., t), n in {1, 3}.

    The location is c(alpha, n) * t: z_alpha * t for n = 1; for n = 3, c is
    the root right of z_alpha of d/dw log G_{alpha,3}(w, 1) = 0, a quartic in
    w^alpha.  n = 2 is refused: that profile has multiple extrema.
    """
    if n == 2:
        raise UnsupportedDimension("the 2D solution has multiple local extrema")
    if n not in (1, 3):
        raise UnsupportedDimension(f"dimension must be 1 or 3, got {n}")
    if not (1.0 < alpha < 2.0):
        raise InvalidOrder(
            f"max_location requires 1 < alpha < 2 (the maximum degenerates to the "
            f"origin at alpha = 1), got {alpha}"
        )
    if not (t > 0.0):
        raise ValueError("t must be positive")
    z = zero_crossing_z(alpha)
    if n == 1:
        loc = z * t
        return ExtremumReport(loc, float(g1(alpha, loc, t)), KIND_MAXIMUM)
    # G3(w, 1) ~ w^(alpha-3) m(q) / p(q)^2 with p = D, m = M of closed_form;
    # w d/dw log G3 = 0 reads (alpha-3) m p + (w m') p - 2 (w p') m = 0, and
    # w d/dw q^k = alpha k q^k keeps every factor a quadratic in q.
    c = math.cos(math.pi * alpha / 2.0)
    p = np.array([1.0, 2.0 * c, 1.0])
    m = np.array([1.0 - alpha, 2.0 * c, alpha + 1.0])
    wp = 2.0 * alpha * np.array([0.0, c, 1.0])
    wm = 2.0 * alpha * np.array([0.0, c, alpha + 1.0])
    roots = polyroots(polymul((alpha - 3.0) * m + wm, p) - 2.0 * polymul(wp, m))
    q = roots.real[(roots.imag == 0.0) & (roots.real > z ** alpha)].min()
    loc = q ** (1.0 / alpha) * t
    return ExtremumReport(loc, float(g3(alpha, loc, t)), KIND_MAXIMUM)


def phase_velocity(alpha: float, n: int) -> float:
    """Propagation velocity of the maximum location; constant in time.

    n = 1: equals z_alpha (0 at alpha = 1).  n = 3: c(alpha, 3), the maximum
    location at t = 1.
    """
    if n == 2:
        raise UnsupportedDimension("no single phase velocity for the 2D solution")
    if n not in (1, 3):
        raise UnsupportedDimension(f"dimension must be 1 or 3, got {n}")
    if n == 1:
        if not (1.0 <= alpha < 2.0):
            raise InvalidOrder(f"order must lie in [1, 2), got {alpha}")
        return zero_crossing_z(alpha)
    return max_location(alpha, 3, 1.0).location


def velocity_curve(n: int, alphas, which: str = "phase") -> list[tuple[float, float]]:
    """Velocity samples (alpha, v) over strictly increasing alphas in [1, 2)."""
    alphas = [float(a) for a in alphas]
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    if which == "phase":
        return [(a, phase_velocity(a, n)) for a in alphas]
    if which == "gravity":
        if n != 1:
            raise UnsupportedDimension("gravity-center velocity is a 1D quantity")
        return [(a, gravity_center_velocity(a)) for a in alphas]
    raise ValueError(f"unknown velocity kind {which!r}")


def moment_1d(alpha: float, beta: float, t: float) -> float:
    """Half-line moment int_0^inf G_{alpha,1}(r,t) r^beta dr for -1 < beta < alpha.

    beta = 0 returns the half-line mass 1/2 (the solution is an even unit-mass
    density); other removable points do not occur inside the window.
    """
    if not (1.0 <= alpha < 2.0):
        raise InvalidOrder(f"order must lie in [1, 2), got {alpha}")
    if not (t > 0.0):
        raise ValueError("t must be positive")
    if not (-1.0 < beta < alpha):
        raise MomentOutOfRange(
            f"1D moment of order {beta} is outside the window (-1, {alpha})"
        )
    if beta == 0.0:
        return 0.5
    return t ** beta * math.sin(math.pi * beta / 2.0) / (alpha * math.sin(math.pi * beta / alpha))


def moment_3d(alpha: float, beta: float, t: float) -> float:
    """Signed radial integral I_{alpha,beta}(t) = int_0^inf r^beta G_{alpha,3} dr
    for 2 - alpha < beta < 2 + alpha.

    Exact particular cases: I_{alpha,1} = 0, I_{alpha,2} = 1/(4 pi), and
    I_{alpha,3}(t) = t/(alpha pi sin(pi/alpha)); beta = 2 is the removable
    0/0 point of the general formula and is handled by its limit.
    """
    if not (1.0 < alpha < 2.0):
        raise InvalidOrder(f"order must lie in (1, 2), got {alpha}")
    if not (t > 0.0):
        raise ValueError("t must be positive")
    if not (2.0 - alpha < beta < 2.0 + alpha):
        raise MomentOutOfRange(
            f"3D moment of order {beta} is outside the window "
            f"({2.0 - alpha}, {2.0 + alpha})"
        )
    if beta == 2.0:
        return 1.0 / (4.0 * math.pi)
    return (t ** (beta - 2.0) * (beta - 1.0) / (2.0 * alpha * math.pi)
            * math.sin(math.pi * beta / 2.0)
            / math.sin(math.pi * (2.0 - beta) / alpha))


def moment_numeric(alpha: float, n: int, beta: float, t: float,
                   r_max_factor: float = 1e6) -> float:
    """Independent numerical moment: quadrature of the closed form on a log
    grid truncated at R = r_max_factor * t, plus the analytic power-law tail
    (integrand ~ r^(beta - alpha - n) for large r)."""
    if n not in (1, 3):
        raise UnsupportedDimension(f"numerical moments support n in {{1, 3}}, got {n}")
    fn = g1 if n == 1 else g3
    r_hi = r_max_factor * t

    def integrand_r(r):
        return float(fn(alpha, r, t)) * r ** beta

    def integrand_log(u):
        r = math.exp(u)
        return float(fn(alpha, r, t)) * r ** (beta + 1.0)  # extra r from du

    # Near field in r (resolves the signed region around the zero crossing
    # exactly; QUADPACK handles the integrable endpoint singularity at 0),
    # far field in log r (pure power decay), then the analytic tail.
    r_star = zero_crossing_z(alpha) * t
    r_mid = 100.0 * max(t, r_star)
    pts = [r_star * f for f in (0.25, 1.0, 4.0)]
    with warnings.catch_warnings():
        # the endpoint singularity r^(beta+alpha-n) trips QUADPACK's
        # slow-convergence heuristic; the dual-route tests bound the error
        warnings.simplefilter("ignore", IntegrationWarning)
        near, _ = _quad(integrand_r, 0.0, r_mid, limit=800,
                        epsabs=1e-13, epsrel=1e-11, points=pts)
        far, _ = _quad(integrand_log, math.log(r_mid), math.log(r_hi),
                       limit=400, epsabs=1e-14, epsrel=1e-11)
    val = near + far
    # Tail from the large-r asymptotics of the closed forms.
    s = math.sin(math.pi * alpha / 2.0)
    if n == 1:
        c_tail = s / math.pi * t ** alpha
        expo = beta - alpha
    else:
        c_tail = s * (alpha + 1.0) / (2.0 * math.pi ** 2) * t ** alpha
        expo = beta - alpha - 2.0
    tail = -c_tail * r_hi ** expo / expo  # expo < 0 inside the moment window
    return val + tail


def gravity_center_velocity(alpha: float) -> float:
    """Velocity 2/(alpha sin(pi/alpha)) of the half-line gravity center
    moment_1d(alpha,1,t)/moment_1d(alpha,0,t); diverges as alpha -> 1."""
    if not (1.0 < alpha < 2.0):
        raise InvalidOrder(
            f"gravity-center velocity requires 1 < alpha < 2 (the mean does not "
            f"exist at alpha = 1), got {alpha}"
        )
    return 2.0 / (alpha * math.sin(math.pi / alpha))


def sign_profile_3d(alpha: float, t: float, r_grid, zero_tol: float = 1e-9) -> list[int]:
    """Sign of G_{alpha,3}(r, t) at each grid point (-1, 0, +1), checked for
    consistency against the zero-crossing threshold z_alpha * t."""
    if not (1.0 < alpha < 2.0):
        raise InvalidOrder(f"order must lie in (1, 2), got {alpha}")
    if not (t > 0.0):
        raise ValueError("t must be positive")
    r = np.atleast_1d(r_grid).astype(float)
    v = g3(alpha, r, t)
    d = r - zero_crossing_z(alpha) * t
    sign = np.where(np.abs(v) <= zero_tol, 0, np.where(v > 0.0, 1, -1))
    expected = np.where(np.abs(d) <= zero_tol, 0, np.where(d > 0.0, 1, -1))
    bad = np.flatnonzero((sign != 0) & (expected != 0) & (sign != expected))
    if bad.size:
        i = bad[0]
        raise RuntimeError(
            f"sign structure violated at r={r[i]}: got {sign[i]}, expected {expected[i]}"
        )
    return sign.tolist()
