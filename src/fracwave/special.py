"""Special-function kernel: Mittag-Leffler on the negative real axis.

The central object is ``ml_neg(alpha, x)`` = E_alpha(-x), the Mittag-Leffler
function evaluated on the negative axis, which carries all time dependence of
the fractional wave propagator in Fourier space.  Three regimes are used:

* ``series``        -- compensated Taylor sum, x <= 1, and for x <= 2 where
                       the intermediate regime misses tol;
* ``intermediate``  -- the exact decomposition into a pair of exponentially
                       damped oscillations (residues of the Laplace
                       inversion, present for 1 < alpha <= 2, and all of
                       E_2(-x) = cos(sqrt(x)) at alpha = 2, where the
                       other parts vanish) plus a
                       completely monotone branch-cut integral on a GK15
                       mesh of its weight that is built once per alpha and
                       cached (_branch_cut_mesh) and summed cell by cell
                       (_mesh_sums), both of which also serve
                       quadrature.g_spectral;
* ``asymptotic``    -- inverse-power expansion plus the same exponential
                       pair, summed from a cached per-alpha coefficient table
                       only until the omitted part is below 1e-3 tol: the
                       terms still short of the envelope minimum, each at
                       most the envelope at the first omitted term, plus
                       twice the envelope past the minimum.  Engaged only
                       once that truncation floor ~exp(-x^(1/alpha)) is
                       below tolerance.

Every regime takes a scalar or an array x, each element summed or cut on
its own, and one function, _ml_neg_parts, chooses them.  ml_neg evaluates
one x; _ml_neg_minus_pair serves the radial integral: a whole array of
nodes in ml_neg's regimes, with the damped pair taken out.

The orders are those of the fractional wave equation, 1 <= alpha <= 2.
Every path works in double precision and returns an error estimate, but for
the barely damped pair near alpha = 2, whose phase mpmath takes to 30 digits
after the point where its rounding would approach tol (_pair_30_digits).  A
tolerance that the regimes cannot meet raises NonConvergence: below 1e-13 for
some inputs, and below ~1e-15 (4 eps) for every 0 < x <= 1 at alpha < 2.

scipy.special takes ~0.2 s to import, so the package imports it only inside
the functions that call it, here and in quadrature and mellin_barnes: the
closed forms and the spectral route never load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NonConvergence, check_window

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


def _taylor_kahan(alpha: float, x):
    """Compensated Taylor summation of E_alpha(-x) at a scalar or an array
    x >= 0, every element stopping on its own.

    Returns (value, est_error) of x's shape; est_error includes the roundoff
    bound eps * max|term|, which is what invalidates this path for large x.
    An element whose next term would overflow, or that is still short of its
    stop after 10000 terms, gets est_error inf.
    """
    from scipy.special import gammaln

    x = np.asarray(x, dtype=float)
    value = np.empty(x.size)
    est = np.full(x.size, math.inf)
    live = np.arange(x.size)
    with np.errstate(divide="ignore"):  # log 0 = -inf: every later term is 0
        log_x = np.log(x.ravel())
    s = x.ravel() ** (1.0 / alpha)
    total, comp, max_term, term = (np.zeros(x.size), np.zeros(x.size),
                                   np.zeros(x.size), np.ones(x.size))
    lg_prev = 0.0  # log Gamma(1 + alpha*k) at k
    for k in range(1, 10001):
        if not live.size:
            break
        y = term - comp
        t_new = total + y
        comp = (t_new - total) - y
        total = t_new
        max_term = np.maximum(max_term, np.abs(term))
        lg_next = gammaln(1.0 + alpha * k)
        log_ratio = log_x + lg_prev - lg_next
        lg_prev = lg_next
        with np.errstate(over="ignore"):  # beyond _LOG_MAX: est inf below
            term = -term * np.exp(log_ratio)
        overflow = log_ratio > _LOG_MAX
        done = overflow | ((np.abs(term) < 1e-18 * (1.0 + np.abs(total))) & (alpha * k > s))
        if done.any():
            idx = live[done]
            value[idx] = total[done]
            est[idx] = np.where(overflow[done], math.inf, np.abs(term[done])
                                + 4.0 * _EPS * max_term[done] + _EPS * np.abs(total[done]))
            keep = ~done
            live, log_x, s = live[keep], log_x[keep], s[keep]
            total, comp, max_term, term = total[keep], comp[keep], max_term[keep], term[keep]
    value[live] = total + term  # not converged: est stays inf
    return value.reshape(x.shape)[()], est.reshape(x.shape)[()]


def _pair_angle(alpha: float) -> float:
    """d = pi (2 - alpha)/(2 alpha), the angle of the damped pair's poles
    e^(+-i pi/alpha) = -sin(d) +- i cos(d) past the imaginary axis, formed
    from the exact 2 - alpha: d is exactly 0 at alpha = 2, where pi/alpha
    would round and leave cos(pi/alpha) = 6e-17 of false damping."""
    return 0.5 * math.pi * (2.0 - alpha) / alpha


def _exp_pair_double(alpha: float, x, tol: float):
    """The damped pair of E_alpha(-x), 1 < alpha <= 2, the residues of the
    Laplace inversion at the poles e^(+-i pi/alpha):

        (2/alpha) e^(-s sin(d)) cos(s cos(d)),  s = x^(1/alpha), d = _pair_angle(alpha),

    at a scalar or an array x >= 0, in double precision.  At alpha = 2 it is
    E_2(-x) = cos(sqrt(x)) itself.  Returns the value, the error ml_neg's
    regimes charge for it and the mask of the elements to be taken at 30
    digits instead (_pair_30_digits, charged eps times the amplitude).

    The phase and damping carry an absolute rounding error of about
    s (4 + |ln x|/alpha) eps, which the amplitude scales.  Near alpha = 2,
    where the pair is barely damped while s grows, that error can approach
    tol, which no double-precision regime could then meet: the mask holds
    the elements where it passes 0.1 tol.
    """
    x = np.asarray(x, dtype=float)
    s = x ** (1.0 / alpha)
    d = _pair_angle(alpha)
    damp = -s * math.sin(d)
    amp = np.where(damp >= -745.0, (2.0 / alpha) * np.exp(damp), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0: s |ln x| -> 0
        err = amp * _EPS * np.where(x > 0.0, s * (4.0 + np.abs(np.log(x)) / alpha), 0.0)
    precise = err > 0.1 * tol
    return amp * np.cos(s * math.cos(d)), np.where(precise, _EPS * amp, err), precise


def _pair_30_digits(alpha: float, x, value, which):
    """value, the double-precision pair at x (_exp_pair_double), with the
    elements of the mask which evaluated by mpmath in a copy: at
    31 + log10(s) digits, 30 after the point of the phase s cos(d)
    (~0.1 ms each)."""
    if not which.any():
        return value
    import mpmath as mp

    x, value = np.asarray(x, dtype=float), np.array(value)
    for i in np.flatnonzero(which):
        xi = float(x.flat[i])
        with mp.workdps(31 + max(0, int(math.log10(xi) / alpha))):
            a = mp.mpf(alpha)
            s, d = mp.mpf(xi) ** (1 / a), mp.pi * (2 - a) / (2 * a)
            value.flat[i] = float(2 / a * mp.exp(-s * mp.sin(d)) * mp.cos(s * mp.cos(d)))
    return value


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


def _cos_sin_pi(alpha: float) -> tuple[float, float]:
    """(cos(pi alpha), sin(pi alpha)) for 1 <= alpha <= 2.  pi alpha rounds,
    which costs sin(pi alpha) its relative digits near alpha = 1 and 2; both
    are formed from the exact alpha - 1 or 2 - alpha instead, as
    -cos(pi (alpha - 1)) = cos(pi (2 - alpha)) and
    -sin(pi (alpha - 1)) = -sin(pi (2 - alpha))."""
    if alpha < 1.5:
        return -math.cos(math.pi * (alpha - 1.0)), -math.sin(math.pi * (alpha - 1.0))
    return math.cos(math.pi * (2.0 - alpha)), -math.sin(math.pi * (2.0 - alpha))


def _branch_cut_weight(alpha: float, r):
    """The weight of the branch-cut part of E_alpha(-x), the integral of
    w(r) e^{-r x^(1/alpha)} over r > 0 (_branch_cut_integral):

        w(r) = sin(pi alpha)/pi * r^(alpha-1) / ((r^alpha + cos(pi alpha))^2 + sin(pi alpha)^2).
    """
    c_pi, s_pi = _cos_sin_pi(alpha)
    return s_pi / math.pi * r ** (alpha - 1.0) / ((r ** alpha + c_pi) ** 2 + s_pi ** 2)


# Half-width of the spike zone of the branch-cut weight in
# v = r^alpha + cos(pi alpha), which is 0 at the spike.
_SPIKE_V_HI = 0.3


def _spike_zone(alpha: float, v_hi: float):
    """The spike zone of the branch-cut weight

        w(r) = sin(pi alpha)/pi * r^(alpha-1) / (v^2 + sin(pi alpha)^2),
        v = r^alpha + cos(pi alpha),

    over v in [max(cos(pi alpha), -v_hi), v_hi], in the variable phi of
    v = |sin(pi alpha)| tan(phi), in which w(r) dr is the constant
    sign(sin(pi alpha)) / (alpha pi) dphi.  Returns the breakpoints in phi,
    the map phi -> r and that constant.

    The substitution resolves the Lorentzian peak at v = 0 exactly, but for
    |sin(pi alpha)| << 1 the decades |sin(pi alpha)| < |v| < v_hi collapse
    into slivers next to the interval ends, so a geometric ladder of
    breakpoints is inserted.
    """
    c_pi, s_pi = _cos_sin_pi(alpha)
    s_abs = abs(s_pi)
    v_lo = max(c_pi, -v_hi)
    ladder = [v_hi]
    while ladder[-1] > 4.0 * s_abs and len(ladder) < 60:
        ladder.append(ladder[-1] * 0.25)
    v_points = sorted({v_lo, v_hi}
                      | {v for v in ladder if v_lo < v < v_hi}
                      | {-v for v in ladder if v_lo < -v < v_hi})

    def r_of(phi):
        return np.maximum(s_abs * np.tan(phi) - c_pi, 0.0) ** (1.0 / alpha)

    return ([math.atan2(v, s_abs) for v in v_points], r_of,
            math.copysign(1.0, s_pi) / (alpha * math.pi))


# The GK15 cells of the branch-cut mesh have ratio sqrt(2) on
# [2^_FINE_K_LO, 2^_FINE_K_HI] and ratio 2 outside it.
_FINE_K_LO, _FINE_K_HI = -4, 7


@functools.lru_cache(maxsize=16)
def _branch_cut_mesh(alpha: float, k_lo: int,
                     k_hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The GK15 mesh of the branch-cut weight w(r) (_branch_cut_weight) on
    [2^k_lo, 2^k_hi]: the nodes, w times the K15 weights and w times the
    K15 - G7 weights, one row of 15 per cell.  _branch_cut_integral and
    quadrature.g_spectral integrate w against their kernels on it
    (_mesh_sums), each with its own ends and tail bounds.  Built once per
    (alpha, k_lo, k_hi), lazily, and cached read-only.

    The edges are powers of 2, so the meshes of nested ends nest.  The cells
    are geometric, with ratio sqrt(2) on [2^-4, 2^7] and ratio 2 elsewhere:
    on ratio-2 cells |K15 - G7| measures G7's error rather than K15's, and
    it overstated the error up to ~1e4-fold there.  Where cos(pi alpha) < 0,
    w has a spike at r0 = (-cos(pi alpha))^(1/alpha) of width
    ~|sin(pi alpha)|; the zone |v| <= min(0.3, -cos(pi alpha)/2) around it
    is integrated in the tan-substituted variable of _spike_zone, in which
    w dr is constant.  Each of its intervals is split into equal cells no
    longer than half their distance to the poles of tan and to the branch
    point r = 0.  Outside the zone a ladder r0 -+ sqrt(2)^k (distance from
    r0 to the zone's end), from r0/3 to 4 r0, keeps the cells near the spike
    about as long as their distance to it, as the geometric cells are to
    r = 0.
    """
    c_pi, s_pi = _cos_sin_pi(alpha)
    rows = []
    edges = np.ldexp(1.0, np.arange(k_lo, k_hi + 1))
    fine = np.arange(max(k_lo, _FINE_K_LO), min(k_hi, _FINE_K_HI))
    edges = np.union1d(edges, math.sqrt(2.0) * np.ldexp(1.0, fine))
    parts = (edges,)
    if c_pi < 0.0:
        phis, r_of, spike_w = _spike_zone(alpha, min(_SPIKE_V_HI, -0.5 * c_pi))
        phi_zero = math.atan2(c_pi, abs(s_pi))  # r = 0
        cells = [np.linspace(a, b, 1 + math.ceil(2.0 * (b - a) / min(0.5 * math.pi - max(-a, b),
                                                                      a - phi_zero)))[:-1]
                 for a, b in zip(phis[:-1], phis[1:])]
        x, w, d = _gk15_cells(np.append(np.concatenate(cells), phis[-1]))
        rows.append((r_of(x), spike_w * w, spike_w * d))
        r_a, r_b = r_of(np.array([phis[0], phis[-1]]))
        r0 = (-c_pi) ** (1.0 / alpha)
        steps = 2.0 ** (0.5 * np.arange(1, 120))
        below, above = r0 - (r0 - r_a) * steps, r0 + (r_b - r0) * steps
        edges = np.union1d(edges, np.concatenate((below[below > r0 / 3.0],
                                                  above[above < 4.0 * r0])))
        parts = (np.append(edges[edges < r_a], r_a), np.insert(edges[edges > r_b], 0, r_b))
    for part in parts:
        x, w, d = _gk15_cells(part)
        with np.errstate(over="ignore"):  # (x^alpha + c)^2 = inf far out: w = 0 there
            wx = _branch_cut_weight(alpha, x)
        rows.append((x, w * wx, d * wx))
    nodes, w, d = (np.concatenate(col) for col in zip(*rows))
    for arr in (nodes, w, d):
        arr.flags.writeable = False
    return nodes, w, d


# Entries of one (points x mesh nodes) temporary of _mesh_sums.
_MESH_BLOCK = 1 << 16


def _mesh_sums(kernel, points: np.ndarray, mesh) -> tuple[np.ndarray, np.ndarray]:
    """The integral of w(r) kernel(p, r) on a _branch_cut_mesh at each of
    the points p, and its sum over the cells of |K15 - G7|.  kernel maps
    points of shape (points, 1, 1) and the (cells, 15) nodes to (points,
    cells, 15) values, at most _MESH_BLOCK at once.  Each cell's K15 and
    K15 - G7 sums are one contraction, and the cells are summed pairwise:
    for kernels >= 0 within 1.8 eps of the value against math.fsum, where
    one BLAS dot product over the ~1900 nodes near alpha = 1 reached 6.9 eps.
    """
    nodes, w, d = mesh
    value, cell_err = np.empty(points.size), np.empty(points.size)
    step = max(1, _MESH_BLOCK // nodes.size)
    for i in range(0, points.size, step):
        f = kernel(points[i:i + step, None, None], nodes)
        value[i:i + step] = np.einsum("pcj,cj->pc", f, w).sum(axis=1)
        cell_err[i:i + step] = np.abs(np.einsum("pcj,cj->pc", f, d)).sum(axis=1)
    return value, cell_err


# The upper end of the branch-cut integral's mesh, and the bound that sets
# its lower end (_branch_cut_integral).
_BRANCH_CUT_K_HI = 7
_BRANCH_CUT_LOWER_TAIL = 1e-16


def _branch_cut_integral(alpha: float, x):
    """Branch-cut part of E_alpha(-x), at a scalar or an array x > 0: the
    completely monotone Laplace integral

        sin(pi*alpha)/pi * int_0^inf e^{-r x^(1/alpha)} r^(alpha-1) / D(r) dr,
        D(r) = (r^alpha + cos(pi*alpha))^2 + sin(pi*alpha)^2,

    on the GK15 mesh of _branch_cut_mesh, which resolves the Poisson-kernel
    spike of 1/D at r0 = (-cos(pi*alpha))^(1/alpha), of width
    |sin(pi*alpha)|, in the variable of _spike_zone.

    The mesh depends on alpha only, so the x-dependence is the kernel
    exp(-r x^(1/alpha)) of _mesh_sums.  Its ends bound the two tails.
    Below r^alpha = 1/4, D >= 1/2, so the integral over [0, lo] is at most
    2 |sin(pi alpha)|/(pi alpha) lo^alpha, and lo is the largest power of 2
    that keeps this below _BRANCH_CUT_LOWER_TAIL, and at most 2^-4, where
    the sqrt(2) cells begin.  Above hi = 2^7, D >= r^(2 alpha)/2, so the
    integral over [hi, inf) is at most
    4 |sin(pi alpha)|/(pi alpha) hi^-alpha exp(-x^(1/alpha) hi), below
    exp(-64) from x = 1/2, where ml_neg's series regime overlaps.  Neither
    end depends on tol, so one mesh serves every tol.  The error estimate
    sums the per-cell |K15 - G7| at each x, the two tail bounds and the
    roundoff.
    """
    scale = 2.0 * abs(_cos_sin_pi(alpha)[1]) / (math.pi * alpha)
    # scale = 0 at alpha = 2, where w = 0 and any lower end serves
    k_lo = _FINE_K_LO if scale == 0.0 else min(
        _FINE_K_LO, math.floor(math.log2(_BRANCH_CUT_LOWER_TAIL / scale) / alpha))

    def decay(p, r):  # exp(-p r), in place
        e = -p * r
        return np.exp(e, out=e)

    x = np.asarray(x, dtype=float)
    tt = x.ravel() ** (1.0 / alpha)
    value, cell_err = _mesh_sums(decay, tt, _branch_cut_mesh(alpha, k_lo, _BRANCH_CUT_K_HI))
    hi = math.ldexp(1.0, _BRANCH_CUT_K_HI)
    tails = scale * (math.ldexp(1.0, k_lo) ** alpha + 2.0 * hi ** -alpha * np.exp(-tt * hi))
    # Every K15 weight carries the sign of sin(pi alpha), so |value| also
    # bounds the sum of the magnitudes.
    err = cell_err + tails + 4.0 * _EPS * np.abs(value)
    return value.reshape(x.shape)[()], err.reshape(x.shape)[()]


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
    envelope Gamma(alpha k) x^(-k) / pi.  Read-only float arrays, indexed by
    k for every x that has not yet reached its cut."""

    coef: np.ndarray
    log_gamma: np.ndarray


@functools.lru_cache(maxsize=16)
def _inverse_power_table(alpha: float) -> _InversePowerTable:
    """The inverse-power table of one alpha, built once, lazily, and cached."""
    from scipy.special import gammaln, rgamma

    ks = np.arange(1, _INV_POWER_MAX_TERMS + 2, dtype=float)
    coef = np.where(ks % 2 == 1, 1.0, -1.0) * rgamma(1.0 - alpha * ks)
    log_gamma = gammaln(alpha * ks)
    for arr in (coef, log_gamma):
        arr.flags.writeable = False
    return _InversePowerTable(coef, log_gamma)


def _envelope_minimum(alpha: float, x):
    """Where the inverse-power envelope is least, alpha k = x^(1/alpha), at
    most _INV_POWER_MAX_TERMS (also where x^(1/alpha) would overflow), at a
    scalar or an array x > 0."""
    with np.errstate(over="ignore"):  # x^(1/alpha) = inf: the cap
        k = np.floor(np.asarray(x, dtype=float) ** (1.0 / alpha) / alpha)
    return np.clip(k, 1, _INV_POWER_MAX_TERMS).astype(int)


def _envelope(log_gamma, k, log_x):
    """The envelope Gamma(alpha k) x^(-k) / pi at k, given log Gamma(alpha k)."""
    return np.exp(np.minimum(log_gamma - k * log_x - _LOG_PI, _LOG_MAX))


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
    exp(-171): left out.  _asymptotic_part sums the same table only as far
    as its tolerance needs.
    """
    table = _inverse_power_table(alpha)
    log_x = math.log(x)
    k_end = int(_envelope_minimum(alpha, x))
    ks = np.arange(1, k_end + 1, dtype=float)
    with np.errstate(under="ignore", invalid="ignore", over="ignore"):
        terms = table.coef[:k_end] * np.exp(-ks * log_x)
    finite = np.isfinite(terms)
    return (ks[finite], terms[finite], k_end,
            float(_envelope(table.log_gamma[k_end], k_end + 1, log_x)))


def _asymptotic_part(alpha: float, x, tol: float):
    """The inverse-power series of E_alpha(-x) at a scalar or an array
    x > 1, and its est_error: the omitted terms and the rounding of the
    first, ~1/x.  _ml_neg_parts adds the share of the pair and of the sum.

    The terms of _inverse_power_terms are summed, from the cached table, only
    until the omitted part is below 1e-3 tol, each x cut on its own.  After
    term K that part is at most (k_end - K) env(K + 1) + 2 env(k_end + 1):
    the envelope decreases on [1, k_end], so it bounds each omitted term by
    env(K + 1), and twice its value past the minimum bounds the optimal
    remainder.  Near the asymptotic cutoff the envelope ratio is close to 1,
    so the omitted terms are not a geometric tail.  If the bound stays above
    1e-3 tol, the sum runs to k_end and the bound is 2 env(k_end + 1).
    """
    table = _inverse_power_table(alpha)
    x = np.asarray(x, dtype=float)
    value, omitted = np.empty(x.size), np.empty(x.size)
    live = np.arange(x.size)
    log_x = np.log(x.ravel())
    k_end = _envelope_minimum(alpha, x.ravel())
    floor = 2.0 * _envelope(table.log_gamma[k_end], k_end + 1, log_x)
    goal = 1e-3 * tol
    total = np.zeros(x.size)
    k = 0
    while live.size:
        k += 1
        with np.errstate(under="ignore", invalid="ignore", over="ignore"):
            term = table.coef[k - 1] * np.exp(-k * log_x)
        total += np.where(np.isfinite(term), term, 0.0)
        bound = (k_end - k) * _envelope(table.log_gamma[k], k + 1, log_x) + floor
        done = (bound <= goal) | (k == k_end)
        if done.any():
            idx = live[done]
            value[idx], omitted[idx] = total[done], bound[done]
            keep = ~done
            live, log_x, k_end, floor, total = (live[keep], log_x[keep], k_end[keep],
                                                floor[keep], total[keep])
    value, omitted = value.reshape(x.shape), omitted.reshape(x.shape)
    return value[()], (omitted + 4.0 * _EPS * abs(table.coef[0]) / x)[()]


def _ml_neg_parts(alpha: float, x: np.ndarray, tol: float):
    """The regime of E_alpha(-x) at each element of an array of finite
    x >= 0, 1 <= alpha <= 2: the only code that chooses one, and that raises
    NonConvergence where none attains tol.  Returns, each of x's shape:
    * part: the Taylor sum where the series serves (x <= 1, and x <= 2 where
      the other regimes miss tol), else the inverse-power sum (from
      asymptotic_cutoff(alpha, tol) on, where it attains tol), else the
      branch-cut integral, these two without the damped pair;
    * est: the est_error of the Taylor sum, or of the part plus the pair,
      which adds the pair's error and 4 eps (|part| + |pair|);
    * series, asym: the masks of the Taylor and inverse-power sums;
    * pair, precise: the pair in double precision (_exp_pair_double), 0 at
      alpha = 1, and the mask of the elements to be taken at 30 digits
      instead.  A caller upgrades those elements (_pair_30_digits) only
      where it adds or subtracts the pair; the double-precision value and
      error decide the rest.
    At alpha = 1 every part is the exact exp(-x), with the regime of x's
    range: the pair's poles merge at -1 there.  At alpha = 2,
    sin(2 pi) = 0 and 1/Gamma(1 - 2k) = 0 leave no branch-cut integral
    and no inverse-power series, so outside the series the value is all
    pair, cos(sqrt(x)).
    """
    series, asym = x <= SERIES_CUTOFF, x >= asymptotic_cutoff(alpha, tol)
    pair, precise = np.zeros(x.shape), np.zeros(x.shape, dtype=bool)
    if alpha == 1.0:
        part = np.exp(-x)
        est = 4.0 * _EPS * (1.0 + part)
    else:
        pair, pair_err, precise = _exp_pair_double(alpha, x, tol)
        part, est = np.empty(x.shape), np.full(x.shape, math.inf)

        def add(mask, part_and_err):
            part[mask], err = part_and_err
            est[mask] = err + 4.0 * _EPS * (np.abs(part[mask]) + np.abs(pair[mask])) \
                + pair_err[mask]

        if asym.any():
            add(asym, _asymptotic_part(alpha, x[asym], tol))
            asym &= est <= tol
        mid = ~series & ~asym
        if mid.any():
            add(mid, _branch_cut_integral(alpha, x[mid]))
        tried = np.flatnonzero(series | ((est > tol) & (x <= 2.0 * SERIES_CUTOFF)))
        if tried.size:
            taylor, taylor_est = _taylor_kahan(alpha, x[tried])
            take = series[tried] | (taylor_est <= tol)
            idx = tried[take]
            part[idx], est[idx], series[idx] = taylor[take], taylor_est[take], True
            est[x == 0.0] = 0.0  # E_alpha(0) = 1 exactly
    if np.any(est > tol):
        raise NonConvergence(f"no regime attains tol={tol} for alpha={alpha}, "
                             f"x={x[est > tol].flat[0]}")
    return part, est, series, asym, pair, precise


def ml_neg(alpha: float, x: float, tol: float = DEFAULT_TOL) -> MLResult:
    """Evaluate E_alpha(-x) for x >= 0 and 1 <= alpha <= 2 to absolute error <= tol.

    E_alpha(-inf) = 0 for alpha < 2; at alpha = 2, E_2(-x) = cos(sqrt(x)) has
    no limit and x = inf raises InvalidInput, as do NaN, x < 0 and a tol that
    is not finite and positive.  Raises InvalidInput for alpha outside [1, 2]
    and NonConvergence if no regime can attain the requested tolerance.
    Every regime works in double precision: a tol below 1e-13 fails for some
    inputs, and below ~1e-15 (4 eps) for every 0 < x <= 1 at alpha < 2.
    Outside the series the pair is added to _ml_neg_parts's part (the part
    is 0 at alpha = 2, where the value is all pair).
    """
    check_window(alpha, 1.0, 2.0, hi_open=False, what="Mittag-Leffler order")
    if not (x >= 0.0 and 0.0 < tol < math.inf and (x < math.inf or alpha < 2.0)):
        raise InvalidInput(f"ml_neg requires x >= 0 (finite at alpha = 2: E_2(-x) = "
                           f"cos(sqrt(x)) has no limit) and finite tol > 0, got x={x}, tol={tol}")
    if x == 0.0:
        return MLResult(1.0, REGIME_SERIES, 0.0)
    if x == math.inf:
        return MLResult(0.0, REGIME_ASYMPTOTIC, 0.0)
    xs = np.array([x], dtype=float)
    part, est, series, asym, pair, precise = _ml_neg_parts(alpha, xs, tol)
    if series[0]:
        return MLResult(float(part[0]), REGIME_SERIES, float(est[0]))
    value = part[0] + _pair_30_digits(alpha, xs, pair, precise)[0]
    return MLResult(float(value), REGIME_ASYMPTOTIC if asym[0] else REGIME_INTERMEDIATE,
                    float(est[0]))


def _ml_neg_minus_pair(alpha: float, x: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """E_alpha(-x) minus its damped pair (_exp_pair_double) on an array of finite
    x >= 0 for 1 <= alpha < 2, each element in the regime that
    ml_neg(alpha, x, tol) chooses for it (_ml_neg_parts), and a bound on its
    rounding.

    It is the part minus subtract: the Taylor sum minus the pair on the
    series elements, and the branch-cut integral or the inverse-power sum
    itself elsewhere, where the pair is neither added nor subtracted, so it
    is never evaluated at 30 digits there.  The rounding bound is that of
    the subtraction, 4 eps (|part| + |subtract|).  Raises NonConvergence
    where ml_neg would.
    """
    x = np.asarray(x, dtype=float)
    part, _, series, _, pair, precise = _ml_neg_parts(alpha, x, tol)
    subtract = np.where(series, _pair_30_digits(alpha, x, pair, precise & series), 0.0)
    return part - subtract, 4.0 * _EPS * (np.abs(part) + np.abs(subtract))
