"""Special-function kernel: Mittag-Leffler on the negative real axis.

ml_neg(alpha, x) = E_alpha(-x), 1 <= alpha <= 2, carries all time dependence
of the fractional wave propagator in Fourier space.  It works to one fixed
target, an absolute est_error of at most _TOL = 1e-13, in three regimes,
each on a scalar or an array x, which one function, _ml_neg_parts, chooses
by x alone:

* ``series``        -- compensated Taylor sum of a fixed _TAYLOR_TERMS terms,
                       x <= 1;
* ``intermediate``  -- the damped pair of oscillations (the residues of the
                       Laplace inversion, 1 < alpha <= 2; all of
                       E_2(-x) = cos(sqrt(x))) plus the completely monotone
                       branch-cut integral, on a GK15 mesh of its weight
                       built once per alpha (_branch_cut_mesh) and summed
                       cell by cell (_mesh_sums), both shared by
                       quadrature.g_spectral;
* ``asymptotic``    -- the inverse-power expansion plus the same pair, to a
                       fixed K = floor(log(20/_TOL)/alpha) terms (16 to 32)
                       from a cached per-alpha table (_asymptotic_part);
                       from asymptotic_cutoff(alpha) on, where its floor
                       ~exp(-x^(1/alpha)) is below _TOL.

ml_neg evaluates one x; _ml_neg_minus_pair serves the radial integral, on
whole arrays of nodes, with the damped pair taken out.  Every path works in
double precision, but for the barely damped pair near alpha = 2, whose phase
mpmath takes to 30 digits where its rounding would approach _TOL
(_pair_30_digits).  An est_error above _TOL raises NonConvergence, a check
on the result that no x of a sweep over [1e-6, 1e300] reaches at 39 orders
from 1 to 2, 1 + 1e-15 and 2 - 1e-15 among them.

scipy.special takes ~0.2 s to import, so the package imports it only inside
the functions that call it, here and in quadrature and mellin_barnes: the
closed forms and the spectral route never load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NonConvergence, check_scalar, check_window

# The one target of every regime: an absolute est_error of at most _TOL.
_TOL = 1e-13

# Regime boundaries: series up to SERIES_CUTOFF; asymptotic from
# asymptotic_cutoff(alpha) = _LOG_CUT^alpha on.
SERIES_CUTOFF = 1.0
_LOG_CUT = math.log(20.0) - math.log(_TOL)

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


def asymptotic_cutoff(alpha: float) -> float:
    """Smallest x from which the optimally truncated inverse-power expansion
    (with the exponential pair included) reaches _TOL.

    The truncation floor decays like exp(-x^(1/alpha)), so the cutoff is
    log(20/_TOL)^alpha, 32.9^alpha.
    """
    return _LOG_CUT ** alpha


# Terms k = 0 .. _TAYLOR_TERMS - 1 of the Taylor sum.  At x <= 1 the first
# term left out is at most 1 / Gamma(43) ~ 7e-52.
_TAYLOR_TERMS = 42


@functools.lru_cache(maxsize=16)
def _taylor_log_gamma(alpha: float) -> np.ndarray:
    """log Gamma(1 + alpha k), k = 0 .. _TAYLOR_TERMS, cached read-only per alpha."""
    from scipy.special import gammaln

    table = gammaln(1.0 + alpha * np.arange(_TAYLOR_TERMS + 1))
    table.flags.writeable = False
    return table


def _taylor_kahan(alpha: float, x):
    """Compensated Taylor sum of E_alpha(-x), the terms
    (-x)^k / Gamma(1 + alpha k) for k < _TAYLOR_TERMS, at a scalar or an array
    0 <= x <= 1.  Returns (value, est_error) of x's shape: est_error is the
    first term left out plus the rounding bound 4 eps max|term| + eps |value|."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):  # log 0 = -inf: every term past the first is 0
        log_x = np.log(x.ravel())
    lg = _taylor_log_gamma(alpha)[:, None]
    # row k - 1: term k, from term k - 1 times -x Gamma(1 + alpha (k-1)) / Gamma(1 + alpha k)
    terms = np.cumprod(-np.exp(log_x + lg[:-1] - lg[1:]), axis=0)
    total, comp, max_term = np.ones(x.size), np.zeros(x.size), np.ones(x.size)
    for term in terms[:-1]:
        y = term - comp
        t_new = total + y
        comp = (t_new - total) - y
        total = t_new
        max_term = np.maximum(max_term, np.abs(term))
    est = np.abs(terms[-1]) + 4.0 * _EPS * max_term + _EPS * np.abs(total)
    return total.reshape(x.shape)[()], est.reshape(x.shape)[()]


def _pair_angle(alpha: float) -> float:
    """d = pi (2 - alpha)/(2 alpha), the angle of the damped pair's poles
    e^(+-i pi/alpha) = -sin(d) +- i cos(d) past the imaginary axis, formed
    from the exact 2 - alpha: d is exactly 0 at alpha = 2, where pi/alpha
    would round and leave cos(pi/alpha) = 6e-17 of false damping."""
    return 0.5 * math.pi * (2.0 - alpha) / alpha


def _exp_pair_double(alpha: float, x):
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
    _TOL, which no double-precision regime could then meet: the mask holds
    the elements where it passes 0.1 _TOL.  At x <= 1, where s |ln x|/alpha
    <= 1/e and the amplitude is at most 2, it is at most 2 eps (4 + 1/e),
    and the mask holds none.
    """
    x = np.asarray(x, dtype=float)
    s = x ** (1.0 / alpha)
    d = _pair_angle(alpha)
    damp = -s * math.sin(d)
    amp = np.where(damp >= -745.0, (2.0 / alpha) * np.exp(damp), 0.0)
    # amp first: s (4 + |ln x|/alpha) overflows near x = 1.7e308, where amp = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0: s |ln x| -> 0
        err = np.where(x > 0.0, amp * _EPS * s * (4.0 + np.abs(np.log(x)) / alpha), 0.0)
    precise = err > 0.1 * _TOL
    return amp * np.cos(s * math.cos(d)), np.where(precise, _EPS * amp, err), precise


def _pair_30_digits(alpha: float, x: float) -> float:
    """The damped pair at x (_exp_pair_double) by mpmath, at
    31 + log10(s) digits, 30 after the point of the phase s cos(d) (~0.1 ms)."""
    import mpmath as mp

    with mp.workdps(31 + max(0, int(math.log10(x) / alpha))):
        a = mp.mpf(alpha)
        s, d = mp.mpf(x) ** (1 / a), mp.pi * (2 - a) / (2 * a)
        return float(2 / a * mp.exp(-s * mp.sin(d)) * mp.cos(s * mp.cos(d)))


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
    exp(-64) from x = 1/2.  The error estimate sums the per-cell |K15 - G7|
    at each x, the two tail bounds and the roundoff.
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


@functools.lru_cache(maxsize=16)
def _inverse_power_coefficients(alpha: float) -> np.ndarray:
    """The coefficients (-1)^(k+1) / Gamma(1 - alpha k) of x^(-k) in the
    inverse-power series of E_alpha(-x) for k = 1 .. floor(log(20/_TOL)/alpha),
    32 terms at alpha = 1 and 16 at 2, cached read-only per alpha.  They are
    (-1)^(k+1) sin(pi alpha k) Gamma(alpha k) / pi, with the sine formed from
    the exact u = alpha - c, c = 1 or 2, as (-1)^(c k + n) sin(pi (k u - n)),
    n the integer nearest k u: rgamma(1 - alpha k) lost up to 13 % of a
    coefficient to the rounding of alpha k next to alpha = 1 and 2."""
    from scipy.special import gamma

    ks = np.arange(1.0, math.floor(_LOG_CUT / alpha) + 1.0)
    c = 1.0 if alpha < 1.5 else 2.0
    ku = ks * (alpha - c)
    n = np.round(ku)
    sign = np.where((ks * (c + 1.0) + n) % 2 == 1, 1.0, -1.0)
    coef = sign * np.sin(math.pi * (ku - n)) * gamma(alpha * ks) / math.pi
    coef.flags.writeable = False
    return coef


def _asymptotic_part(alpha: float, x):
    """The inverse-power series of E_alpha(-x) at a scalar or an array
    x >= asymptotic_cutoff(alpha), summed to its fixed K terms
    (_inverse_power_coefficients), and its est_error: the omitted part, the
    rounding of the first term, ~1/x, and one subnormal unit per term for
    x > 2^1022, where 1/x is subnormal.  _ml_neg_parts adds the share of the
    pair and of the sum.

    Each term is at most env(k) = Gamma(alpha k) x^(-k) / pi, which is
    log-convex in k and falls until k_end = floor(x^(1/alpha) / alpha), K at
    the cutoff.  So the terms K < k <= k_end add at most (k_end - K) env(K + 1),
    and the optimal remainder past k_end, 2 env(k_end + 1), is below
    3 env(K + 1) by Wendel's bound on Gamma(z + alpha) / Gamma(z).  The
    powers come from np.power: exp(-k log x) carried ~k |log x| eps of
    relative error, far above that bound at large x.
    """
    coef = _inverse_power_coefficients(alpha)
    x = np.asarray(x, dtype=float)
    xs = x.ravel()
    powers = np.power(xs, -np.arange(1.0, coef.size + 2.0)[:, None])
    k_end = np.floor(xs ** (1.0 / alpha) / alpha)
    env = math.gamma(alpha * (coef.size + 1)) / math.pi * powers[-1]
    est = (np.maximum(k_end - coef.size, 0.0) + 3.0) * env \
        + 4.0 * _EPS * abs(coef[0]) / xs + coef.size * math.ulp(0.0)
    return (coef @ powers[:-1]).reshape(x.shape)[()], est.reshape(x.shape)[()]


def _ml_neg_parts(alpha: float, x: np.ndarray):
    """The regime of E_alpha(-x) at each element of an array of finite
    x >= 0, 1 <= alpha <= 2: the only code that chooses one, by x alone, and
    that raises NonConvergence where an est_error exceeds _TOL.  Returns,
    each of x's shape:
    * part: the Taylor sum at x <= SERIES_CUTOFF, the inverse-power sum from
      asymptotic_cutoff(alpha) on and the branch-cut integral between them,
      these two without the damped pair;
    * est: the est_error of the Taylor sum, or of the part plus the pair,
      which adds the pair's error and 4 eps (|part| + |pair|);
    * series, asym: the masks of the Taylor and inverse-power sums;
    * pair, precise: the pair in double precision (_exp_pair_double), 0 at
      alpha = 1, and the mask of the elements to be taken at 30 digits
      instead, which holds no x <= 1.  ml_neg upgrades those elements
      (_pair_30_digits) where it adds the pair; the double-precision value
      and error decide the rest.
    At alpha = 1 every part is the exact exp(-x), with the regime of x's
    range: the pair's poles merge at -1 there.  At alpha = 2,
    sin(2 pi) = 0 and 1/Gamma(1 - 2k) = 0 leave no branch-cut integral
    and no inverse-power series, so outside the series the value is all
    pair, cos(sqrt(x)).
    """
    series, asym = x <= SERIES_CUTOFF, x >= asymptotic_cutoff(alpha)
    pair, precise = np.zeros(x.shape), np.zeros(x.shape, dtype=bool)
    if alpha == 1.0:
        part = np.exp(-x)
        est = 4.0 * _EPS * (1.0 + part)
    else:
        pair, pair_err, precise = _exp_pair_double(alpha, x)
        part, est = np.empty(x.shape), np.empty(x.shape)
        for mask, regime in ((series, _taylor_kahan), (~series & ~asym, _branch_cut_integral),
                             (asym, _asymptotic_part)):
            if mask.any():
                part[mask], est[mask] = regime(alpha, x[mask])
        out = ~series
        est[out] = est[out] + 4.0 * _EPS * (np.abs(part[out]) + np.abs(pair[out])) + pair_err[out]
        est[x == 0.0] = 0.0  # E_alpha(0) = 1 exactly
    if np.any(est > _TOL):
        raise NonConvergence(f"est_error {est.max():.2e} exceeds the target {_TOL} for "
                             f"alpha={alpha}, x={x[est > _TOL].flat[0]}")
    return part, est, series, asym, pair, precise


def ml_neg(alpha: float, x: float) -> MLResult:
    """Evaluate E_alpha(-x) for x >= 0 and 1 <= alpha <= 2 to an absolute
    est_error of at most _TOL = 1e-13.

    E_alpha(-inf) = 0 for alpha < 2; at alpha = 2, E_2(-x) = cos(sqrt(x)) has
    no limit and x = inf raises InvalidInput, as do NaN and x < 0.  Raises
    InvalidInput for alpha outside [1, 2], and NonConvergence should an
    est_error exceed _TOL (_ml_neg_parts).  Outside the series the pair is
    added to _ml_neg_parts's part (the part is 0 at alpha = 2, where the
    value is all pair).
    """
    check_window(alpha, 1.0, 2.0, hi_open=False, what="Mittag-Leffler order")
    check_scalar(x=x)
    if not (x >= 0.0 and (x < math.inf or alpha < 2.0)):
        raise InvalidInput(f"ml_neg requires x >= 0 (finite at alpha = 2: E_2(-x) = "
                           f"cos(sqrt(x)) has no limit), got x={x}")
    if x == 0.0:
        return MLResult(1.0, REGIME_SERIES, 0.0)
    if x == math.inf:
        return MLResult(0.0, REGIME_ASYMPTOTIC, 0.0)
    xs = np.array([x], dtype=float)
    part, est, series, asym, pair, precise = _ml_neg_parts(alpha, xs)
    if series[0]:
        return MLResult(float(part[0]), REGIME_SERIES, float(est[0]))
    value = part[0] + (_pair_30_digits(alpha, xs[0]) if precise[0] else pair[0])
    return MLResult(float(value), REGIME_ASYMPTOTIC if asym[0] else REGIME_INTERMEDIATE,
                    float(est[0]))


def _ml_neg_minus_pair(alpha: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E_alpha(-x) minus its damped pair (_exp_pair_double) on an array of finite
    x >= 0 for 1 <= alpha < 2, each element in the regime that ml_neg
    chooses for it (_ml_neg_parts), and a bound on its rounding.

    It is the part minus subtract: the Taylor sum minus the pair on the
    series elements, and the branch-cut integral or the inverse-power sum
    itself elsewhere, where the pair is neither added nor subtracted.  At
    x <= 1 the pair in double precision is within 2 eps (4 + 1/e) of its
    value (_exp_pair_double), so it is never taken at 30 digits.  The
    rounding bound is that of the subtraction, 4 eps (|part| + |subtract|).
    Raises NonConvergence where ml_neg would.
    """
    x = np.asarray(x, dtype=float)
    part, _, series, _, pair, _ = _ml_neg_parts(alpha, x)
    subtract = np.where(series, pair, 0.0)
    return part - subtract, 4.0 * _EPS * (np.abs(part) + np.abs(subtract))
