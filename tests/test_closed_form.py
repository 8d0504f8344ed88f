"""Closed-form 1D/3D fundamental solutions, their derivatives, and identities."""

import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwave.closed_form import (
    g1,
    g1_dr,
    g1_dt,
    g3,
    g3_via_g1_spatial,
    g3_via_g1_temporal,
    g_hat,
)
from fracwave.errors import InvalidInput, NonConvergence, OriginDivergence
from fracwave.analysis import zero_crossing_z

# Frozen from 40-digit substitution into the closed formulas.
G1_ORACLE = {
    (1.5, 1.0, 1.0): 0.38423402213117185316,
    (1.5, 0.5, 2.0): 0.067079791953227430813,
    (1.5, 2.0, 3.0): 0.11635183067734874871,
}
G3_ORACLE = {
    (1.5, 1.0, 1.0): 0.06115274392625670929,
    (1.9, 2.0, 1.0): 0.0020798232149519806475,
}
Z_15 = 0.87036519258771611936


class TestG1:
    @pytest.mark.parametrize("key", sorted(G1_ORACLE))
    def test_oracle_values(self, key):
        assert abs(g1(*key) - G1_ORACLE[key]) <= 1e-15

    def test_cauchy_kernel_at_alpha_one(self):
        rs = np.linspace(0.0, 5.0, 20)
        for t in np.linspace(0.05, 4.0, 20):
            ref = t / (math.pi * (t * t + rs * rs))
            assert np.max(np.abs(g1(1.0, rs, float(t)) - ref)) <= 1e-14

    def test_zero_at_origin_above_one(self):
        assert g1(1.5, 0.0, 1.0) == 0.0
        assert g1(1.0, 0.0, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-16)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(3)
        alphas = rng.uniform(1.0, 2.0 - 1e-9, 200)
        rs = 10.0 ** rng.uniform(-8, 8, 200)
        ts = 10.0 ** rng.uniform(-3, 3, 200)
        for a, r, t in zip(alphas, rs, ts):
            assert g1(float(a), float(r), float(t)) >= 0.0

    def test_self_similar_scaling(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = rng.uniform(1.0, 2.0 - 1e-9)
            r = 10.0 ** rng.uniform(-3, 3)
            t = 10.0 ** rng.uniform(-2, 2)
            lam = 10.0 ** rng.uniform(-2, 2)
            v = g1(a, lam * r, lam * t)
            ref = g1(a, r, t) / lam
            assert abs(v - ref) <= 1e-12 * abs(ref)

    def test_rejects_alpha_two(self):
        with pytest.raises(InvalidInput, match="order"):
            g1(2.0, 1.0, 1.0)
        with pytest.raises(InvalidInput, match="order"):
            g1(0.9, 1.0, 1.0)

    def test_rejects_bad_point(self):
        with pytest.raises(ValueError):
            g1(1.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            g1(1.5, -1.0, 1.0)


class TestOriginLimits:
    """r^e at r = 0, taken in logs as e log r with 0 log 0 = 0: at alpha = 1,
    e = 0 for r <= t, and g1 and g1_dt reach their Cauchy limits 1/(pi t)
    and -1/(pi t^2); above alpha = 1, r^(alpha-1) -> 0.  No RuntimeWarning."""

    TS = (1e-200, 1e-3, 1.0, 7.3, 1e150)

    @staticmethod
    def quiet(form, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return form(*args)

    @pytest.mark.parametrize("t", TS)
    def test_cauchy_peak(self, t):
        value = self.quiet(g1, 1.0, 0.0, t)
        assert value == pytest.approx(1.0 / (math.pi * t), rel=1e-13)
        assert np.all(self.quiet(g1, 1.0, np.array([0.0, 0.0]), t) == value)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_cauchy_peak_exact_at_powers_of_two(self, t):
        assert self.quiet(g1, 1.0, 0.0, t) == 1.0 / (math.pi * t)
        assert self.quiet(g1_dt, 1.0, 0.0, t) == -1.0 / (math.pi * t * t)

    @pytest.mark.parametrize("t", TS[1:])
    def test_cauchy_time_derivative(self, t):
        assert self.quiet(g1_dt, 1.0, 0.0, t) == pytest.approx(-1.0 / (math.pi * t * t),
                                                               rel=1e-13)

    def test_time_derivative_overflow_raises(self):
        # -1/(pi t^2) at t = 1e-200 is beyond the double range
        with pytest.raises(NonConvergence):
            self.quiet(g1_dt, 1.0, 0.0, 1e-200)

    @pytest.mark.parametrize("alpha", [1.0 + 1e-7, 1.2, 1.5, 1.9, 2.0 - 1e-7])
    @pytest.mark.parametrize("t", TS)
    def test_zero_above_alpha_one(self, alpha, t):
        assert self.quiet(g1, alpha, 0.0, t) == 0.0
        dt = self.quiet(g1_dt, alpha, 0.0, t)
        assert dt == 0.0 and math.copysign(1.0, dt) == -1.0  # -0.0, as the power underflows


class TestDerivatives:
    def test_dr_vanishes_at_maximum(self):
        for a in (1.2, 1.5, 1.8):
            r_star = zero_crossing_z(a) * 1.0
            assert abs(g1_dr(a, r_star, 1.0)) <= 1e-14

    def test_dr_near_origin_alpha_one(self):
        # even Cauchy kernel: slope -> 0 from the right
        assert abs(g1_dr(1.0, 1e-12, 1.0)) <= 1e-10

    def test_centered_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(100):
            a = rng.uniform(1.01, 1.99)
            r = rng.uniform(0.05, 4.0)
            t = rng.uniform(0.3, 3.0)
            fd_r = (g1(a, r + h, t) - g1(a, r - h, t)) / (2 * h)
            fd_t = (g1(a, r, t + h) - g1(a, r, t - h)) / (2 * h)
            assert abs(g1_dr(a, r, t) - fd_r) <= 1e-6 * max(abs(fd_r), 1e-10)
            assert abs(g1_dt(a, r, t) - fd_t) <= 1e-6 * max(abs(fd_t), 1e-10)

    def test_dr_requires_positive_r(self):
        with pytest.raises(ValueError):
            g1_dr(1.5, 0.0, 1.0)


class TestG3:
    @pytest.mark.parametrize("key", sorted(G3_ORACLE))
    def test_oracle_values(self, key):
        assert abs(g3(*key) - G3_ORACLE[key]) <= 1e-15

    def test_sign_structure(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            a = rng.uniform(1.0 + 1e-6, 2.0 - 1e-9)
            t = 10.0 ** rng.uniform(-1, 1)
            r = 10.0 ** rng.uniform(-2, 2)
            r_star = zero_crossing_z(a) * t
            v = g3(a, r, t)
            if abs(r - r_star) < 1e-9 * r_star:
                continue
            assert (v > 0.0) == (r > r_star)

    def test_zero_at_crossing(self):
        assert abs(g3(1.5, Z_15, 1.0)) <= 1e-9

    def test_negative_below_crossing(self):
        assert g3(1.5, 0.5, 1.0) < 0.0

    def test_origin_divergence(self):
        with pytest.raises(OriginDivergence):
            g3(1.5, 0.0, 1.0)
        # at alpha = 1, G3 is the Poisson kernel, whose centre 1/(pi^2 t^3) is finite
        assert g3(1.0, 0.0, 2.0) == pytest.approx(1.0 / (8.0 * math.pi ** 2), rel=1e-15)
        assert np.all(g3(1.0, np.array([0.0, 0.0]), 2.0) == g3(1.0, 0.0, 2.0))

    def test_self_similar_scaling(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            a = rng.uniform(1.0, 2.0 - 1e-9)
            r = 10.0 ** rng.uniform(-3, 3)
            t = 10.0 ** rng.uniform(-2, 2)
            lam = 10.0 ** rng.uniform(-2, 2)
            v = g3(a, lam * r, lam * t)
            ref = g3(a, r, t) / lam ** 3
            assert abs(v - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("alpha", [1.25, 1.75])
    def test_asymptotic_slopes(self, alpha):
        r_small = np.geomspace(1e-6, 1e-4, 40)
        r_big = np.geomspace(1e3, 1e5, 40)
        slope_small = np.polyfit(np.log(r_small), np.log(np.abs(g3(alpha, r_small, 1.0))), 1)[0]
        slope_big = np.polyfit(np.log(r_big), np.log(g3(alpha, r_big, 1.0)), 1)[0]
        assert abs(slope_small - (alpha - 3.0)) <= 0.05
        assert abs(slope_big - (-alpha - 3.0)) <= 0.05


class TestDimensionalRelations:
    def test_both_routes_match_g3(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform(1.01, 1.99)
            r = 10.0 ** rng.uniform(-1.5, 1.5)
            t = 10.0 ** rng.uniform(-1, 1)
            ref = g3(a, r, t)
            scale = max(abs(ref), 1e-300)
            assert abs(g3_via_g1_spatial(a, r, t) - ref) <= 1e-10 * scale
            assert abs(g3_via_g1_temporal(a, r, t) - ref) <= 1e-10 * scale

    def test_spatial_route_zero_at_crossing(self):
        assert abs(g3_via_g1_spatial(1.5, Z_15, 1.0)) <= 1e-12


class TestMaxProduct:
    def test_time_independent_product(self):
        # r*(t) G*(t) must not depend on t
        for a in (1.2, 1.5, 1.8):
            z = zero_crossing_z(a)
            products = [z * t * g1(a, z * t, t) for t in (0.1, 1.0, 10.0)]
            assert abs(products[0] - products[1]) <= 1e-12 * abs(products[1])
            assert abs(products[2] - products[1]) <= 1e-12 * abs(products[1])


class TestGHat:
    def test_unit_initial_value(self):
        assert g_hat(1.5, 3.7, 0.0) == 1.0
        assert g_hat(1.1, 0.0, 5.0) == 1.0

    def test_exponential_at_alpha_one(self):
        for k, t in [(0.5, 1.0), (2.0, 3.0), (1.0, 0.25)]:
            assert abs(g_hat(1.0, k, t) - math.exp(-k * t)) <= 1e-12

    def test_zero_initial_slope(self):
        # second initial condition: dG^/dt = 0 at t = 0+.  The one-sided
        # difference decays like k^a h^(a-1), so the literal 1e-3 bound is
        # checked where that rate allows it, and the rate itself elsewhere.
        h = 1e-4
        slope = (g_hat(1.9, 1.0, h) - g_hat(1.9, 1.0, 0.0)) / h
        assert abs(slope) <= 1e-3
        for a, k in [(1.3, 2.0), (1.5, 1.0), (1.7, 0.5)]:
            slope = (g_hat(a, k, h) - g_hat(a, k, 0.0)) / h
            bound = 2.0 * k ** a * h ** (a - 1.0) / math.gamma(1.0 + a)
            assert abs(slope) <= bound
            finer = (g_hat(a, k, h / 100.0) - g_hat(a, k, 0.0)) / (h / 100.0)
            assert abs(finer) < abs(slope)

    def test_matches_ml(self):
        from fracwave.special import ml_neg
        assert g_hat(1.5, 2.0, 1.5) == ml_neg(1.5, 3.0 ** 1.5).value

    def test_limit_past_the_double_range(self):
        # (kappa t)^alpha = 1e309.4 leaked OverflowError; E_alpha(-inf) = 0
        assert g_hat(1.875, 1e65, 1e100) == 0.0

    def test_invalid(self):
        with pytest.raises(InvalidInput, match="order"):
            g_hat(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            g_hat(1.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            g_hat(1.5, 1.0, -1.0)


# -- the four forms against an exact substitution -----------------------------

FORMS = {"g1": g1, "g1_dr": g1_dr, "g1_dt": g1_dt, "g3": g3}
EPS = 2.0 ** -52


def exact(name, alpha, r, t):
    """The formulas of the closed_form docstring in q, c and s, substituted in
    mpmath; call inside mp.workdps."""
    a, r, t = mp.mpf(alpha), mp.mpf(r), mp.mpf(t)
    c, s = mp.cos(mp.pi * a / 2), mp.sin(mp.pi * a / 2)
    q = (r / t) ** a
    d = (q + c) ** 2 + s ** 2
    m = (a + 1) * q ** 2 + 2 * c * q - (a - 1)
    if name == "g1":
        return s / (mp.pi * t) * q ** (1 - 1 / a) / d
    if name == "g1_dr":
        return -s / (mp.pi * t ** 2) * (r / t) ** (a - 2) * m / d ** 2
    if name == "g1_dt":
        return s * a / (mp.pi * t ** 2) * (r / t) ** (a - 1) * (q ** 2 - 1) / d ** 2
    return s / (2 * mp.pi ** 2) * r ** (a - 3) * t ** -a * m / d ** 2


def relative_error(name, alpha, r, t):
    """|form - exact| / |exact| at 80 digits (at alpha = 2 - 2^-52 the
    substitution's M(1) = 2 (1 + c) cancels 32 of them)."""
    got = FORMS[name](alpha, r, t)
    with mp.workdps(80):
        want = exact(name, alpha, r, t)
        if want == 0:  # g1_dt at r = t
            return 0.0 if got == 0.0 else math.inf
        return float(abs(got - want) / abs(want))


def tolerance(name, alpha, r, t):
    """1e-13, plus, for the forms with the factor M, the change that a few ulps
    of r cause at relative distance d from the zero r = z_alpha t: M moves by
    about eps/d there, in any double evaluation.  (The g1_dt zero r = t needs
    no allowance: r - t is exact.)"""
    if name in ("g1", "g1_dt"):
        return 1e-13
    with mp.workdps(80):
        a = mp.mpf(alpha)
        c, s = mp.cos(mp.pi * a / 2), mp.sin(mp.pi * a / 2)
        z = ((-c + mp.sqrt(a * a - s * s)) / (a + 1)) ** (1 / a)
        d = abs(mp.mpf(r) / (z * mp.mpf(t)) - 1) if z > 0 else mp.inf
        return 1e-13 + 8.0 * EPS / float(d)


@settings(max_examples=200, deadline=None, database=None)
@given(alpha=st.floats(1.0, 2.0, exclude_max=True), log_ratio=st.floats(-3.0, 3.0),
       log_t=st.floats(-2.0, 2.0))
def test_forms_match_exact_substitution(alpha, log_ratio, log_t):
    t = 10.0 ** log_t
    r = t * 10.0 ** log_ratio
    for name in FORMS:
        assert relative_error(name, alpha, r, t) <= tolerance(name, alpha, r, t), name


@pytest.mark.parametrize("alpha", [1.0, 1.01, 1.3, 1.5, 1.7, 1.9, 1.99, 1.999, 1.9995, 1.9999])
def test_forms_on_the_ratio_grid(alpha):
    for ratio in [*np.geomspace(0.01, 100.0, 41).tolist(), 1.0]:
        for name in FORMS:
            assert relative_error(name, alpha, ratio, 1.0) <= tolerance(name, alpha, ratio, 1.0)


@pytest.mark.parametrize("alpha", [1.99, 1.999, 1.9995, 1.9999])
def test_exact_near_alpha_two_at_the_front(alpha):
    # M(1) = 2 (1 + c) and D(1) = (1 + c)^2 + s^2 both vanish as alpha -> 2
    for name in ("g1", "g1_dr", "g3"):
        assert relative_error(name, alpha, 1.0, 1.0) <= 1e-15, name
    assert g1_dt(alpha, 1.0, 1.0) == 0.0


# Inputs at the ends of the double range.  The comment gives what the forms
# returned before they shared one exit rule; the 50-digit value decides what
# they must do now: return it to 1e-12 where it is a normal double, raise
# NonConvergence where it overflows, return +-0.0 where it underflows.
EXTREMES = [
    ("g1", 1.5, 1e-200, 1e-310),      # 0.0
    ("g1_dr", 1.5, 1e-200, 1e-310),   # NonConvergence
    ("g3", 1.5, 1e-300, 1e300),       # NonConvergence
    ("g1_dr", 1.5, 1e-300, 1e300),    # NonConvergence
    ("g1", 1.5, 1e-310, 1e-310),      # 0.0
    ("g1", 1.0, 0.0, 1e-310),         # 0.0
    ("g1_dt", 1.5, 2e-308, 1e-308),   # 0.0
    ("g1_dt", 1.5, 1e-310, 1e-310),   # 0.0, exact
    ("g1_dt", 1.5, 1e300, 1e-300),    # RuntimeWarning
    ("g1_dr", 1.5, 1e300, 1e-300),    # RuntimeWarning
]


@pytest.mark.parametrize("name,alpha,r,t", EXTREMES)
def test_extreme_inputs(name, alpha, r, t):
    with mp.workdps(50):
        want = exact(name, alpha, r, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if abs(want) > np.finfo(float).max:
            with pytest.raises(NonConvergence):
                FORMS[name](alpha, r, t)
            return
        got = FORMS[name](alpha, r, t)
    if abs(want) < mp.mpf(2) ** -1075:
        assert got == 0.0
    else:
        assert abs(want) >= np.finfo(float).tiny  # every other row is a normal double
        assert abs(got - want) <= 1e-12 * abs(want)


# r and t over the whole positive double range, subnormals included.
FULL_RANGE = st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None, database=None)
@given(alpha=st.floats(1.0, 2.0, exclude_max=True), r=st.one_of(st.just(0.0), FULL_RANGE),
       t=FULL_RANGE)
def test_finite_result_or_fracwave_error(alpha, r, t):
    """Each form returns a finite value (g1 >= 0) or raises InvalidInput,
    NonConvergence or OriginDivergence, within 1 s and with no RuntimeWarning."""
    for name, form in FORMS.items():
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                value = form(alpha, r, t)
            except (InvalidInput, NonConvergence, OriginDivergence):
                value = None
        assert time.perf_counter() - start < 1.0, name
        if value is not None:
            assert math.isfinite(value), name
            assert name != "g1" or value >= 0.0
