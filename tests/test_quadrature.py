"""Oscillatory radial quadrature: route agreement, lobe structure, error
honesty, origin behavior, and the 1D initial-value solver."""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from inverse_abel import g2_abel, poisson_mp
from scipy.special import voigt_profile

from fracwave import quadrature
from fracwave.closed_form import g1, g3
from fracwave.errors import FracWaveError, InvalidInput, NonConvergence, OriginDivergence
from fracwave.mellin_barnes import g_mellin_barnes
from fracwave.quadrature import (
    QuadResult,
    _integrate_lobes,
    _lobe_edge,
    _make_integrand,
    _pair_transform,
    g_integral,
    g_origin,
    g_spectral,
    solve_ivp_1d,
)

# Mellin-Barnes values frozen from a 40-digit independent contour integration;
# n = 2 has no closed form, so these are the n = 2 oracle.
G2_MB_ORACLE = {
    (1.5, 1.0, 1.0): 0.170170205317281,
    (1.5, 0.5, 1.0): -0.07835315470849381,
}


class TestRouteAgreement:
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("ratio", [0.3, 3.0])
    def test_matches_closed_forms(self, alpha, ratio):
        for n in (1, 3):
            res = g_integral(alpha, n, ratio, 1.0)
            ref = g1(alpha, ratio, 1.0) if n == 1 else g3(alpha, ratio, 1.0)
            assert abs(res.value - ref) <= 1e-6
            assert abs(res.value - ref) <= res.est_error

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_poisson_kernel_at_alpha_one(self, n):
        # E_1(-x) = e^-x: no pair, and G = P_n for every n
        for t in (0.5, 2.0):
            for r in np.geomspace(1e-3, 1e3, 41) * t:
                start = time.perf_counter()
                res = g_integral(1.0, n, float(r), t)
                assert time.perf_counter() - start < 1.0
                assert abs(res.value - poisson_mp(n, r, t)) <= res.est_error, (r, t)

    def test_scaled_time(self):
        res = g_integral(1.5, 3, 0.6, 2.0)
        assert abs(res.value - g3(1.5, 0.6, 2.0)) <= 1e-6

    def test_log_grid_representation_agreement(self):
        # 20 log-spaced ratios r/t in [0.1, 10] per alpha, both closed-form
        # dimensions: the integral route stays within 1e-6 everywhere
        ratios = np.geomspace(0.1, 10.0, 20)
        for alpha in (1.1, 1.5, 1.9):
            for ratio in ratios:
                for n in (1, 3):
                    res = g_integral(alpha, n, float(ratio), 1.0)
                    ref = g1(alpha, float(ratio), 1.0) if n == 1 else g3(alpha, float(ratio), 1.0)
                    assert abs(res.value - ref) <= 1e-6

    @pytest.mark.parametrize("key", sorted(G2_MB_ORACLE))
    def test_two_dimensional_oracle(self, key):
        res = g_integral(key[0], 2, key[1], key[2])
        assert abs(res.value - G2_MB_ORACLE[key]) <= 1e-6

    def test_negative_region_exists_in_2d(self):
        res = g_integral(1.5, 2, 0.5, 1.0)
        assert res.value < 0.0

    def test_2d_scaling_property(self):
        # no closed form: self-similarity is the independent 2D check
        for lam in (0.5, 2.0):
            a = g_integral(1.5, 2, 0.8, 1.0)
            b = g_integral(1.5, 2, lam * 0.8, lam * 1.0)
            combined = b.est_error + a.est_error / lam ** 2
            assert abs(b.value - a.value / lam ** 2) <= combined


class TestLobeStructure:
    def test_lobe_edges_monotone(self):
        for n in (1, 2, 3):
            edges = [_lobe_edge(n, 0.7, k) for k in range(50)]
            assert all(b > a for a, b in zip(edges, edges[1:]))

    def test_sign_alternation_from_lobe_five(self):
        # the kernel dictates lobe signs, and from lobe 5 on the magnitudes
        # of the remainder's lobes decrease
        alpha, n, r, t = 1.5, 1, 1.0, 1.0
        f = _make_integrand(alpha, n, r, t)
        sums = []
        a = 0.0
        for k in range(30):
            b = _lobe_edge(n, r, k)
            sums.append(_integrate_lobes(f, [np.linspace(a, b, 9)])[0][0])
            a = b
        for k in range(5, 29):
            assert sums[k] * sums[k + 1] < 0.0
        mags = [abs(s) for s in sums[5:]]
        assert all(m2 < m1 for m1, m2 in zip(mags, mags[1:]))

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.9, 1.999])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_remainder_alternates_from_lobe_zero(self, alpha, n):
        # with the damped pair subtracted the integrand keeps one sign, so
        # the lobe signs follow the kernel's from the first lobe on
        f = _make_integrand(alpha, n, 1.0, 1.0)
        sums = []
        a = 0.0
        for k in range(20):
            b = _lobe_edge(n, 1.0, k)
            sums.append(_integrate_lobes(f, [np.geomspace(max(a, 1e-9), b, 9)])[0][0])
            a = b
        assert all(s1 * s2 < 0.0 for s1, s2 in zip(sums, sums[1:]))

    def test_error_honesty(self):
        rng = np.random.default_rng(2024)
        honest = 0
        total = 0
        for _ in range(30):
            alpha = float(rng.uniform(1.05, 1.9))
            n = int(rng.choice([1, 3]))
            r = float(10.0 ** rng.uniform(-0.7, 0.7))
            t = float(10.0 ** rng.uniform(-0.3, 0.3))
            res = g_integral(alpha, n, r, t)
            ref = g1(alpha, r, t) if n == 1 else g3(alpha, r, t)
            total += 1
            if abs(res.value - ref) <= res.est_error:
                honest += 1
        assert honest / total >= 0.95


class TestPairTransform:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9, 1.999, 1.9999])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_within_rounding_bound_of_40_digits(self, n, alpha):
        # (2/alpha) Re P_n(r, p), P_n(r, s) = c_n s / (s^2 + r^2)^((n+1)/2) the
        # Poisson kernel, p = -t e^(i pi/alpha); q = p^2 + r^2 cancels near
        # alpha = 2 and r = t
        with mpmath.workdps(40):
            power = mpmath.mpf(n + 1) / 2
            c_n = mpmath.gamma(power) / mpmath.pi ** power
            for t in (1.0, 0.7):
                p = -t * mpmath.expjpi(1 / mpmath.mpf(alpha))
                for ratio in (0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 3.0):
                    r = ratio * t
                    q = p * p + mpmath.mpf(r) ** 2
                    ref = 2 / mpmath.mpf(alpha) * mpmath.re(c_n * p / q ** power)
                    value, bound = map(float, _pair_transform(alpha, n, r, t))
                    assert abs(value - float(ref)) <= bound


class TestSmallRadius:
    # Lobe 0 reaches far past the scale 1/t of the Mittag-Leffler decay here,
    # where the integrand falls off like a power of tau: on cells spanning a
    # ratio of 4 |K15 - G7| overstates the error about 1e4-fold, above tol.
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("alpha", [1.05, 1.1, 1.25, 1.5, 1.75, 1.9])
    def test_small_ratio_is_fast_and_honest(self, alpha, n):
        for ratio in (3e-2, 1e-2, 3e-3, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-10, 1e-12):
            start = time.perf_counter()
            res = g_integral(alpha, n, ratio, 1.0)
            assert time.perf_counter() - start < 1.0
            ref = g1(alpha, ratio, 1.0) if n == 1 else g2_abel(alpha, ratio, 1.0)[0]
            assert abs(res.value - ref) <= res.est_error

    def test_target_scales_with_t(self):
        # G is t^-n times a function of r/t, and so is the error of the
        # cells of lobe 0, ~1.3e-11 / t at r/t = 1e-13: at t = 1e-3 it would
        # pass a target of 1e-8 that did not scale with t^-n
        for r, t in ((1e-16, 1e-3), (1e-13, 1.0), (1e-10, 1e3)):
            res = g_integral(1.2, 1, r, t)
            ref = g_spectral(1.2, 1, r, t)
            assert res.est_error <= 1e-8 * max(1.0 / t, abs(res.value))
            assert abs(res.value - ref.value) <= res.est_error + ref.est_error


class TestUnreachableTolerance:
    def test_cell_error_above_target_fails_fast(self, monkeypatch):
        # the cell error and the rounding bounds only grow and est_error
        # includes them, so once they alone exceed the target no further
        # lobe can meet it.  At the target 1e-8 max(t^-n, |G|) no point of a
        # sweep over alpha in [1, 1.99], n = 1-3, r in [1e-300, 1e-16] and
        # [1e6, 1e200] and t in {1e-3, 1, 1e3} reaches that; at 1e-12 the
        # cells of lobe 0,
        # which reaches tau = 1.6e16 at r = 1e-16, add up to ~1.3e-8 after
        # the first 10 lobes, and the target is 1e-9 at t = 1e-3
        monkeypatch.setattr(quadrature, "_TOL", 1e-12)
        start = time.perf_counter()
        with pytest.raises(NonConvergence, match="cell and rounding error"):
            g_integral(1.2, 1, 1e-16, 1e-3)
        assert time.perf_counter() - start < 1.5


class TestNearAlphaTwo:
    # The damped pair barely decays here and its closed form is sharply
    # peaked at the wavefront r = t, where q = p^2 + r^2 nearly cancels.
    # At r/t = 1e-6 and 1e-2 the integrand's rounding bound is tested: it
    # charges 4 eps |pair| only where the pair is subtracted, and for n = 3
    # at alpha >= 1.9995 a charge at every node exceeded the target.
    @pytest.mark.parametrize("alpha", [1.99, 1.999, 1.9995, 1.9999])
    def test_wavefront_within_est_error(self, alpha):
        for rho in (1e-6, 0.01, 0.9, 0.999, 1.0, 1.001, 1.01, 1.1):
            for n in (1, 2, 3):
                start = time.perf_counter()
                res = g_integral(alpha, n, rho, 1.0)
                assert time.perf_counter() - start < 1.0
                if n == 2:
                    try:
                        mb = g_mellin_barnes(alpha, 2, rho, 1.0)
                    except NonConvergence:
                        continue
                    assert abs(res.value - mb.value) <= res.est_error + mb.est_error
                else:
                    ref = g1(alpha, rho, 1.0) if n == 1 else g3(alpha, rho, 1.0)
                    assert abs(res.value - ref) <= res.est_error


@settings(max_examples=100, deadline=None, database=None)
@given(alpha=st.floats(1.01, 1.9995), n=st.sampled_from([1, 2, 3]),
       log10_rho=st.floats(-12.0, 2.0), log10_t=st.floats(-1.0, 1.0))
def test_finite_result_or_fracwave_error(alpha, n, log10_rho, log10_t):
    """Every call returns a finite value with est_error within the
    target 1e-8 max(t^-n, |value|), or raises a FracWaveError, within 2 s."""
    t = 10.0 ** log10_t
    start = time.perf_counter()
    try:
        res = g_integral(alpha, n, 10.0 ** log10_rho * t, t)
    except FracWaveError:
        res = None
    assert time.perf_counter() - start < 2.0
    if res is not None:
        assert math.isfinite(res.value)
        assert res.est_error <= 1e-8 * max(t ** -n, abs(res.value))


class TestConfigValidation:
    def test_rejects_bad_domain(self):
        with pytest.raises(InvalidInput, match="order"):
            g_integral(0.99, 2, 1.0, 1.0)
        with pytest.raises(InvalidInput, match="order"):
            g_integral(2.0, 1, 1.0, 1.0)
        with pytest.raises(InvalidInput, match="dimension"):
            g_integral(1.5, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            g_integral(1.5, 1, 1.0, -1.0)


class TestOrigin:
    def test_zero_for_1d(self):
        assert g_origin(1.5, 1, 7.3) == 0.0

    def test_cauchy_center_at_alpha_one(self):
        assert g_origin(1.0, 1, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-16)

    @pytest.mark.parametrize("n", [2, 3])
    def test_divergence_above_1d(self, n):
        with pytest.raises(OriginDivergence):
            g_origin(1.5, n, 1.0)
        with pytest.raises(OriginDivergence):
            g_integral(1.5, n, 0.0, 1.0)
        # but not at alpha = 1, where G is the Poisson kernel: c_n t^-n
        for t in (0.5, 2.0):
            assert g_integral(1.0, n, 0.0, t).value == g_origin(1.0, n, t) \
                == poisson_mp(n, 0.0, t)

    @pytest.mark.parametrize("alpha", [1.0, 1.1, 1.11, 1.17, 1.33, 1.5, 1.67, 1.9, 1.99])
    def test_integral_route_at_origin(self, alpha):
        # one origin rule: g_origin's value, or its OriginDivergence, at every n
        for n in (1, 2, 3):
            for t in (1.0, 2.0):
                try:
                    ref = g_origin(alpha, n, t)
                except OriginDivergence:
                    with pytest.raises(OriginDivergence):
                        g_integral(alpha, n, 0.0, t)
                    continue
                assert g_integral(alpha, n, 0.0, t).value == ref


class TestSolveIvp1d:
    def test_discrete_delta_reproduces_green_function(self):
        xs = np.linspace(-30.0, 30.0, 6001)
        h = xs[1] - xs[0]
        phis = np.zeros_like(xs)
        phis[3000] = 1.0 / h
        u = solve_ivp_1d(1.5, xs, phis, 1.0, [0.25, 1.0, 2.0])
        for x, ui in zip([0.25, 1.0, 2.0], u):
            assert abs(ui - g1(1.5, x, 1.0)) <= 1e-12

    def test_mass_conservation_flat_phi(self):
        # trapezoid error across the |x - xi|^(alpha-1) kink is O(h^alpha);
        # grid refinement is the accuracy control
        xs = np.linspace(-500.0, 500.0, 80001)
        phis = np.ones_like(xs)
        u = solve_ivp_1d(1.5, xs, phis, 1.0, [0.0, 1.0, -2.0])
        assert np.max(np.abs(u - 1.0)) <= 3e-4
        xs2 = np.linspace(-500.0, 500.0, 20001)
        u2 = solve_ivp_1d(1.5, xs2, np.ones_like(xs2), 1.0, [0.0])
        assert abs(u2[0] - 1.0) > np.abs(u - 1.0).max()  # refinement helps

    def test_cauchy_semigroup_at_alpha_one(self):
        s, t = 1.0, 0.5
        xs = np.linspace(-4000.0, 4000.0, 160001)
        phis = (s / math.pi) / (s * s + xs * xs)
        out = np.array([0.0, 0.5, 1.5])
        u = solve_ivp_1d(1.0, xs, phis, t, out)
        ref = ((s + t) / math.pi) / ((s + t) ** 2 + out ** 2)
        assert np.max(np.abs(u - ref)) <= 1e-4

    @staticmethod
    def _direct_sum(alpha, xs, phis, t, out):
        # the trapezoidal Green sum written out, one output point at a time
        w = np.full_like(phis, xs[1] - xs[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return np.array([float(np.dot(w * phis, g1(alpha, np.abs(x - xs), t)))
                         for x in out])

    @pytest.mark.parametrize("n", [400, 401])
    @pytest.mark.parametrize("alpha", [1.0, 1.3, 1.6, 1.9])
    def test_sample_grid_convolution_matches_direct_sum(self, alpha, n):
        xs = np.linspace(-6.0, 9.0, n)
        phis = np.exp(-0.5 * (xs - 1.0) ** 2) * (1.0 + 0.3 * np.tanh(xs))  # asymmetric
        u = solve_ivp_1d(alpha, xs, phis, 0.7, xs)
        ref = self._direct_sum(alpha, xs, phis, 0.7, xs)
        assert u.shape == xs.shape
        assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(u))

    def test_gaussian_at_alpha_one_is_voigt(self):
        sigma, t = 1.0, 1.1
        xs = np.linspace(-12.0 * sigma, 12.0 * sigma, 2001)
        phis = np.exp(-0.5 * (xs / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        u = solve_ivp_1d(1.0, xs, phis, t, xs)
        assert np.max(np.abs(u - voigt_profile(xs, sigma, t))) <= 1e-12 * np.max(np.abs(u))

    def test_off_grid_output_is_the_direct_sum(self):
        xs = np.linspace(-5.0, 5.0, 1001)
        phis = np.exp(-xs ** 2) * (2.0 + np.sin(xs))
        out = np.array([-4.0051, -0.3, 0.0, 0.0123, 2.5])
        u = solve_ivp_1d(1.4, xs, phis, 0.8, out)
        assert np.array_equal(u, self._direct_sum(1.4, xs, phis, 0.8, out))
        # a strict subset of the sample grid also takes the direct sum
        sub = xs[::50]
        assert np.array_equal(solve_ivp_1d(1.4, xs, phis, 0.8, sub),
                              self._direct_sum(1.4, xs, phis, 0.8, sub))

    def test_grid_validation(self):
        with pytest.raises(InvalidInput, match="grid must be uniform"):
            solve_ivp_1d(1.5, [0.0, 1.0, 1.5], [1.0, 1.0, 1.0], 1.0, [0.0])
        with pytest.raises(InvalidInput, match="grid must be strictly increasing"):
            solve_ivp_1d(1.5, [1.0, 0.0, 2.0], [1.0, 1.0, 1.0], 1.0, [0.0])
        with pytest.raises(InvalidInput, match="1D arrays"):
            solve_ivp_1d(1.5, [0.0], [1.0], 1.0, [0.0])


class TestQuadResultContract:
    def test_fields(self):
        # r = 0 takes g_origin's value: no lobe is integrated
        for r in (1.0, 0.0):
            res = g_integral(1.5, 1, r, 1.0)
            assert isinstance(res, QuadResult)
            assert type(res.value) is float and type(res.est_error) is float
            assert res.lobes_used == 0 if r == 0.0 else res.lobes_used > 1
            assert res.est_error <= max(1e-8, 1e-8 * abs(res.value))
