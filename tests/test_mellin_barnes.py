"""Mellin-Barnes contour route: kernel values, contour robustness, and the
three-way route agreement."""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwave.closed_form import g1, g3
from fracwave.errors import InvalidInput, NonConvergence
from fracwave.mellin_barnes import (
    _phase_sum,
    g_mellin_barnes,
    l_aux,
    mb_kernel,
)
from fracwave.quadrature import g_integral, g_spectral
from inverse_abel import g2_abel

Z_15 = 0.87036519258771611936

# Dense est_error-honesty grid: r/t over [0.01, 100], with 1 itself and the
# points either side of it, where rho^(iy) hardly oscillates and the tail
# bound is at its tightest.
HONESTY_ALPHAS = (1.05, 1.3, 1.6, 1.9)
HONESTY_RHOS = np.concatenate((np.geomspace(0.01, 100.0, 25), [0.99, 1.01]))

# Frozen from 40-digit Gamma-quotient evaluation.
KERNEL_ORACLE = {
    (1.5, 1, 0.5 + 0.0j): 1.4472025091165353187 + 0.0j,
    (1.5, 2, 0.7 + 2.0j): 0.54490729302371532699 - 0.27875456971382674981j,
    (1.9, 3, 1.2 - 3.4j): 0.092165708150528644948 + 2.2769152826195878617j,
}

# Removable points of the Gamma quotient, where the Gamma((n - s)/2) pole
# cancels a zero of 1/Gamma(1 - s): 30-digit mpmath limits.
KERNEL_REMOVABLE = {
    (1.5, 1, 1.0): 2.046653415892976977,
    (1.5, 2, 2.0): 1.8137993642342178506,
    (1.7, 3, 3.0): -2.6309415351294799538,
}


def gamma_quotient(alpha, n, s):
    """The kernel as the five-Gamma quotient, at 30 digits."""
    with mpmath.workdps(30):
        s, alpha = mpmath.mpc(s), mpmath.mpf(alpha)
        num = mpmath.gamma(s / alpha) * mpmath.gamma(1 - s / alpha) * mpmath.gamma((n - s) / 2)
        return complex(num / (mpmath.gamma(1 - s) * mpmath.power(2, s) * mpmath.gamma(s / 2)))


class TestKernel:
    @pytest.mark.parametrize("key", sorted(KERNEL_ORACLE, key=str))
    def test_oracle_values(self, key):
        ref = KERNEL_ORACLE[key]
        got = mb_kernel(*key)
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))

    @pytest.mark.parametrize("key", sorted(KERNEL_REMOVABLE))
    def test_removable_points(self, key):
        ref = KERNEL_REMOVABLE[key]
        assert abs(mb_kernel(*key) - ref) <= 1e-12 * abs(ref)

    def test_schwarz_reflection(self):
        """K(conj s) = conj K(s), which makes the contour's sum over y >= 0
        exact: off the line, and on it for y in (0, 60]."""
        points = [(1.5, 2, s) for s in (0.75 + 2.0j, 0.3 + 11.0j, 1.1 + 0.4j)]
        for alpha, n in [(1.5, 1), (1.5, 3), (1.3, 2)]:
            points += [(alpha, n, complex(0.5 * min(alpha, n), y))
                       for y in np.linspace(0.0, 60.0, 121)[1:]]
        for alpha, n, s in points:
            a = mb_kernel(alpha, n, s)
            b = mb_kernel(alpha, n, s.conjugate())
            assert abs(a.conjugate() - b) <= 1e-13 * abs(a)

    def test_regular_limit_at_zero(self):
        # The Gamma(s/alpha) numerator pole cancels the Gamma(s/2) denominator
        # pole, leaving the finite limit (alpha/2) Gamma(n/2).
        for alpha, n in [(1.5, 1), (1.3, 2), (1.9, 3)]:
            lim = 0.5 * alpha * math.gamma(0.5 * n)
            seq = [abs(mb_kernel(alpha, n, eps) - lim) for eps in (1e-3, 1e-5, 1e-7)]
            assert seq[2] <= 1e-6 * max(1.0, lim)
            assert seq[0] >= seq[2]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_value_at_zero(self, n):
        assert mb_kernel(1.5, n, 0.0) == pytest.approx(0.75 * math.gamma(0.5 * n), rel=1e-15)

    def test_vanishes_at_denominator_pole(self):
        # Gamma(s/2) pole at s = -2 is not cancelled: the kernel tends to 0.
        vals = [abs(mb_kernel(1.5, 1, -2.0 + eps)) for eps in (1e-3, 1e-6, 1e-9)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] <= 1e-8

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_far_real_axis(self, alpha, n):
        """Far out on the real axis the Gammas of the n = 2 numerator leave
        the double range (1/Gamma(s/2) underflowed and 1/Gamma((1 - s)/2)
        overflowed to nan from |s| ~ 343), and sin(pi s/alpha) keeps its
        digits only if s is reduced exactly."""
        for s in (171.3, 400.3, 1e6 + 0.1):
            for x in (s, -s):
                ref = gamma_quotient(alpha, n, x).real
                assert abs(mb_kernel(alpha, n, x) - ref) <= 1e-11 * abs(ref), x

    def test_pole_error_on_numerator_poles(self):
        with pytest.raises(NonConvergence, match="kernel pole"):
            mb_kernel(1.5, 1, -1.5)  # s/alpha = -1
        with pytest.raises(NonConvergence, match="kernel pole"):
            mb_kernel(1.5, 3, 1.5)  # 1 - s/alpha = 0
        with pytest.raises(NonConvergence, match="kernel pole"):
            mb_kernel(1.5, 3, 3.0)  # (n - s)/2 = 0


# sigma stays 1 % of the strip away from its ends: within a few ulps of the
# pole at s = alpha, any double evaluation of K loses all its digits.
@settings(max_examples=200, deadline=None, database=None)
@given(alpha=st.floats(1.05, 1.95), n=st.sampled_from([1, 2, 3]),
       frac=st.floats(0.01, 0.99), y=st.floats(-50.0, 50.0))
def test_kernel_is_the_gamma_quotient(alpha, n, frac, y):
    """The reduced kernel equals the five-Gamma quotient in the strip."""
    s = complex(frac * min(alpha, n), y)
    ref = gamma_quotient(alpha, n, s)
    assert abs(mb_kernel(alpha, n, s) - ref) <= 1e-11 * abs(ref)


class TestPhaseSum:
    """The two-level phase table against the direct product exp(L s_j) at the
    nodes s_j = sigma + i (y0 + j dy), at alpha = 1.99 and rho in [1e-3, 1e3],
    the finest step: |y L| reaches 1e6 rad in the far block.  The two differ
    by at most the sum of their per-term rounding bounds,
    eps |wk_j| rho^sigma (8 + (sigma + y_j) |L|) for _phase_sum and
    eps |wk_j| rho^sigma (4 + |s_j| |L|) for the direct product."""

    LOG_RHO = np.log(np.geomspace(1e-3, 1e3, 41))
    SIGMA = 0.995
    DY = 0.2 / 64

    def check(self, y0, wk):
        log_rho = self.LOG_RHO
        y = y0 + self.DY * np.arange(wk.size)
        s = self.SIGMA + 1j * y
        direct = np.einsum("ij,j->i", np.exp(np.outer(log_rho, s)), wk)
        fast = _phase_sum(log_rho, self.SIGMA, y0, self.DY, wk)
        per_term = 12.0 + np.outer(np.abs(log_rho), self.SIGMA + y + np.abs(s))
        bound = np.finfo(float).eps * np.exp(self.SIGMA * log_rho) * (per_term @ np.abs(wk))
        assert np.all(np.abs(fast - direct) <= bound)

    @pytest.mark.parametrize("y0", [0.0, 1.44e5])
    @pytest.mark.parametrize("size", [1, 2, 256, 1009])
    def test_matches_direct_product(self, size, y0):
        rng = np.random.default_rng(size)
        self.check(y0, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        for j in (0, size // 2, size - 1):
            unit = np.zeros(size, dtype=complex)
            unit[j] = 1.0
            self.check(y0, unit)
        assert y0 == 0.0 or np.max(np.abs(self.LOG_RHO)) * y0 > 9.9e5


class TestContour:
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("ratio", [0.3, 1.0, 3.0])
    def test_matches_closed_forms(self, alpha, ratio):
        for n in (1, 3):
            res = g_mellin_barnes(alpha, n, ratio, 1.0)
            ref = g1(alpha, ratio, 1.0) if n == 1 else g3(alpha, ratio, 1.0)
            assert abs(res.value - ref) <= 1e-6

    def test_sigma_shift_invariance(self):
        for ratio in (0.5, 1.3):
            a = g_mellin_barnes(1.5, 1, ratio, 1.0, sigma=0.3).value
            b = g_mellin_barnes(1.5, 1, ratio, 1.0, sigma=0.7).value
            assert abs(a - b) <= 1e-9

    def test_imaginary_residue_unsymmetrized(self):
        """The full line, y in [-100, 100], summed without Schwarz reduction:
        its imaginary part vanishes and its real part is the route's value."""
        h = 0.05
        y = h * np.arange(-2000, 2001)
        for alpha, n, r in [(1.5, 1, 0.7), (1.5, 3, 0.8), (1.3, 2, 1.4)]:
            s = 0.5 * min(alpha, n) + 1j * y
            k = np.array([mb_kernel(alpha, n, x) for x in s])
            line = h * np.sum(k * r ** s) / (2.0 * math.pi)
            z = line / (alpha * math.pi ** (0.5 * n) * r ** n)
            assert abs(z.imag) <= 1e-12
            assert abs(z.real - g_mellin_barnes(alpha, n, r, 1.0).value) <= 1e-9

    def test_route_triangle_with_quadrature(self):
        for n in (1, 3):
            for alpha in (1.1, 1.5, 1.9):
                for ratio in (0.3, 1.0, 3.0):
                    mb = g_mellin_barnes(alpha, n, ratio, 1.0)
                    qd = g_integral(alpha, n, ratio, 1.0)
                    assert abs(mb.value - qd.value) <= mb.est_error + qd.est_error + 1e-9

    def test_two_dimensional_routes_agree(self):
        for ratio in (0.5, 1.0, 2.0):
            mb = g_mellin_barnes(1.5, 2, ratio, 1.0)
            qd = g_integral(1.5, 2, ratio, 1.0)
            assert abs(mb.value - qd.value) <= mb.est_error + qd.est_error

    def test_scaled_time(self):
        res = g_mellin_barnes(1.7, 3, 1.2, 0.4)
        assert abs(res.value - g3(1.7, 1.2, 0.4)) <= 1e-8

    def test_invalid_contour(self):
        with pytest.raises(InvalidInput, match="sigma"):
            g_mellin_barnes(1.5, 1, 1.0, 1.0, sigma=1.2)
        with pytest.raises(InvalidInput, match="sigma"):
            g_mellin_barnes(1.5, 1, 1.0, 1.0, sigma=0.0)

    def test_contour_failure_on_tail_bound(self):
        # Near alpha = 2 the kernel decays too slowly for the capped height.
        for n in (1, 2, 3):
            with pytest.raises(NonConvergence, match=r"tail bound .* at y_max=200000\.0"):
                g_mellin_barnes(1.9999, n, 1.0, 1.0)

    def test_invalid_order_and_point(self):
        with pytest.raises(InvalidInput, match="order"):
            g_mellin_barnes(1.0, 1, 1.0, 1.0)
        with pytest.raises(InvalidInput, match="dimension"):
            g_mellin_barnes(1.5, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            g_mellin_barnes(1.5, 1, 0.0, 1.0)


class TestProfileFunction:
    def test_definitional_identity(self):
        # G(r, t) = r^(-n) L(r/t)
        for n in (1, 2, 3):
            for r, t in [(0.8, 1.0), (1.5, 2.0)]:
                lhs = r ** (-n) * l_aux(1.5, n, r / t)
                rhs = g_mellin_barnes(1.5, n, r, t).value
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_zero_crossing_in_scaled_coordinates(self):
        assert abs(l_aux(1.5, 3, Z_15)) <= 1e-9

    def test_scaled_profile_maximum_matches_product(self):
        # rho^(-1) L_{a,1}(rho) peaks at rho = z_alpha; the peak value times
        # z_alpha is the time-independent product r* G*.
        alpha = 1.5
        rhos = np.linspace(0.6, 1.2, 61)
        vals = [l_aux(alpha, 1, float(rho)) / rho for rho in rhos]
        k = int(np.argmax(vals))
        assert abs(rhos[k] - Z_15) <= 0.02
        product = Z_15 * l_aux(alpha, 1, Z_15) / Z_15
        ref = Z_15 * g1(alpha, Z_15, 1.0)
        assert abs(product - ref) <= 1e-9

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            l_aux(1.5, 1, 0.0)


class TestErrorHonesty:
    """|value - oracle| <= est_error + the oracle's own tolerance on a dense
    grid: the inverse Abel transform for n = 2, the closed forms for n = 1, 3."""

    @pytest.mark.parametrize("alpha", HONESTY_ALPHAS)
    def test_two_dimensional_against_inverse_abel(self, alpha):
        res = g_mellin_barnes(alpha, 2, HONESTY_RHOS, 1.0)
        for rho, value, est in zip(HONESTY_RHOS, res.value, res.est_error):
            ref, ref_tol = g2_abel(alpha, float(rho), 1.0)
            assert abs(value - ref) <= est + ref_tol, (alpha, rho)

    # At alpha = 1.95 the line is long and the terms far larger than G, so
    # the rounding part of est_error carries the bound there.
    @pytest.mark.parametrize("alpha", HONESTY_ALPHAS + (1.95, 1.97, 1.98))
    @pytest.mark.parametrize("n", [1, 3])
    def test_closed_forms(self, alpha, n):
        res = g_mellin_barnes(alpha, n, HONESTY_RHOS, 1.0)
        ref = (g1 if n == 1 else g3)(alpha, HONESTY_RHOS, 1.0)
        assert np.all(np.abs(res.value - ref) <= res.est_error + 1e-13 * np.abs(ref))


class TestArrayInput:
    def test_array_matches_scalar_calls(self):
        r = np.array([[0.05, 0.4, 0.9], [1.0, 2.5, 30.0]])
        for alpha, n in [(1.3, 1), (1.6, 2), (1.9, 3)]:
            res = g_mellin_barnes(alpha, n, r, 0.8)
            assert res.value.shape == r.shape and res.est_error.shape == r.shape
            for idx in np.ndindex(r.shape):
                one = g_mellin_barnes(alpha, n, float(r[idx]), 0.8)
                assert abs(res.value[idx] - one.value) <= res.est_error[idx] + one.est_error

    def test_r_and_t_broadcast(self):
        r = np.array([[0.5], [1.5]])
        t = np.array([0.7, 1.0, 1.4])
        res = g_mellin_barnes(1.5, 3, r, t)
        assert res.value.shape == (2, 3)
        assert np.all(np.abs(res.value - g3(1.5, r, t)) <= res.est_error)

    def test_scalar_call_returns_floats(self):
        res = g_mellin_barnes(1.5, 2, 0.7, 1.0)
        assert type(res.value) is float and type(res.est_error) is float

    def test_empty_grid(self):
        res = g_mellin_barnes(1.5, 1, np.array([]), 1.0)
        assert res.value.shape == (0,) and res.est_error.shape == (0,)

    def test_any_nonpositive_r_rejected(self):
        with pytest.raises(ValueError):
            g_mellin_barnes(1.5, 1, np.array([0.5, 0.0]), 1.0)


class TestNearAlphaTwo:
    """Near alpha = 2 the kernel decays slowly and the line is long.  The step
    halving stops once the h vs h/2 difference is within the rounding bound
    that est_error carries, so dense grids return in well under a second."""

    @pytest.mark.parametrize("alpha,r", [(1.99, 30.0), (1.999, 1.0), (1.9995, 1.0)])
    def test_three_dimensional_corner_converges(self, alpha, r):
        # g3 is exact to rounding here, so the est_error alone must cover it
        res = g_mellin_barnes(alpha, 3, r, 1.0)
        assert abs(res.value - g3(alpha, r, 1.0)) <= res.est_error

    def test_two_dimensional_corner_converges(self):
        res = g_mellin_barnes(1.99, 2, 30.0, 1.0)
        assert math.isfinite(res.value) and math.isfinite(res.est_error)
        ref, ref_tol = g2_abel(1.99, 30.0, 1.0)
        assert abs(res.value - ref) <= res.est_error + ref_tol

    @pytest.mark.parametrize("n", [2, 3])
    def test_dense_grid_returns_within_est_error(self, n):
        rho = np.geomspace(0.01, 100.0, 171)
        start = time.perf_counter()
        res = g_mellin_barnes(1.99, n, rho, 1.0)
        assert time.perf_counter() - start < 5.0
        if n == 3:
            assert np.all(np.abs(res.value - g3(1.99, rho, 1.0)) <= res.est_error)
            return
        for r, value, est in zip(rho[::10], res.value[::10], res.est_error[::10]):
            ref, ref_tol = g2_abel(1.99, float(r), 1.0)
            assert abs(value - ref) <= est + ref_tol

    @pytest.mark.parametrize("n", [2, 3])
    def test_thousand_point_grid_within_est_error(self, n):
        rho = np.geomspace(0.01, 100.0, 1000)
        start = time.perf_counter()
        res = g_mellin_barnes(1.99, n, rho, 1.0)
        assert time.perf_counter() - start < 1.5
        if n == 3:
            assert np.all(np.abs(res.value - g3(1.99, rho, 1.0)) <= res.est_error)
            return
        ref = g_spectral(1.99, 2, rho, 1.0)
        assert np.all(np.abs(res.value - ref.value) <= res.est_error + ref.est_error)


@settings(max_examples=50, deadline=None, database=None)
@given(alpha=st.floats(1.05, 1.999), n=st.sampled_from([1, 2, 3]),
       log10_rho=st.floats(-2.0, 2.0))
def test_finite_result_or_contour_failure(alpha, n, log10_rho):
    """Every call returns a finite value with a finite, nonnegative
    est_error, or raises NonConvergence, within 3 s."""
    start = time.perf_counter()
    try:
        res = g_mellin_barnes(alpha, n, 10.0 ** log10_rho, 1.0)
    except NonConvergence:
        res = None
    assert time.perf_counter() - start < 3.0
    if res is None:
        return
    assert math.isfinite(res.value)
    assert math.isfinite(res.est_error) and res.est_error >= 0.0
