"""Mittag-Leffler evaluator, complex log-Gamma, and Bessel kernels."""

import functools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as scipy_gamma

from fracwave import special
from fracwave.errors import (
    FracWaveError,
    InvalidOrder,
    NonConvergence,
    PoleError,
    UnsupportedOrder,
)
from fracwave.special import (
    DEFAULT_TOL,
    MLResult,
    asymptotic_cutoff,
    bessel_kernel,
    log_gamma_complex,
    ml_neg,
)
from fracwave.special import (
    _EPS,
    _branch_cut_rule,
    _exp_pair,
    _inverse_power_table,
    _inverse_power_terms,
    _ml_asymptotic,
    _ml_intermediate,
    _taylor_kahan,
)


def ml_series_oracle(alpha, x, dps=200):
    """Brute-force arbitrary-precision Taylor summation, independent of the
    production evaluator."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        z = -mp.mpf(x)
        total = mp.mpf(0)
        for k in range(100000):
            term = z ** k / mp.gamma(1 + a * k)
            total += term
            if k > 10 and abs(term) < mp.mpf(10) ** (-dps + 20) * (1 + abs(total)):
                return float(total)
    raise RuntimeError("oracle did not converge")


def ml_asymptotic_oracle(alpha, x, dps=60):
    """Inverse-power series of E_alpha(-x) cut at its envelope minimum
    alpha k = x^(1/alpha), plus the exponential pair (present for
    alpha > 1), at dps digits: the asymptotic regime's sum without its
    rounding."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        xm = mp.mpf(x)
        s = xm ** (1 / a)
        total = mp.mpf(0)
        for k in range(1, max(1, int(s / a)) + 1):
            if mp.gamma(a * k) / (mp.pi * xm ** k) < mp.mpf(10) ** (-40):
                break  # the envelope falls until the cut: the rest is smaller
            total += (-1) ** (k + 1) * mp.rgamma(1 - a * k) / xm ** k
        th = mp.pi / a
        pair = 2 / a * mp.exp(s * mp.cos(th)) * mp.cos(s * mp.sin(th)) if a > 1 else 0
        return float(total + pair)


def full_sum_asymptotic(alpha, x, tol):
    """The asymptotic regime with the inverse-power series summed all the way
    to its envelope minimum, bounded by twice the envelope past it: the
    reference for the regime's tolerance-driven stop."""
    pair, pair_err = _exp_pair(alpha, x, tol)
    _, terms, _, envelope = _inverse_power_terms(alpha, x)
    total = float(np.sum(terms))
    first_term_scale = abs(_inverse_power_table(alpha).coef[0]) / x
    est = 2.0 * envelope + 4.0 * _EPS * (abs(total) + abs(pair) + first_term_scale) + pair_err
    return pair + total, est


# Values frozen from ml_series_oracle (dps=220).
ML_ORACLE = {
    (1.5, 50.0): -0.0045783851058392779913,
    (1.2, 7.3): -0.048097128680560877687,
    (1.9, 3.0): -0.19800617221635834639,
    (0.7, 2.5): 0.16863128667619575153,
    (1.5, 2.25): -0.034613540180071597424,
    (1.1, 12.0): -0.010048858134930517139,
    (1.999, 80.0): -0.88545596273128945924,
    (1.05, 30.0): -0.0017447785281700866661,
    (0.5, 4.0): 0.13699945762506138989,
    (1.5, 0.75): 0.52192358905417084177,
}


class TestMlNeg:
    def test_exponential_at_alpha_one(self):
        for x in np.linspace(0.0, 100.0, 200):
            r = ml_neg(1.0, float(x))
            assert abs(r.value - math.exp(-x)) <= 1e-10

    def test_cosine_at_alpha_two(self):
        for x in np.linspace(0.0, 100.0, 200):
            r = ml_neg(2.0, float(x))
            assert abs(r.value - math.cos(math.sqrt(x))) <= 1e-10

    def test_unit_value_at_zero(self):
        for alpha in (0.3, 1.0, 1.5, 2.0):
            r = ml_neg(alpha, 0.0)
            assert r.value == 1.0
            assert r.est_error == 0.0

    def test_against_200_digit_series(self):
        # the spec's flagship oracle case, recomputed in-test
        ref = ml_series_oracle(1.5, 50.0)
        assert abs(ml_neg(1.5, 50.0).value - ref) <= 1e-10

    @pytest.mark.parametrize("alpha,x", sorted(ML_ORACLE))
    def test_frozen_oracle_values(self, alpha, x):
        r = ml_neg(alpha, x)
        assert abs(r.value - ML_ORACLE[(alpha, x)]) <= max(1e-12, r.est_error)

    def test_est_error_within_tolerance(self):
        for alpha in (1.1, 1.5, 1.9, 0.8):
            for x in (0.5, 3.0, 20.0, 300.0):
                r = ml_neg(alpha, x, tol=1e-12)
                assert r.est_error <= 1e-12
                assert r.regime in ("series", "intermediate", "asymptotic")

    def test_result_type(self):
        r = ml_neg(1.5, 2.0)
        assert isinstance(r, MLResult)

    def test_invalid_order(self):
        for bad in (0.0, -1.0, 2.5):
            with pytest.raises(InvalidOrder):
                ml_neg(bad, 1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ml_neg(1.5, -1.0)
        with pytest.raises(ValueError):
            ml_neg(1.5, 1.0, tol=0.0)

    def test_pathological_tolerance_raises(self):
        with pytest.raises(NonConvergence):
            ml_neg(1.5, 2.0, tol=1e-320)

    @pytest.mark.parametrize("alpha,x,tol", [
        (0.2, 5.0, 1e-15), (0.107, 3.89, 1e-15), (1.5, 0.5, 1e-15),
        (0.001, 3.0, DEFAULT_TOL)])
    def test_unmet_tolerance_raises_at_once(self, alpha, x, tol):
        # no double-precision regime meets these tolerances
        start = time.perf_counter()
        with pytest.raises(NonConvergence):
            ml_neg(alpha, x, tol)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_exact_identities_respect_tol(self, alpha):
        # exp(-x) and cos(sqrt(x)) carry a few eps of rounding
        with pytest.raises(NonConvergence):
            ml_neg(alpha, 0.5, tol=1e-17)

    def test_limit_at_infinity(self):
        for alpha in (0.5, 1.0, 1.5, 1.9):
            assert ml_neg(alpha, math.inf) == MLResult(0.0, "asymptotic", 0.0)

    def test_no_limit_at_infinity_for_alpha_two(self):
        # E_2(-x) = cos(sqrt(x)) oscillates without decay
        with pytest.raises(ValueError):
            ml_neg(2.0, math.inf)


class TestRegimes:
    def test_series_regime_below_cutoff(self):
        assert ml_neg(1.5, 0.5).regime == "series"

    def test_asymptotic_regime_engaged(self):
        alpha = 1.3
        x = asymptotic_cutoff(alpha, DEFAULT_TOL) * 1.5
        assert ml_neg(alpha, x).regime == "asymptotic"

    @pytest.mark.parametrize("alpha", [1.3, 1.7])
    def test_continuity_at_series_boundary(self, alpha):
        tol = DEFAULT_TOL
        for x in np.geomspace(0.5, 2.0, 1000):
            v1, e1 = _taylor_kahan(alpha, float(x))
            v2, e2 = _ml_intermediate(alpha, float(x), tol)
            assert abs(v1 - v2) <= 2.0 * tol + e1 + e2

    @pytest.mark.parametrize("alpha", [1.3, 1.7])
    def test_continuity_at_asymptotic_boundary(self, alpha):
        tol = DEFAULT_TOL
        xa = asymptotic_cutoff(alpha, tol)
        for x in np.geomspace(0.95 * xa, 1.05 * xa, 1000):
            v1, e1 = _ml_asymptotic(alpha, float(x), tol)
            v2, e2 = _ml_intermediate(alpha, float(x), tol)
            assert abs(v1 - v2) <= 2.0 * tol + e1 + e2

    def test_tail_product_approaches_reciprocal_gamma(self):
        # x * E_alpha(-x) -> 1/Gamma(1-alpha).  The 5/x bound is provable only
        # while the damped-oscillation pair stays below it, which restricts
        # the check to alpha <= 1.5 on x in [50, 1e4] (see decisions ledger).
        for alpha in (1.05, 1.2, 1.35, 1.5):
            lim = 1.0 / scipy_gamma(1.0 - alpha)
            for x in np.geomspace(50.0, 1e4, 25):
                v = ml_neg(alpha, float(x)).value
                assert abs(x * v - lim) <= 5.0 / x


class TestBranchCutRule:
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.05, 1.25, 1.5, 1.6, 1.75, 1.9, 1.98])
    def test_error_estimate_is_honest(self, alpha):
        # the whole x-range the cached rule serves, from the series overlap
        # to the asymptotic cutoff
        tol = 1e-13
        for x in np.geomspace(0.5, asymptotic_cutoff(alpha, tol), 40):
            value, est = _ml_intermediate(alpha, float(x), tol)
            assert est <= tol
            assert abs(value - ml_series_oracle(alpha, float(x))) <= est + 1e-15

    def test_rule_is_built_once_per_alpha_and_tol(self):
        _ml_intermediate(1.37, 3.0, 1e-13)
        before = _branch_cut_rule.cache_info()
        _ml_intermediate(1.37, 7.5, 1e-13)
        after = _branch_cut_rule.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_cache_is_bounded(self):
        maxsize = _branch_cut_rule.cache_info().maxsize
        assert maxsize is not None
        for tol in np.geomspace(1e-13, 1e-10, maxsize + 3):
            _ml_intermediate(1.5, 3.0, float(tol))
        assert _branch_cut_rule.cache_info().currsize <= maxsize


class TestIntermediateRegime:
    # x between the series and asymptotic cutoffs, with (1.02, 17.92), where
    # a double-precision Taylor sum is 4e-8 off: its terms each carry about
    # eps |log Gamma| of relative error, above its eps max|term| bound
    ALPHAS = (1.02, 1.1, 1.34, 1.58, 1.82, 1.98)
    XS = np.geomspace(1.001, 25.0, 30)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def oracle(alpha, x):
        return ml_series_oracle(alpha, x, dps=80)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-13])
    def test_error_estimate_is_honest(self, tol):
        for alpha in self.ALPHAS:
            for x in self.XS[self.XS < asymptotic_cutoff(alpha, tol)]:
                r = ml_neg(alpha, float(x), tol)
                assert r.regime == "intermediate"
                assert r.est_error <= tol
                assert abs(r.value - self.oracle(alpha, float(x))) <= r.est_error


class TestAsymptoticRegime:
    @pytest.mark.parametrize("alpha", [1.05, 1.3, 1.6, 1.8, 1.9, 1.95, 1.98, 1.99, 1.995])
    def test_error_estimate_is_honest(self, alpha):
        # near alpha = 2 the barely damped pair's phase rounding dominates;
        # at 1.995 only the 30-digit pair keeps the regime within tol
        tol = 1e-13
        for x in np.geomspace(asymptotic_cutoff(alpha, tol), 1e5, 60):
            r = ml_neg(alpha, float(x), tol)
            assert r.regime == "asymptotic"
            assert r.est_error <= tol
            assert abs(r.value - ml_asymptotic_oracle(alpha, float(x))) <= r.est_error

    def test_half_order_closed_form(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x); the envelope minimum lies at
        # k = 2 x^2, up to 2e12 terms here, far past the term cap
        for x in np.geomspace(15.0, 1e6, 30):
            r = ml_neg(0.5, float(x))
            with mp.workdps(50):
                ref = float(mp.exp(mp.mpf(x) ** 2) * mp.erfc(mp.mpf(x)))
            assert r.regime == "asymptotic"
            assert r.est_error <= DEFAULT_TOL
            assert abs(r.value - ref) <= r.est_error

    @pytest.mark.parametrize("x", [15.0, 1e3])
    def test_small_order_is_bounded(self, x):
        # x^(1/alpha)/alpha is 5.8e12 and 1e31 terms at alpha = 0.1
        r = ml_neg(0.1, x)
        assert math.isfinite(r.value)
        assert r.est_error <= DEFAULT_TOL


class TestTolDrivenSum:
    """The asymptotic regime sums its inverse-power series only until the
    omitted part, (k_end - K) env(K + 1) + 2 env(k_end + 1), is below
    1e-3 tol."""

    ALPHAS = (0.5, 0.8, 1.05, 1.3, 1.6, 1.9, 1.99)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-13])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_error_estimate_is_honest(self, alpha, tol):
        xs = list(np.geomspace(asymptotic_cutoff(alpha, tol), 1e8, 25))
        if (alpha, tol) == (1.05, 1e-13):
            # the envelope ratio is near 1 here: 2 env(K + 1) alone
            # under-reports the omitted terms
            xs.append(44.79)
        for x in xs:
            r = ml_neg(alpha, float(x), tol)
            assert r.regime == "asymptotic"
            assert r.est_error <= tol
            assert abs(r.value - ml_asymptotic_oracle(alpha, float(x))) <= r.est_error

    def test_regime_labels_match_the_full_sum(self, monkeypatch):
        rng = np.random.default_rng(20151)
        for _ in range(300):
            alpha = float(rng.uniform(0.1, 2.0))
            tol = float(10.0 ** rng.uniform(-13.0, -6.0))
            x = float(asymptotic_cutoff(alpha, tol) * 10.0 ** rng.uniform(-0.2, 4.0))
            with monkeypatch.context() as m:
                m.setattr(special, "_ml_asymptotic", full_sum_asymptotic)
                ref = ml_neg(alpha, x, tol)
            got = ml_neg(alpha, x, tol)
            assert got.regime == ref.regime
            assert abs(got.value - ref.value) <= got.est_error + ref.est_error

    def test_table_is_built_once_per_alpha(self):
        _ml_asymptotic(1.37, 200.0, 1e-13)
        before = _inverse_power_table.cache_info()
        _ml_asymptotic(1.37, 900.0, 1e-10)
        _inverse_power_terms(1.37, 300.0)
        after = _inverse_power_table.cache_info()
        assert after.hits == before.hits + 2
        assert after.misses == before.misses

    def test_cache_is_bounded(self):
        maxsize = _inverse_power_table.cache_info().maxsize
        assert maxsize is not None
        for alpha in np.linspace(1.1, 1.9, maxsize + 3):
            _ml_asymptotic(float(alpha), 500.0, 1e-13)
        assert _inverse_power_table.cache_info().currsize <= maxsize


class TestOrderTwo:
    @pytest.mark.parametrize("x", [1e30, 1e36, 1e38, 1e40, 1e300])
    def test_large_argument_is_bounded_and_honest(self, x):
        # E_2(-x) = cos(sqrt(x)); the phase needs log10(sqrt(x)) digits
        # before the point
        start = time.perf_counter()
        r = ml_neg(2.0, x)
        assert time.perf_counter() - start < 1.0
        with mp.workdps(80 + int(math.log10(x) / 2)):
            ref = mp.cos(mp.sqrt(mp.mpf(x)))
            assert abs(mp.mpf(r.value) - ref) <= r.est_error
        assert r.est_error <= DEFAULT_TOL


def assert_finite_result_or_fracwave_error(alpha, x, tol, seconds):
    """The call returns a finite value with est_error <= tol, or raises a
    FracWaveError, within the given wall time."""
    start = time.perf_counter()
    try:
        r = ml_neg(alpha, x, tol)
    except FracWaveError:
        pass
    else:
        assert math.isfinite(r.value)
        assert r.est_error <= tol
    assert time.perf_counter() - start < seconds


@settings(max_examples=50, deadline=None, database=None)
@given(alpha=st.floats(1e-4, 2.0),
       x=st.one_of(st.just(0.0), st.floats(-3.0, 8.0).map(lambda e: 10.0 ** e)),
       log10_tol=st.floats(-16.0, -6.0))
def test_finite_result_or_fracwave_error(alpha, x, log10_tol):
    assert_finite_result_or_fracwave_error(alpha, x, 10.0 ** log10_tol, 3.0)


@pytest.mark.parametrize("x", [1.5, 5.0, 100.0])
@pytest.mark.parametrize("alpha", [1e-4, 1e-3, 3e-3, 0.01])
def test_tiny_order_is_bounded(alpha, x):
    # below alpha ~ 0.005, x^(1/alpha) and the branch-cut rule's range
    # leave the double range
    assert_finite_result_or_fracwave_error(alpha, x, DEFAULT_TOL, 1.0)


class TestLogGammaComplex:
    def test_gamma_one_is_zero(self):
        assert abs(log_gamma_complex(1.0)) <= 1e-15

    def test_gamma_half(self):
        assert abs(log_gamma_complex(0.5) - math.log(math.sqrt(math.pi))) <= 1e-14

    def test_oracle_values(self):
        # frozen from mpmath.loggamma (dps=40)
        cases = {
            1 + 1j: -0.65092319930185633889 - 0.30164032046753319789j,
            3.7 - 2.1j: 0.78534695807382220148 - 2.5830129251152620266j,
            -2.5 + 0.5j: -0.93508562129827747868 - 8.8709628852474591986j,
        }
        for z, ref in cases.items():
            got = log_gamma_complex(z)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_recurrence_property(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            z = complex(rng.uniform(0.1, 10.0), rng.uniform(-10.0, 10.0))
            lhs = np.exp(log_gamma_complex(z + 1) - log_gamma_complex(z))
            assert abs(lhs - z) <= 1e-12 * abs(z)

    def test_pole_error(self):
        for bad in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                log_gamma_complex(bad)


class TestBesselKernel:
    def test_j0_at_zero(self):
        assert bessel_kernel(0.0, 0.0) == 1.0

    def test_half_order_closed_form(self):
        assert abs(bessel_kernel(0.5, math.pi)) <= 1e-15
        z = 2.3
        assert abs(bessel_kernel(0.5, z) - math.sqrt(2 / (math.pi * z)) * math.sin(z)) <= 1e-15
        assert abs(bessel_kernel(-0.5, z) - math.sqrt(2 / (math.pi * z)) * math.cos(z)) <= 1e-15

    def test_half_order_origin_limits(self):
        assert bessel_kernel(0.5, 0.0) == 0.0
        assert bessel_kernel(-0.5, 0.0) == math.inf

    def test_j0_oracle(self):
        # frozen from mpmath.besselj(0, .) at dps=40
        assert abs(bessel_kernel(0.0, 10.0) - (-0.2459357644513483352)) <= 1e-12
        assert abs(bessel_kernel(0.0, 2.7) - (-0.14244937004601182182)) <= 1e-12
        assert abs(bessel_kernel(0.0, 55.5) - (-0.0281040743011523956)) <= 1e-12

    def test_j0_large_argument_asymptotics(self):
        for z in np.geomspace(20.0, 1e3, 60):
            approx = math.sqrt(2.0 / (math.pi * z)) * math.cos(z - math.pi / 4.0)
            assert abs(bessel_kernel(0.0, float(z)) - approx) <= 2.0 * z ** -1.5

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            bessel_kernel(1.0, 2.0)
        with pytest.raises(ValueError):
            bessel_kernel(0.0, -1.0)
