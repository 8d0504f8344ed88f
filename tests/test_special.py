"""Mittag-Leffler evaluator on the negative real axis."""

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
from fracwave.errors import FracWaveError, InvalidInput, NonConvergence
from fracwave.special import (
    DEFAULT_TOL,
    MLResult,
    asymptotic_cutoff,
    ml_neg,
)
from fracwave.special import (
    _EPS,
    _asymptotic_part,
    _branch_cut_integral,
    _branch_cut_mesh,
    _exp_pair_double,
    _inverse_power_table,
    _inverse_power_terms,
    _ml_neg_minus_pair,
    _pair_30_digits,
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
    """_asymptotic_part with the inverse-power series summed all the way to
    its envelope minimum, bounded by twice the envelope past it: the
    reference for the regime's tolerance-driven stop.  x is the 1-element
    array that ml_neg passes."""
    _, terms, _, envelope = _inverse_power_terms(alpha, float(x[0]))
    first_term_scale = abs(_inverse_power_table(alpha).coef[0]) / x
    return float(np.sum(terms)), 2.0 * envelope + 4.0 * _EPS * first_term_scale


def exp_pair(alpha, x, tol):
    """The damped pair as ml_neg adds it, in double precision but for the
    elements _exp_pair_double flags, taken at 30 digits, and its error."""
    value, err, precise = _exp_pair_double(alpha, x, tol)
    return _pair_30_digits(alpha, x, value, precise)[()], err[()]


def with_pair(alpha, x, tol, part, err):
    """A regime's value of E_alpha(-x) as ml_neg forms it, the part plus the
    damped pair, and its est_error: the part's, the pair's and the rounding
    of the sum."""
    pair, pair_err = exp_pair(alpha, x, tol)
    return pair + part, err + 4.0 * _EPS * (abs(pair) + abs(part)) + pair_err


def intermediate(alpha, x, tol):
    """ml_neg's intermediate regime at a scalar x: the branch-cut integral
    plus the pair."""
    return with_pair(alpha, x, tol, *_branch_cut_integral(alpha, x))


def asymptotic(alpha, x, tol):
    """ml_neg's asymptotic regime at a scalar x: the inverse-power sum plus
    the pair."""
    return with_pair(alpha, x, tol, *_asymptotic_part(alpha, x, tol))


# Values frozen from ml_series_oracle (dps=220).
ML_ORACLE = {
    (1.5, 50.0): -0.0045783851058392779913,
    (1.2, 7.3): -0.048097128680560877687,
    (1.9, 3.0): -0.19800617221635834639,
    (1.5, 2.25): -0.034613540180071597424,
    (1.1, 12.0): -0.010048858134930517139,
    (1.999, 80.0): -0.88545596273128945924,
    (1.05, 30.0): -0.0017447785281700866661,
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
        for alpha in (1.0, 1.5, 2.0):
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
        for alpha in (1.1, 1.5, 1.9):
            for x in (0.5, 3.0, 20.0, 300.0):
                r = ml_neg(alpha, x, tol=1e-12)
                assert r.est_error <= 1e-12
                assert r.regime in ("series", "intermediate", "asymptotic")

    def test_result_type(self):
        r = ml_neg(1.5, 2.0)
        assert isinstance(r, MLResult)

    def test_invalid_order(self):
        for bad in (0.0, -1.0, 0.5, 0.999, 2.5):
            with pytest.raises(InvalidInput, match="order"):
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
        # no double-precision regime meets these tolerances; the orders
        # below 1 lie outside the window [1, 2]
        start = time.perf_counter()
        with pytest.raises(NonConvergence if alpha >= 1.0 else InvalidInput):
            ml_neg(alpha, x, tol)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_exact_identities_respect_tol(self, alpha):
        # exp(-x) and cos(sqrt(x)) carry a few eps of rounding
        with pytest.raises(NonConvergence):
            ml_neg(alpha, 0.5, tol=1e-17)

    # (1.9999, 1e6) and (2.0, 1e30) take the pair at 30 digits; at alpha = 2
    # the pair is all of the value
    @pytest.mark.parametrize("alpha,x", [(1.5, 1.5), (1.5, 5.0), (1.5, 100.0), (1.5, 1000.0),
                                         (1.9999, 1e6), (2.0, 1e30)])
    def test_pair_formed_once(self, alpha, x, monkeypatch):
        # outside the series ml_neg adds the pair whose double-precision
        # value and error _ml_neg_parts formed, rather than forming them again
        calls = []
        real = special._exp_pair_double

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(special, "_exp_pair_double", counting)
        r = ml_neg(alpha, x)
        assert r.regime != "series"
        assert len(calls) == 1
        monkeypatch.undo()
        part = (_asymptotic_part(alpha, x, DEFAULT_TOL) if r.regime == "asymptotic"
                else _branch_cut_integral(alpha, x))[0]
        assert r.value == part + exp_pair(alpha, x, DEFAULT_TOL)[0]
        assert _exp_pair_double(alpha, x, DEFAULT_TOL)[2] == (alpha > 1.99)

    def test_limit_at_infinity(self):
        for alpha in (1.0, 1.5, 1.9):
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
            v2, e2 = intermediate(alpha, float(x), tol)
            assert abs(v1 - v2) <= 2.0 * tol + e1 + e2

    @pytest.mark.parametrize("alpha", [1.3, 1.7])
    def test_continuity_at_asymptotic_boundary(self, alpha):
        tol = DEFAULT_TOL
        xa = asymptotic_cutoff(alpha, tol)
        for x in np.geomspace(0.95 * xa, 1.05 * xa, 1000):
            v1, e1 = asymptotic(alpha, float(x), tol)
            v2, e2 = intermediate(alpha, float(x), tol)
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
    @pytest.mark.parametrize("alpha", [1.001, 1.05, 1.25, 1.5, 1.6, 1.75, 1.9, 1.98, 1.9999])
    def test_error_estimate_is_honest(self, alpha):
        # the whole x-range the cached mesh serves, from the series overlap
        # to the asymptotic cutoff
        tol = 1e-13
        for x in np.geomspace(0.5, asymptotic_cutoff(alpha, tol), 40):
            value, est = intermediate(alpha, float(x), tol)
            assert est <= tol
            assert abs(value - ml_series_oracle(alpha, float(x))) <= est + 1e-15

    def test_mesh_is_built_once_per_alpha_for_any_tol(self):
        intermediate(1.37, 3.0, 1e-13)
        before = _branch_cut_mesh.cache_info()
        intermediate(1.37, 7.5, 1e-10)
        after = _branch_cut_mesh.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_cache_is_bounded(self):
        maxsize = _branch_cut_mesh.cache_info().maxsize
        assert maxsize is not None
        for alpha in np.linspace(1.1, 1.9, maxsize + 3):
            intermediate(float(alpha), 3.0, 1e-13)
        assert _branch_cut_mesh.cache_info().currsize <= maxsize

    @pytest.mark.parametrize("alpha", [1.0005, 1.001, 1.01, 1.5, 1.999])
    def test_sum_rounds_within_its_charge(self, alpha, monkeypatch):
        # the integral charges 4 eps |value| for its rounding; math.fsum of
        # the same products of exponentials and weights is their exact sum.
        # Near alpha = 1 the mesh has ~1800 nodes, and a BLAS dot product
        # over them rounded up to 6.9 eps |value|.
        meshes = []

        def spy(*args):
            meshes.append(_branch_cut_mesh(*args))
            return meshes[-1]

        monkeypatch.setattr(special, "_branch_cut_mesh", spy)
        xs = np.geomspace(0.5, asymptotic_cutoff(alpha, 1e-13), 300)
        value, _ = _branch_cut_integral(alpha, xs)
        nodes, w, _ = meshes[0]
        for p, v in zip(xs ** (1.0 / alpha), value):
            exact = math.fsum(np.exp(-p * nodes.ravel()) * w.ravel())
            assert abs(v - exact) <= 4.0 * _EPS * abs(v)


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


class TestSeriesFallback:
    # Just above the series cutoff the branch-cut integral's estimate on its
    # mesh is 2e-15 to 6e-15 at alpha = 1.05-1.5: it meets tol 1e-14, and
    # at 3e-15 the Taylor sum takes the x where it misses.
    XS = np.concatenate((np.linspace(1.0, 1.2, 41)[1:], np.linspace(1.2, 2.0, 21)[1:]))

    @pytest.mark.parametrize("alpha", [1.05, 1.25, 1.5, 1.75, 1.95])
    def test_tight_tol_returns_honest_value(self, alpha):
        for x in self.XS:
            r = ml_neg(alpha, float(x), 1e-14)
            assert r.est_error <= 1e-14
            assert abs(r.value - ml_series_oracle(alpha, float(x), dps=60)) <= r.est_error

    @pytest.mark.parametrize("alpha", [1.05, 1.25, 1.5])
    def test_tighter_tol_falls_back_to_the_series(self, alpha):
        regimes = set()
        for x in self.XS:
            r = ml_neg(alpha, float(x), 3e-15)
            regimes.add(r.regime)
            assert r.est_error <= 3e-15
            assert abs(r.value - ml_series_oracle(alpha, float(x), dps=60)) <= r.est_error
        assert "series" in regimes


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

    @pytest.mark.parametrize("x", [15.0, 1e3])
    def test_small_order_is_bounded(self, x):
        # alpha = 0.1 lies outside the window [1, 2]
        start = time.perf_counter()
        with pytest.raises(InvalidInput, match="order"):
            ml_neg(0.1, x)
        assert time.perf_counter() - start < 1.0


class TestTolDrivenSum:
    """The asymptotic regime sums its inverse-power series only until the
    omitted part, (k_end - K) env(K + 1) + 2 env(k_end + 1), is below
    1e-3 tol.  At alpha = 1.05 and x = 1e8 the envelope minimum k_end
    ~ 4e7 lies far past _INV_POWER_MAX_TERMS: the term cap is exercised."""

    ALPHAS = (1.05, 1.3, 1.6, 1.9, 1.99)

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
            if alpha < 1.0:  # outside the window [1, 2]
                with pytest.raises(InvalidInput):
                    ml_neg(alpha, x, tol)
                continue
            with monkeypatch.context() as m:
                m.setattr(special, "_asymptotic_part", full_sum_asymptotic)
                ref = ml_neg(alpha, x, tol)
            got = ml_neg(alpha, x, tol)
            assert got.regime == ref.regime
            assert abs(got.value - ref.value) <= got.est_error + ref.est_error

    def test_table_is_built_once_per_alpha(self):
        asymptotic(1.37, 200.0, 1e-13)
        before = _inverse_power_table.cache_info()
        asymptotic(1.37, 900.0, 1e-10)
        _inverse_power_terms(1.37, 300.0)
        after = _inverse_power_table.cache_info()
        assert after.hits == before.hits + 2
        assert after.misses == before.misses

    def test_cache_is_bounded(self):
        maxsize = _inverse_power_table.cache_info().maxsize
        assert maxsize is not None
        for alpha in np.linspace(1.1, 1.9, maxsize + 3):
            asymptotic(float(alpha), 500.0, 1e-13)
        assert _inverse_power_table.cache_info().currsize <= maxsize


def pair_oracle(alpha, x, dps=40):
    """The damped pair (2/alpha) e^{s cos(pi/alpha)} cos(s sin(pi/alpha)),
    s = x^(1/alpha), at dps digits."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        s = mp.mpf(x) ** (1 / a)
        return float(2 / a * mp.exp(s * mp.cos(mp.pi / a)) * mp.cos(s * mp.sin(mp.pi / a)))


class TestArrayKernel:
    """_ml_neg_minus_pair, the radial integral's integrand: E_alpha(-x)
    minus its damped pair on a whole array, each element in the regime that
    the scalar ml_neg chooses for it."""

    ALPHAS = (1.001, 1.05, 1.5, 1.9, 1.999)

    @staticmethod
    def mixed_xs(alpha, tol, intermediate=True):
        """x = 0, x <= 1, x in (1, 2], the intermediate range, and x from
        the asymptotic cutoff on, in one array."""
        xa = asymptotic_cutoff(alpha, tol)
        return np.concatenate(([0.0], np.geomspace(1e-3, 1.0, 4), np.linspace(1.1, 2.0, 4),
                               np.geomspace(3.0, 0.95 * xa, 4 if intermediate else 0),
                               xa * np.array([1.0, 1.02, 3.0])))

    @staticmethod
    def own_part(alpha, x, tol):
        """ml_neg's value without the pair, from the parts of its own regime."""
        r = ml_neg(alpha, x, tol)
        if r.regime == "intermediate":
            return _branch_cut_integral(alpha, x)[0]
        if r.regime == "asymptotic":
            return _asymptotic_part(alpha, x, tol)[0]
        return r.value - exp_pair(alpha, x, tol)[0]

    # tol 3e-15 at alpha = 1.25 takes the series fallback on (1, 2], and no
    # regime attains it on (2, x_a)
    @pytest.mark.parametrize("alpha,tol,intermediate",
                             [(a, 1e-13, True) for a in ALPHAS]
                             + [(1.05, 1e-14, True), (1.25, 3e-15, False)])
    def test_every_regime_against_mpmath(self, alpha, tol, intermediate):
        xs = self.mixed_xs(alpha, tol, intermediate)
        xa = asymptotic_cutoff(alpha, tol)
        value, rounding = _ml_neg_minus_pair(alpha, xs, tol)
        assert value.shape == rounding.shape == xs.shape
        for x, v, bound in zip(xs.tolist(), value, rounding):
            assert abs(v - self.own_part(alpha, x, tol)) <= 8.0 * _EPS * abs(v)
            oracle = ml_asymptotic_oracle(alpha, x) if x >= xa else ml_series_oracle(alpha, x)
            assert abs(v - (oracle - pair_oracle(alpha, x))) <= tol + bound

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_asymptotic_fallback(self, alpha, monkeypatch):
        # no tolerance these tests reach makes the asymptotic regime miss it
        # above the cutoff, so a truncation floor raised by 2 tol below
        # 1.1 x_a stands in: there both calls fall back to the intermediate
        # regime
        tol = 1e-13
        xa = asymptotic_cutoff(alpha, tol)
        real = special._asymptotic_part

        def high_floor(alpha, x, tol):
            value, est = real(alpha, x, tol)
            return value, est + np.where(np.asarray(x) < 1.1 * xa, 2.0 * tol, 0.0)

        monkeypatch.setattr(special, "_asymptotic_part", high_floor)
        xs = xa * np.array([1.0, 1.05, 1.2, 2.0])
        value, _ = _ml_neg_minus_pair(alpha, xs, tol)
        assert [ml_neg(alpha, x, tol).regime for x in xs.tolist()] == \
            ["intermediate", "intermediate", "asymptotic", "asymptotic"]
        for x, v in zip(xs.tolist(), value):
            assert abs(v - self.own_part(alpha, x, tol)) <= 8.0 * _EPS * abs(v)

    def test_unreachable_element_raises(self):
        # at tol 1e-15 the Taylor sum's rounding bound misses at x = 0.5
        alpha, tol, xs = 1.5, 1e-15, np.array([0.0, 1e4, 0.5])
        ml_neg(alpha, 0.0, tol)
        ml_neg(alpha, 1e4, tol)
        with pytest.raises(NonConvergence):
            ml_neg(alpha, 0.5, tol)
        with pytest.raises(NonConvergence):
            _ml_neg_minus_pair(alpha, xs, tol)
        _ml_neg_minus_pair(alpha, xs[:2], tol)


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

    def test_cosine_is_honest_over_the_double_range(self):
        for x in np.geomspace(1e-6, 1e300, 400).tolist():
            r = ml_neg(2.0, x)
            with mp.workdps(80 + max(0, int(math.log10(x) / 2))):
                assert abs(mp.mpf(r.value) - mp.cos(mp.sqrt(mp.mpf(x)))) <= r.est_error, x

    # next to alpha = 2 the pair's phase s cos(d) needs log10(s) digits
    # before the point as well as 30 after it
    @pytest.mark.parametrize("x", [1e28, 1e30, 1e31])
    @pytest.mark.parametrize("alpha", [float(np.nextafter(2.0, 0.0)), 2.0 - 1e-15, 2.0 - 1e-14])
    def test_next_to_two_is_honest(self, alpha, x):
        r = ml_neg(alpha, x)
        assert r.regime == "asymptotic"
        with mp.workdps(80):
            a = mp.mpf(alpha)
            s = mp.mpf(x) ** (1 / a)
            pair = 2 / a * mp.exp(s * mp.cos(mp.pi / a)) * mp.cos(s * mp.sin(mp.pi / a))
            ref = pair + mp.mpf(_asymptotic_part(alpha, x, DEFAULT_TOL)[0])
            assert abs(mp.mpf(r.value) - ref) <= r.est_error


def assert_finite_result_or_fracwave_error(alpha, x, tol, seconds):
    """The call returns a finite value with est_error <= tol, or raises a
    FracWaveError, within the given wall time; an order below 1 raises
    InvalidInput."""
    start = time.perf_counter()
    try:
        r = ml_neg(alpha, x, tol)
    except FracWaveError as exc:
        assert alpha >= 1.0 or type(exc) is InvalidInput
    else:
        assert alpha >= 1.0
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
    # outside the window [1, 2], where x^(1/alpha) would leave the double range
    assert_finite_result_or_fracwave_error(alpha, x, DEFAULT_TOL, 1.0)
