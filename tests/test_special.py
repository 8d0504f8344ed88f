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
from scipy.special import gammaln

from fracwave import special
from fracwave.errors import FracWaveError, InvalidInput, NonConvergence
from fracwave.special import (
    MLResult,
    asymptotic_cutoff,
    ml_neg,
)
from fracwave.special import (
    _EPS,
    _TOL,
    _asymptotic_part,
    _branch_cut_integral,
    _branch_cut_mesh,
    _exp_pair_double,
    _inverse_power_coefficients,
    _ml_neg_minus_pair,
    _ml_neg_parts,
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


def inverse_power_terms(alpha, x):
    """The inverse-power series of E_alpha(-x), x > 1, in mpmath at the
    working precision: its terms (-1)^(k+1) x^(-k) / Gamma(1 - alpha k)
    from k = 1, and a bound on the rest of its optimal truncation.  The
    envelope env(k) = Gamma(alpha k) x^(-k) / pi bounds each term and falls
    until k_end = floor(x^(1/alpha) / alpha); past k_end the remainder is at
    most 2 env(k_end + 1).  The terms run to k_end, or stop at the first k
    where env(k) < 1e-40 / x: the rest is then at most
    (k_end - k + 3) env(k) < 1e-39."""
    a, xm = mp.mpf(alpha), mp.mpf(x)
    k_end = int(xm ** (1 / a) / a)
    terms = []
    for k in range(1, k_end + 2):
        env = mp.gamma(a * k) / (mp.pi * xm ** k)
        if k > k_end:
            return terms, 2 * env
        if env < mp.mpf(10) ** -40 / xm:
            return terms, (k_end - k + 3) * env
        terms.append((-1) ** (k + 1) * mp.rgamma(1 - a * k) / xm ** k)


def ml_asymptotic_oracle(alpha, x, dps=60):
    """Inverse-power series of E_alpha(-x) cut at its envelope minimum
    (inverse_power_terms), plus the exponential pair (present for
    alpha > 1), at dps digits: the asymptotic regime's sum without its
    rounding."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        s = mp.mpf(x) ** (1 / a)
        th = mp.pi / a
        pair = 2 / a * mp.exp(s * mp.cos(th)) * mp.cos(s * mp.sin(th)) if a > 1 else 0
        return float(mp.fsum(inverse_power_terms(alpha, x)[0]) + pair)


def full_sum_asymptotic(alpha, x):
    """_asymptotic_part with the inverse-power series summed at 60 digits
    all the way to its envelope minimum, bounded by twice the envelope past
    it and the rounding of the result: the reference for the regime's
    fixed length.  x is the 1-element array that ml_neg passes."""
    with mp.workdps(60):
        terms, rest = inverse_power_terms(alpha, float(x[0]))
        value = float(mp.fsum(terms))
        return value, float(rest) + _EPS * abs(value)


def exp_pair(alpha, x):
    """The damped pair as ml_neg adds it, in double precision but for the
    elements _exp_pair_double flags, taken at 30 digits, and its error."""
    value, err, precise = _exp_pair_double(alpha, x)
    return (_pair_30_digits(alpha, x) if precise else value[()]), err[()]


def with_pair(alpha, x, part, err):
    """A regime's value of E_alpha(-x) as ml_neg forms it, the part plus the
    damped pair, and its est_error: the part's, the pair's and the rounding
    of the sum."""
    pair, pair_err = exp_pair(alpha, x)
    return pair + part, err + 4.0 * _EPS * (abs(pair) + abs(part)) + pair_err


def intermediate(alpha, x):
    """ml_neg's intermediate regime at a scalar x: the branch-cut integral
    plus the pair."""
    return with_pair(alpha, x, *_branch_cut_integral(alpha, x))


def asymptotic(alpha, x):
    """ml_neg's asymptotic regime at a scalar x: the inverse-power sum plus
    the pair."""
    return with_pair(alpha, x, *_asymptotic_part(alpha, x))


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
                r = ml_neg(alpha, x)
                assert r.est_error <= _TOL
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
        part = (_asymptotic_part(alpha, x) if r.regime == "asymptotic"
                else _branch_cut_integral(alpha, x))[0]
        assert r.value == part + exp_pair(alpha, x)[0]
        assert _exp_pair_double(alpha, x)[2] == (alpha > 1.99)

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
        x = asymptotic_cutoff(alpha) * 1.5
        assert ml_neg(alpha, x).regime == "asymptotic"

    @pytest.mark.parametrize("alpha", [1.3, 1.7])
    def test_continuity_at_series_boundary(self, alpha):
        for x in np.geomspace(0.5, 2.0, 1000):
            v1, e1 = _taylor_kahan(alpha, float(x))
            v2, e2 = intermediate(alpha, float(x))
            assert abs(v1 - v2) <= 2.0 * _TOL + e1 + e2

    @pytest.mark.parametrize("alpha", [1.3, 1.7])
    def test_continuity_at_asymptotic_boundary(self, alpha):
        xa = asymptotic_cutoff(alpha)
        for x in np.geomspace(0.95 * xa, 1.05 * xa, 1000):
            v1, e1 = asymptotic(alpha, float(x))
            v2, e2 = intermediate(alpha, float(x))
            assert abs(v1 - v2) <= 2.0 * _TOL + e1 + e2

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
        for x in np.geomspace(0.5, asymptotic_cutoff(alpha), 40):
            value, est = intermediate(alpha, float(x))
            assert est <= _TOL
            assert abs(value - ml_series_oracle(alpha, float(x))) <= est + 1e-15

    def test_mesh_is_built_once_per_alpha(self):
        intermediate(1.37, 3.0)
        before = _branch_cut_mesh.cache_info()
        intermediate(1.37, 7.5)
        after = _branch_cut_mesh.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_cache_is_bounded(self):
        maxsize = _branch_cut_mesh.cache_info().maxsize
        assert maxsize is not None
        for alpha in np.linspace(1.1, 1.9, maxsize + 3):
            intermediate(float(alpha), 3.0)
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
        xs = np.geomspace(0.5, asymptotic_cutoff(alpha), 300)
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

    def test_error_estimate_is_honest(self):
        for alpha in self.ALPHAS:
            for x in self.XS[self.XS < asymptotic_cutoff(alpha)]:
                r = ml_neg(alpha, float(x))
                assert r.regime == "intermediate"
                assert r.est_error <= _TOL
                assert abs(r.value - self.oracle(alpha, float(x))) <= r.est_error

    # just above the series cutoff, where the branch-cut integral's estimate
    # on its mesh is 2e-15 to 6e-15 at alpha = 1.05-1.5
    @pytest.mark.parametrize("alpha", [1.05, 1.25, 1.5, 1.75, 1.95])
    def test_above_the_series_cutoff_is_honest(self, alpha):
        for x in np.concatenate((np.linspace(1.0, 1.2, 41)[1:], np.linspace(1.2, 2.0, 21)[1:])):
            r = ml_neg(alpha, float(x))
            assert r.regime == "intermediate"
            assert abs(r.value - ml_series_oracle(alpha, float(x), dps=60)) <= r.est_error


# Orders next to the ends of the window and across it
SWEEP_ALPHAS = [1.0, 1.0 + 1e-15, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.01,
                *np.linspace(1.02, 1.98, 25).tolist(),
                1.99, 1.999, 2.0 - 1e-6, 2.0 - 1e-9, 2.0 - 1e-12, 2.0 - 1e-15, 2.0]


class TestAsymptoticRegime:
    # every order of the sweep but the exact ends, where ml_neg is exp(-x)
    # and cos(sqrt(x))
    @pytest.mark.parametrize("alpha", list(dict.fromkeys(
        [1.05, 1.3, 1.6, 1.8, 1.9, 1.95, 1.98, 1.99, 1.995, *SWEEP_ALPHAS[1:-1]])))
    def test_error_estimate_is_honest(self, alpha):
        # from the cutoff to the top of the double range, where 1/x is
        # subnormal.  Near alpha = 2 the barely damped pair's phase rounding
        # dominates; at 1.995 only the 30-digit pair keeps the regime within
        # the target.  Powers formed as exp(-k log x) carried ~k |log x| eps
        # of rounding, up to 32 times the est_error from x ~ 1e22 on this grid
        for x in np.geomspace(asymptotic_cutoff(alpha), 1.7e308, 60):
            r = ml_neg(alpha, float(x))
            assert r.regime == "asymptotic"
            assert r.est_error <= _TOL
            assert abs(r.value - ml_asymptotic_oracle(alpha, float(x))) <= r.est_error

    @pytest.mark.parametrize("x", [15.0, 1e3])
    def test_small_order_is_bounded(self, x):
        # alpha = 0.1 lies outside the window [1, 2]
        start = time.perf_counter()
        with pytest.raises(InvalidInput, match="order"):
            ml_neg(0.1, x)
        assert time.perf_counter() - start < 1.0


class TestTolDrivenSum:
    """The asymptotic regime sums its inverse-power series to the fixed
    length that _TOL sets, K = floor(log(20/_TOL)/alpha), the envelope
    minimum at the cutoff, and charges (k_end - K + 3) env(K + 1) for the
    omitted part (_asymptotic_part)."""

    ALPHAS = (1.05, 1.3, 1.6, 1.9, 1.99)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_error_estimate_is_honest(self, alpha):
        xs = list(np.geomspace(asymptotic_cutoff(alpha), 1e8, 25))
        if alpha == 1.05:
            # the envelope ratio is near 1 here: 2 env(K + 1) alone
            # under-reports the omitted terms
            xs.append(44.79)
        for x in xs:
            r = ml_neg(alpha, float(x))
            assert r.regime == "asymptotic"
            assert r.est_error <= _TOL
            assert abs(r.value - ml_asymptotic_oracle(alpha, float(x))) <= r.est_error

    def test_regime_labels_match_the_full_sum(self, monkeypatch):
        rng = np.random.default_rng(20151)
        for _ in range(300):
            alpha = float(rng.uniform(0.1, 2.0))
            x = float(asymptotic_cutoff(alpha) * 10.0 ** rng.uniform(-0.2, 4.0))
            if alpha < 1.0:  # outside the window [1, 2]
                with pytest.raises(InvalidInput):
                    ml_neg(alpha, x)
                continue
            with monkeypatch.context() as m:
                m.setattr(special, "_asymptotic_part", full_sum_asymptotic)
                ref = ml_neg(alpha, x)
            got = ml_neg(alpha, x)
            assert got.regime == ref.regime
            assert abs(got.value - ref.value) <= got.est_error + ref.est_error

    @pytest.mark.parametrize("alpha", [1.0 + 1e-15, 1.0 + 1e-12, 1.3, 1.5, 1.74, 2.0 - 1e-12,
                                       2.0 - 1e-15])
    def test_coefficients_against_mpmath(self, alpha):
        # next to alpha = 1 and 2, rgamma(1 - alpha k) at the rounded
        # alpha k was up to 13 % off; at 1.5 every even k gives exactly 0
        coef = _inverse_power_coefficients(alpha)
        assert coef.size == math.floor(math.log(20.0 / _TOL) / alpha)
        with mp.workdps(40):
            a = mp.mpf(alpha)
            ref = [float((-1) ** (k + 1) * mp.rgamma(1 - a * k)) for k in range(1, coef.size + 1)]
        assert np.all(np.abs(coef - ref) <= 1e-14 * np.abs(ref))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_omitted_bound_covers_the_envelope_sum(self, alpha):
        # the charge (k_end - K + 3) env(K + 1) is at least the omitted terms
        # up to k_end, (k_end - K) env(K + 1), plus 2 env(k_end + 1) past it
        xs = asymptotic_cutoff(alpha) * np.geomspace(1.0, 1e6, 2000)
        coef = _inverse_power_coefficients(alpha)
        k = coef.size
        k_end = np.maximum(np.floor(xs ** (1.0 / alpha) / alpha), k)

        def env(j):
            return np.exp(gammaln(alpha * j) - j * np.log(xs)) / math.pi

        rounding = 4.0 * _EPS * abs(coef[0]) / xs
        assert np.all(_asymptotic_part(alpha, xs)[1]
                      >= (k_end - k) * env(k + 1) + 2.0 * env(k_end + 1) + rounding)

    def test_table_is_built_once_per_alpha(self):
        asymptotic(1.37, 200.0)
        before = _inverse_power_coefficients.cache_info()
        asymptotic(1.37, 900.0)
        _asymptotic_part(1.37, np.array([300.0, 1e4]))
        after = _inverse_power_coefficients.cache_info()
        assert after.hits == before.hits + 2
        assert after.misses == before.misses

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            _inverse_power_coefficients(1.37)[0] = 0.0

    def test_cache_is_bounded(self):
        maxsize = _inverse_power_coefficients.cache_info().maxsize
        assert maxsize is not None
        for alpha in np.linspace(1.1, 1.9, maxsize + 3):
            asymptotic(float(alpha), 500.0)
        assert _inverse_power_coefficients.cache_info().currsize <= maxsize


def test_every_regime_meets_the_fixed_target():
    # each regime's est_error is within _TOL wherever x alone puts it: x = 0,
    # the tiny x, 3000 x over [1e-6, 1e300], 200 x in (1, 2], just above the
    # series cutoff, and 2000 x over [x_a, 1e6 x_a], next to the asymptotic
    # cutoff.  Should a coarser mesh or a shorter sum push an estimate past
    # the target, _ml_neg_parts raises here
    for alpha in SWEEP_ALPHAS:
        xa = asymptotic_cutoff(alpha)
        xs = np.concatenate(([0.0, 1e-300, 1e-10], np.geomspace(1e-6, 1e300, 3000),
                             np.linspace(1.0, 2.0, 201)[1:], xa * np.geomspace(1.0, 1e6, 2000)))
        part, est, series, asym, _, _ = _ml_neg_parts(alpha, xs)
        assert np.all(np.isfinite(part)) and np.all(est <= _TOL), alpha
        assert np.array_equal(series, xs <= 1.0), alpha
        assert np.array_equal(asym, xs >= xa), alpha


def test_pair_is_never_taken_at_30_digits_in_the_series():
    # at x <= 1 the pair's rounding is at most 2 eps (4 + 1/e), far below
    # 0.1 _TOL: _ml_neg_minus_pair subtracts the double-precision pair there
    xs = np.concatenate(([0.0, 1e-300], np.geomspace(1e-12, 1.0, 20000)))
    for alpha in SWEEP_ALPHAS:
        _, err, precise = _exp_pair_double(alpha, xs)
        assert not precise.any(), alpha
        assert np.all(err <= 2.0 * _EPS * (4.0 + 1.0 / math.e)), alpha


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
    def mixed_xs(alpha):
        """x = 0, x <= 1, x in (1, 2], the intermediate range, and x from
        the asymptotic cutoff on, in one array."""
        xa = asymptotic_cutoff(alpha)
        return np.concatenate(([0.0], np.geomspace(1e-3, 1.0, 4), np.linspace(1.1, 2.0, 4),
                               np.geomspace(3.0, 0.95 * xa, 4), xa * np.array([1.0, 1.02, 3.0])))

    @staticmethod
    def own_part(alpha, x):
        """ml_neg's value without the pair, from the parts of its own regime."""
        r = ml_neg(alpha, x)
        if r.regime == "intermediate":
            return _branch_cut_integral(alpha, x)[0]
        if r.regime == "asymptotic":
            return _asymptotic_part(alpha, x)[0]
        return r.value - exp_pair(alpha, x)[0]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_every_regime_against_mpmath(self, alpha):
        xs = self.mixed_xs(alpha)
        xa = asymptotic_cutoff(alpha)
        value, rounding = _ml_neg_minus_pair(alpha, xs)
        assert value.shape == rounding.shape == xs.shape
        for x, v, bound in zip(xs.tolist(), value, rounding):
            assert abs(v - self.own_part(alpha, x)) <= 8.0 * _EPS * abs(v)
            oracle = ml_asymptotic_oracle(alpha, x) if x >= xa else ml_series_oracle(alpha, x)
            assert abs(v - (oracle - pair_oracle(alpha, x))) <= _TOL + bound

    def test_unreachable_element_raises(self, monkeypatch):
        # no input reaches the final check of _ml_neg_parts, so each part's
        # est_error in turn, raised past the target at one x, stands in
        alpha, xs = 1.5, np.array([0.0, 0.5, 5.0, 1e4])
        for name, x in (("_taylor_kahan", 0.5), ("_branch_cut_integral", 5.0),
                        ("_asymptotic_part", 1e4)):
            real = getattr(special, name)

            def above_target(alpha, at, real=real, x=x):
                value, est = real(alpha, at)
                return value, est + np.where(np.asarray(at) == x, 2.0 * _TOL, 0.0)

            with monkeypatch.context() as m:
                m.setattr(special, name, above_target)
                with pytest.raises(NonConvergence, match="exceeds the target"):
                    ml_neg(alpha, x)
                with pytest.raises(NonConvergence, match="exceeds the target"):
                    _ml_neg_minus_pair(alpha, xs)
                _ml_neg_minus_pair(alpha, xs[xs != x])


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
        assert r.est_error <= _TOL

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
            ref = pair + mp.mpf(_asymptotic_part(alpha, x)[0])
            assert abs(mp.mpf(r.value) - ref) <= r.est_error


def assert_finite_result_or_fracwave_error(alpha, x, seconds):
    """The call returns a finite value with est_error <= _TOL, or raises a
    FracWaveError, within the given wall time; an order below 1 raises
    InvalidInput."""
    start = time.perf_counter()
    try:
        r = ml_neg(alpha, x)
    except FracWaveError as exc:
        assert alpha >= 1.0 or type(exc) is InvalidInput
    else:
        assert alpha >= 1.0
        assert math.isfinite(r.value)
        assert r.est_error <= _TOL
    assert time.perf_counter() - start < seconds


@settings(max_examples=50, deadline=None, database=None)
@given(alpha=st.floats(1e-4, 2.0),
       x=st.one_of(st.just(0.0), st.floats(-3.0, 8.0).map(lambda e: 10.0 ** e)))
def test_finite_result_or_fracwave_error(alpha, x):
    assert_finite_result_or_fracwave_error(alpha, x, 3.0)


@pytest.mark.parametrize("x", [1.5, 5.0, 100.0])
@pytest.mark.parametrize("alpha", [1e-4, 1e-3, 3e-3, 0.01])
def test_tiny_order_is_bounded(alpha, x):
    # outside the window [1, 2], where x^(1/alpha) would leave the double range
    assert_finite_result_or_fracwave_error(alpha, x, 1.0)
