"""Derived quantities: extrema, velocities, moments, sign structure."""

import math

import mpmath
import numpy as np
import pytest

from fracwave.analysis import (
    ExtremumReport,
    gravity_center_velocity,
    max_location,
    moment,
    moment_numeric,
    phase_velocity,
    sign_profile_3d,
    velocity_curve,
    zero_crossing_z,
)
from fracwave.closed_form import g1, g3, order_trig
from fracwave.errors import InvalidInput, NonConvergence

Z_15 = 0.87036519258771611936


class TestZeroCrossing:
    def test_endpoint_values(self):
        assert abs(zero_crossing_z(1.0)) <= 1e-12
        assert zero_crossing_z(2.0) == pytest.approx(1.0, abs=1e-15)
        assert abs(zero_crossing_z(1.5) - Z_15) <= 1e-15

    def test_is_root_of_3d_numerator(self):
        # independent verification by root-finding on the closed form
        from scipy.optimize import brentq
        for a in (1.2, 1.5, 1.8):
            root = brentq(lambda r: g3(a, r, 1.0), 0.2 * zero_crossing_z(a),
                          1.5 * zero_crossing_z(a) + 0.1, xtol=1e-13)
            assert abs(root - zero_crossing_z(a)) <= 1e-9

    def test_strictly_increasing(self):
        zs = [zero_crossing_z(a) for a in np.linspace(1.0, 2.0, 100)]
        assert all(b > a for a, b in zip(zs, zs[1:]))
        assert zs[0] >= 0.0 and zs[-1] <= 1.0

    def test_rejects_outside_window(self):
        with pytest.raises(InvalidInput, match="order"):
            zero_crossing_z(0.9)
        with pytest.raises(InvalidInput, match="order"):
            zero_crossing_z(2.1)


class TestMaxLocation:
    def test_1d_location_scales_with_time(self):
        rep = max_location(1.5, 1, 2.0)
        assert rep.kind == "maximum"
        assert abs(rep.location - 2.0 * Z_15) <= 1e-12
        assert rep.value == pytest.approx(g1(1.5, rep.location, 2.0), abs=1e-16)

    def test_3d_location_is_time_linear(self):
        locs = [max_location(1.4, 3, t).location / t for t in (0.5, 1.0, 5.0)]
        assert abs(locs[0] - locs[1]) <= 1e-9
        assert abs(locs[2] - locs[1]) <= 1e-9

    def test_3d_maximum_is_critical_point(self):
        rep = max_location(1.5, 3, 1.0)
        h = 1e-5
        assert g3(1.5, rep.location - h, 1.0) < rep.value
        assert g3(1.5, rep.location + h, 1.0) < rep.value
        assert rep.location > zero_crossing_z(1.5)

    def test_product_time_independent(self):
        a = 1.5
        p1 = max_location(a, 1, 1.0)
        p10 = max_location(a, 1, 10.0)
        assert abs(p1.location * p1.value - p10.location * p10.value) <= 1e-10

    def test_rejects_2d_and_alpha_one(self):
        with pytest.raises(InvalidInput, match="2D solution"):
            max_location(1.5, 2, 1.0)
        with pytest.raises(InvalidInput, match="order"):
            max_location(1.0, 1, 1.0)

    def test_report_type(self):
        assert isinstance(max_location(1.5, 1, 1.0), ExtremumReport)


class TestPhaseVelocity:
    def test_1d_endpoints(self):
        assert abs(phase_velocity(1.0, 1)) <= 1e-12
        assert phase_velocity(1.999, 1) == pytest.approx(1.0, abs=1e-3)

    def test_3d_curve_unimodal_with_known_maximum(self):
        alphas = np.linspace(1.05, 1.95, 91)
        vs = np.array([phase_velocity(float(a), 3) for a in alphas])
        d = np.sign(np.diff(vs))
        assert int(np.sum(np.abs(np.diff(d)) > 0)) == 1  # single interior peak
        assert abs(alphas[int(np.argmax(vs))] - 1.575) <= 0.02

    def test_3d_is_the_root_of_the_log_derivative(self):
        # independent check: Brent's method on d/dw log G3(w, 1), written from
        # G3 ~ w^(a-3) M(q) / D(q)^2 with q = w^a
        from scipy.optimize import brentq

        for a in np.linspace(1.01, 1.99, 99):
            a = float(a)
            c = math.cos(math.pi * a / 2.0)

            def dlog(w):
                q = w ** a
                dq = a * q / w
                m = (a + 1.0) * q * q + 2.0 * c * q - (a - 1.0)
                d = q * q + 2.0 * c * q + 1.0
                return ((a - 3.0) / w + (2.0 * (a + 1.0) * q + 2.0 * c) * dq / m
                        - 2.0 * (2.0 * q + 2.0 * c) * dq / d)

            z = zero_crossing_z(a)
            root = brentq(dlog, z * (1.0 + 1e-9), 10.0 * z, xtol=1e-15, rtol=1e-15)
            v = phase_velocity(a, 3)
            assert abs(v - root) <= 1e-13
            peak = g3(a, v, 1.0)
            assert peak >= g3(a, v * (1.0 - 1e-6), 1.0)
            assert peak >= g3(a, v * (1.0 + 1e-6), 1.0)

    def test_3d_approaches_one(self):
        assert phase_velocity(1.999, 3) == pytest.approx(1.0, abs=1e-3)

    def test_ordering_vs_gravity_center(self):
        for a in np.linspace(1.05, 1.95, 19):
            assert phase_velocity(float(a), 1) < gravity_center_velocity(float(a))

    def test_rejects_2d(self):
        with pytest.raises(InvalidInput, match="2D solution"):
            phase_velocity(1.5, 2)

    def test_velocity_curve_helper(self):
        curve = velocity_curve(3, [1.2, 1.5], "phase")
        assert curve[0][1] == pytest.approx(phase_velocity(1.2, 3), abs=1e-12)
        with pytest.raises(ValueError):
            velocity_curve(3, [1.5, 1.2], "phase")
        with pytest.raises(InvalidInput, match="1D quantity"):
            velocity_curve(3, [1.2, 1.5], "gravity")
        with pytest.raises(InvalidInput, match="unknown velocity kind"):
            velocity_curve(3, [1.2, 1.3], "bogus")


def _polyroots_velocity_3d(alpha):
    """c(alpha, 3) one order at a time: numpy's polyroots on the quartic of
    analysis._max_location_3d, with its root selection."""
    from numpy.polynomial.polynomial import polymul, polyroots

    c = order_trig(alpha)[0]
    p = np.array([1.0, 2.0 * c, 1.0])
    m = np.array([1.0 - alpha, 2.0 * c, alpha + 1.0])
    wp = 2.0 * alpha * np.array([0.0, c, 1.0])
    wm = 2.0 * alpha * np.array([0.0, c, alpha + 1.0])
    roots = polyroots(polymul((alpha - 3.0) * m + wm, p) - 2.0 * polymul(wp, m))
    real = np.abs(roots.imag) <= 4.0 * math.sqrt(np.finfo(float).eps) * np.abs(roots)
    q = roots.real[real & (roots.real > zero_crossing_z(alpha) ** alpha)]
    return float(q.min() ** (1.0 / alpha))


class TestVelocityCurve3d:
    """velocity_curve(3, ...) solves all quartics in one stacked eigenvalue call."""

    def test_matches_per_order_polyroots(self):
        alphas = np.linspace(1.01, 1.99, 99)
        curve = velocity_curve(3, alphas)
        assert [a for a, _ in curve] == alphas.tolist()
        for a, v in curve:
            want = _polyroots_velocity_3d(a)
            assert abs(v - want) <= 1e-14 * want, a

    def test_one_code_path(self):
        for a, v in velocity_curve(3, [1.05, 1.575, 1.95]):
            assert v == phase_velocity(a, 3) == max_location(a, 3, 1.0).location

    def test_near_two_raises_at_first_unresolved(self):
        # the band of tests/test_contract.py where the two roots near q = 1 merge
        near_two = np.unique(2.0 - np.geomspace(1e-3, 1e-15, 200)).tolist()
        first = None
        for a in near_two:
            try:
                phase_velocity(a, 3)
            except NonConvergence as exc:
                first, message = a, str(exc)
                break
        assert first is not None
        with pytest.raises(NonConvergence) as info:
            velocity_curve(3, [1.5, *near_two])
        assert str(info.value) == message
        # an unresolved order ahead of an invalid one raises first, as one by one
        with pytest.raises(NonConvergence) as info:
            velocity_curve(3, [1.5, first, 2.0])
        assert str(info.value) == message

    @pytest.mark.parametrize("alphas", [[1.0, 1.5], [1.5, 2.0], [1.2, 1.5, 2.0, 2.5],
                                        [0.5, 1.5], [1.5, math.nan]])
    def test_invalid_order_raises(self, alphas):
        with pytest.raises(InvalidInput, match="order must lie in"):
            velocity_curve(3, alphas)

    def test_empty(self):
        assert velocity_curve(3, []) == []


class TestMoments1d:
    def test_known_values(self):
        assert moment(1.5, 1, 1.0, 1.0) == pytest.approx(0.769800358919501, abs=1e-12)
        assert moment(1.3, 1, 0.0, 5.0) == 0.5

    def test_against_numerical_integration(self):
        for a in (1.1, 1.5, 1.9):
            for b in (0.5, 1.0 if a > 1.0 else 0.8, 0.95 * a):
                f = moment(a, 1, b, 1.0)
                n = moment_numeric(a, 1, b, 1.0)
                assert abs(f - n) <= 1e-5 * abs(f)

    def test_time_scaling(self):
        assert moment(1.5, 1, 1.0, 3.0) == pytest.approx(3.0 * moment(1.5, 1, 1.0, 1.0),
                                                         rel=1e-14)

    def test_out_of_range(self):
        with pytest.raises(InvalidInput, match="moment order"):
            moment(1.2, 1, 1.5, 1.0)
        with pytest.raises(InvalidInput, match="moment order"):
            moment(1.2, 1, -1.0, 1.0)


class TestMoments2d:
    """int_0^inf G_2 r^beta dr for 1 - alpha < beta < 1 + alpha, against the
    quadrature of g_spectral, 0.02 from both ends of the window and inside."""

    @pytest.mark.parametrize("a", [1.05, 1.5, 1.95])
    def test_against_numerical_integration(self, a):
        for b in (1.02 - a, 0.5, 1.0, 1.5, 0.98 + a):
            f = moment(a, 2, b, 1.0)
            n = moment_numeric(a, 2, b, 1.0)
            assert abs(f - n) <= 1e-8 * abs(f), b

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [1.05, 1.5, 1.95])
    def test_next_to_the_lower_window_end(self, n, a):
        # r^(beta + alpha - n) is barely integrable there: the origin series
        # carries the integral below r0 that quadrature toward 0 cannot reach
        for d in (1e-4, 1e-5, 1e-8):
            b = n - 1.0 - a + d
            f = moment(a, n, b, 1.0)
            assert abs(f - moment_numeric(a, n, b, 1.0)) <= 1e-8 * abs(f), d

    def test_unit_mass(self):
        # 2 pi int_0^inf r G_2 dr = 1 at every order and time
        for a in (1.05, 1.5, 1.95):
            for t in (0.3, 1.0, 7.0):
                assert moment(a, 2, 1.0, t) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    @pytest.mark.parametrize("a", [1.05, 1.5, 1.95])
    def test_signed_integral_vanishes(self, a):
        # int_0^inf G_2 dr = 0: the 2D solution is signed
        for t in (0.3, 1.0, 7.0):
            assert moment(a, 2, 0.0, t) == 0.0
        assert abs(moment_numeric(a, 2, 0.0, 1.0)) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(InvalidInput, match="moment order"):
            moment(1.5, 2, -0.5, 1.0)
        with pytest.raises(InvalidInput, match="moment order"):
            moment(1.5, 2, 2.5, 1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_alpha_one_refused(self, n):
        with pytest.raises(InvalidInput, match="order"):
            moment(1.0, n, n - 1.0, 1.0)


class TestMoments3d:
    def test_mean_vanishes_identically(self):
        for a in (1.1, 1.5, 1.9):
            for t in (0.3, 1.0, 7.0):
                assert abs(moment(a, 3, 1.0, t)) <= 1e-12

    def test_second_moment_universal(self):
        ref = 1.0 / (4.0 * math.pi)
        vals = [moment(a, 3, 2.0, t)
                for a in np.linspace(1.05, 1.95, 5)
                for t in np.geomspace(0.1, 10.0, 5)]
        assert max(abs(v - ref) for v in vals) <= 1e-12

    def test_third_moment(self):
        for a in (1.1, 1.5, 1.9):
            ref = 1.0 / (a * math.pi * math.sin(math.pi / a))
            assert abs(moment(a, 3, 3.0, 1.0) - ref) <= 1e-12

    def test_against_numerical_integration(self):
        for a in (1.1, 1.5, 1.9):
            for b in (1.0, 2.0, 3.0):
                f = moment(a, 3, b, 1.0)
                n = moment_numeric(a, 3, b, 1.0)
                scale = max(abs(f), 1e-2)
                assert abs(f - n) <= 1e-5 * scale

    def test_out_of_range(self):
        with pytest.raises(InvalidInput, match="moment order"):
            moment(1.5, 3, 0.4, 1.0)
        with pytest.raises(InvalidInput, match="moment order"):
            moment(1.5, 3, 3.6, 1.0)


def test_moment_at_order_one_in_1d():
    """alpha = 1 is in the 1D window (refused at n = 2, 3): the Cauchy kernel,
    int_0^inf r^(1/2) / (pi (1 + r^2)) dr = sin(pi/4)."""
    assert moment(1.0, 1, 0.5, 1.0) == pytest.approx(math.sin(math.pi / 4), rel=1e-15)


def mellin_moment(a, n, beta):
    """int_0^inf G_{a,n}(r, 1) r^beta dr = K_n(n - 1 - beta)/(a pi^(n/2)) at 40
    digits, from the five-Gamma kernel with the double beta taken exactly."""
    with mpmath.workdps(40):
        a, s = mpmath.mpf(a), n - 1 - mpmath.mpf(beta)
        kernel = (mpmath.gamma(s / a) * mpmath.gamma(1 - s / a) * mpmath.gamma((n - s) / 2)
                  / (mpmath.gamma(1 - s) * mpmath.power(2, s) * mpmath.gamma(s / 2)))
        return float(kernel / (a * mpmath.pi ** (mpmath.mpf(n) / 2)))


@pytest.mark.parametrize("a", [1.2, 1.5, 1.9])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_moment_accurate_at_the_removable_point(a, n):
    """Near beta = n - 1, where sin(pi s/2) and sin(pi s/alpha) vanish together
    (s = n - 1 - beta); a sine of pi beta/2 near a multiple of pi keeps only
    the absolute accuracy of its argument there."""
    for d in (1e-6, 1e-10, -1e-10, 1e-13):
        beta = n - 1.0 + d
        ref = mellin_moment(a, n, beta)
        assert abs(moment(a, n, beta, 1.0) - ref) <= 1e-14 * abs(ref), d


class TestGravityCenterVelocity:
    def test_known_value(self):
        assert gravity_center_velocity(1.5) == pytest.approx(1.539600717839002, abs=1e-12)

    def test_matches_moment_ratio_slope(self):
        a = 1.4
        v = (moment(a, 1, 1.0, 2.0) / 0.5 - moment(a, 1, 1.0, 1.0) / 0.5) / 1.0
        assert gravity_center_velocity(a) == pytest.approx(v, rel=1e-12)

    def test_approaches_one_at_two(self):
        assert gravity_center_velocity(1.9999) == pytest.approx(1.0, abs=1e-3)

    def test_diverges_toward_alpha_one(self):
        assert gravity_center_velocity(1.05) > 10.0
        with pytest.raises(InvalidInput, match="order"):
            gravity_center_velocity(1.0)


class TestSignProfile:
    def test_signs_follow_threshold(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            a = float(rng.uniform(1.05, 1.95))
            t = float(10.0 ** rng.uniform(-0.5, 0.5))
            grid = 10.0 ** rng.uniform(-1.5, 1.0, 20)
            r_star = zero_crossing_z(a) * t
            signs = sign_profile_3d(a, t, grid)
            for r, s in zip(grid, signs):
                if s != 0:
                    assert s == (1 if r > r_star else -1)

    def test_boundary_sign_is_zero(self):
        assert sign_profile_3d(1.5, 1.0, [Z_15])[0] == 0

    @pytest.mark.parametrize("t", [1e-9, 1e3])
    def test_signs_do_not_depend_on_time(self, t):
        # G3 scales like t^-3: an absolute zero band would swallow every
        # value at large t and none at small t
        rhos = np.concatenate((np.linspace(0.2, 3.0, 29), [Z_15]))
        signs = sign_profile_3d(1.5, t, rhos * t)
        assert signs == sign_profile_3d(1.5, 1.0, rhos)
        assert {-1, 0, 1} <= set(signs)


class TestTwoDimensionalExtrema:
    def test_profile_has_multiple_extrema(self):
        # not unimodal in 2D: the wavefront oscillation leaves more than one
        # local extremum (clearest near alpha -> 2 where damping is weak)
        from fracwave.mellin_barnes import g_mellin_barnes
        rs = np.linspace(0.3, 3.0, 120)
        vals = g_mellin_barnes(1.9, 2, rs, 1.0).value
        d = np.sign(np.diff(vals))
        extrema = int(np.sum(np.abs(np.diff(d)) > 0))
        assert extrema >= 2
        assert np.min(vals) < 0.0  # and it dips negative
