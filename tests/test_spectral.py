"""Spectral route g_spectral: the closed forms for n = 1, 3, the contour and
40-digit values for n = 2, the origin, and broadcast profiles."""

import math

import mpmath
import numpy as np
import pytest

from fracwave.closed_form import g1, g3, order_trig
from fracwave.errors import InvalidInput, NonConvergence, OriginDivergence
from fracwave.mellin_barnes import g_mellin_barnes
from fracwave.quadrature import g_origin, g_spectral
from inverse_abel import g2_abel_mp

# 405 r/t over [0.01, 100], with the wavefront band 0.99-1.01 sampled densely.
RHOS = np.unique(np.concatenate((np.geomspace(0.01, 100.0, 385), np.linspace(0.99, 1.01, 21))))
NEAR_ONE_TO_TWO = [1.01, 1.05, 1.1, 1.3, 1.5, 1.7, 1.9, 1.99, 1.999, 1.9999]


@pytest.mark.parametrize("alpha", NEAR_ONE_TO_TWO)
@pytest.mark.parametrize("n", [1, 3])
def test_closed_forms_within_est_error(alpha, n):
    res = g_spectral(alpha, n, RHOS, 1.0)
    ref = (g1 if n == 1 else g3)(alpha, RHOS, 1.0)
    err = np.abs(res.value - ref)
    assert np.all(err <= res.est_error)
    # and accurate to rounding, measured against |G| + 1e-3 max|G| (the zero of G3)
    assert np.all(err <= 1e-12 * (np.abs(ref) + 1e-3 * np.max(np.abs(ref))))


def closed_forms_mp(alpha, rho):
    """(G1, G3)(rho, 1) at 50 digits, in the exact binary alpha and rho:
    G1 = sin(pi a/2)/pi w^(a-1) / (w^(2a) + 2 cos(pi a/2) w^a + 1), G3 = -G1'/(2 pi r)."""
    with mpmath.workdps(50):
        a, x = mpmath.mpf(alpha), mpmath.mpf(rho)
        s, c = mpmath.sinpi(a / 2), mpmath.cospi(a / 2)
        q = x ** a
        p = q * q + 2 * c * q + 1
        g1_dx = s / mpmath.pi * x ** (a - 2) * ((a - 1) - 2 * c * q - (a + 1) * q * q) / (p * p)
        return float(s / mpmath.pi * x ** (a - 1) / p), float(-g1_dx / (2 * mpmath.pi * x))


# sin(pi alpha), the scale of the branch-cut part, is formed from the exact
# alpha - 1 or 2 - alpha: from pi alpha it lost ~1e-8 of its relative digits
# at 1e-8 from either end, several times the est_error of n = 3 at small r/t.
@pytest.mark.parametrize("alpha", [1.0 + 1e-15, 1.0 + 1e-8, 2.0 - 1e-8, 2.0 - 2.0 ** -52])
@pytest.mark.parametrize("n", [1, 3])
def test_orders_next_to_one_and_two_against_50_digits(alpha, n):
    rho = np.geomspace(0.01, 100.0, 41)
    res = g_spectral(alpha, n, rho, 1.0)
    truth = np.array([closed_forms_mp(alpha, float(x))[n // 3] for x in rho])
    assert np.all(np.abs(res.value - truth) <= res.est_error)


def test_cauchy_kernel_at_alpha_one():
    rs = np.array([0.0, 0.3, 1.0, 4.0])
    res = g_spectral(1.0, 1, rs, 2.0)
    assert np.allclose(res.value, g1(1.0, rs, 2.0), rtol=1e-15, atol=0.0)
    assert np.all(np.abs(res.value - g1(1.0, rs, 2.0)) <= res.est_error)


@pytest.mark.parametrize("alpha", [1.01, 1.05, 1.1, 1.25, 1.5, 1.7, 1.9, 1.95, 1.99])
def test_2d_within_contour_est_error(alpha):
    rho = np.unique(np.concatenate((np.geomspace(0.05, 10.0, 120), np.linspace(0.97, 1.03, 13))))
    res = g_spectral(alpha, 2, rho, 1.0)
    mb = g_mellin_barnes(alpha, 2, rho, 1.0)
    assert np.all(np.abs(res.value - mb.value) <= mb.est_error)


# On ratio-2 cells |K15 - G7| measures G7's error, not K15's, and the
# estimate reached ~7e-11 max|G| here, where the true error is a few 1e-15.
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_est_error_is_tight(alpha, n):
    res = g_spectral(alpha, n, np.linspace(0.3, 3.0, 50), 1.0)
    assert np.max(res.est_error) <= 1e-12 * np.max(np.abs(res.value))


# (alpha, r/t) near alpha = 2: at 1.9999 the contour raises, and the double
# precision Abel oracle cannot resolve the front.
NEAR_TWO_2D = [(1.5, 0.3), (1.99, 1.0), (1.999, 0.5), (1.9995, 0.3), (1.9995, 1.0),
               (1.9999, 0.3), (1.9999, 0.999), (1.9999, 1.0), (1.9999, 3.0)]


@pytest.mark.parametrize("alpha,rho", NEAR_TWO_2D)
def test_2d_against_40_digits(alpha, rho):
    res = g_spectral(alpha, 2, rho, 1.0)
    assert abs(res.value - g2_abel_mp(alpha, rho)) <= res.est_error


def test_returns_where_the_contour_raises():
    with pytest.raises(NonConvergence):
        g_mellin_barnes(1.9999, 2, 1.0, 1.0)
    assert np.isfinite(g_spectral(1.9999, 2, 1.0, 1.0).value)


# Below r/t ~ 1e-144, x = rho t / r overflows x^2 at the mesh's upper
# nodes.  The n = 1 kernel x / (x^2 + 1) is ~1/x there, which the r^-1 scale
# makes O(1): set to 0, it left the value 0.21 off (alpha = 1.5,
# r/t = 1e-160) with est_error 4e-6.
@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_radius_within_est_error_or_raises(alpha, n):
    for rho in (1e-150, 1e-154, 1e-160, 1e-250, 1e-300):
        try:
            res = g_spectral(alpha, n, rho, 1.0)
        except NonConvergence:
            continue
        if n == 2:
            assert np.isfinite(res.value)
        else:
            assert abs(res.value - (g1 if n == 1 else g3)(alpha, rho, 1.0)) <= res.est_error


def origin_law_2d(alpha, rho):
    """G2(rho, 1) ~ cos(pi a/2) Gamma((1+a)/2) / (pi^(3/2) Gamma(a/2)) rho^(a-2), the
    first term of its origin series; the next is rho^a times smaller."""
    return (order_trig(alpha)[0] * math.gamma(0.5 * (1.0 + alpha))
            / (math.pi ** 1.5 * math.gamma(0.5 * alpha)) * rho ** (alpha - 2.0))


# r^-n is applied in exponent form, so the value may lie far beyond where r^n
# leaves the double range; where the branch-cut sum itself has lost digits to
# underflow the route raises.  Down to r/t = 1e-150 every point returns.
@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.3, 1.5, 1.7, 1.9, 1.99])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_radius_sweep(alpha, n):
    reference = {1: lambda rho: g1(alpha, rho, 1.0), 2: lambda rho: origin_law_2d(alpha, rho),
                 3: lambda rho: g3(alpha, rho, 1.0)}[n]
    for e in range(20, 320):
        rho = 10.0 ** -e
        try:
            res = g_spectral(alpha, n, rho, 1.0)
        except NonConvergence:
            assert e > 150, rho
            continue
        assert abs(res.value - reference(rho)) <= res.est_error, rho


def test_2d_kernel_keeps_nodes_past_the_square_overflow():
    # at r/t = 1e-200 the kernel's nodes reach x = rho t / r > 2^512, where
    # x^2 overflows; formed without it, they keep their x^-2
    res = g_spectral(1.5, 2, 1e-200, 1.0)
    assert abs(res.value - origin_law_2d(1.5, 1e-200)) <= res.est_error


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_origin_1d_is_g_origin(alpha):
    assert g_spectral(alpha, 1, 0.0, 2.0).value == g_origin(alpha, 1, 2.0)
    res = g_spectral(alpha, 1, np.array([0.0, 0.5]), 2.0)
    assert res.value[0] == g_origin(alpha, 1, 2.0)
    assert res.value[1] == g_spectral(alpha, 1, 0.5, 2.0).value


@pytest.mark.parametrize("n", [2, 3])
def test_origin_diverges_for_n_above_one(n):
    with pytest.raises(OriginDivergence):
        g_spectral(1.5, n, 0.0, 1.0)
    with pytest.raises(OriginDivergence):
        g_spectral(1.5, n, np.array([0.5, 0.0]), 1.0)
    with pytest.raises(InvalidInput):
        g_spectral(1.0, n, 0.5, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_time_profile_matches_scalar_calls(n):
    ts = np.linspace(0.05, 2.0, 40)
    res = g_spectral(1.5, n, 0.5, ts)
    scalars = [g_spectral(1.5, n, 0.5, float(t)) for t in ts]
    assert type(scalars[0].value) is float and type(scalars[0].est_error) is float
    for value, est, scalar in zip(res.value, res.est_error, scalars):
        assert abs(value - scalar.value) <= min(est, scalar.est_error)


def test_broadcast_grid_matches_scalar_calls():
    rs, ts = np.array([[0.2], [0.9], [3.0]]), np.array([0.5, 1.0, 2.0, 4.0])
    res = g_spectral(1.3, 2, rs, ts)
    assert res.value.shape == res.est_error.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        scalar = g_spectral(1.3, 2, float(rs[i, 0]), float(ts[j]))
        assert abs(res.value[i, j] - scalar.value) <= min(res.est_error[i, j], scalar.est_error)
