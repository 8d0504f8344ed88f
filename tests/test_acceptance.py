"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import contextlib
import math

import numpy as np
import pytest

from fracwave.analysis import (
    gravity_center_velocity,
    moment,
    moment_numeric,
    phase_velocity,
    zero_crossing_z,
)
from fracwave.closed_form import (
    g1,
    g1_dr,
    g1_dt,
    g3,
    g3_via_g1_spatial,
    g3_via_g1_temporal,
)
from fracwave.errors import OriginDivergence
from fracwave.mellin_barnes import g_mellin_barnes, mb_kernel
from fracwave.quadrature import g_integral, g_origin
from fracwave.special import ml_neg


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {description}")
        raise
    print(f"criterion {num:2d} PASS: {description}")


def test_criterion_01_special_case_oracles():
    with criterion(1, "E_1/E_2 special cases to 1e-10; alpha=1 Cauchy kernel to 1e-14"):
        xs = np.linspace(0.0, 100.0, 200)
        for x in xs:
            assert abs(ml_neg(1.0, float(x)).value - math.exp(-x)) <= 1e-10
            assert abs(ml_neg(2.0, float(x)).value - math.cos(math.sqrt(x))) <= 1e-10
        rs = np.linspace(0.0, 6.0, 20)
        for t in np.linspace(0.1, 4.0, 20):
            ref = t / (math.pi * (t * t + rs * rs))
            assert np.max(np.abs(g1(1.0, rs, float(t)) - ref)) <= 1e-14


def test_criterion_02_route_triangle():
    with criterion(2, "closed vs integral vs Mellin-Barnes to 1e-6 (n=1,3); "
                      "combined estimates (n=2)"):
        for alpha in (1.1, 1.5, 1.9):
            for ratio in (0.3, 1.0, 3.0):
                r, t = ratio, 1.0
                for n in (1, 3):
                    ref = g1(alpha, r, t) if n == 1 else g3(alpha, r, t)
                    qd = g_integral(alpha, n, r, t)
                    mb = g_mellin_barnes(alpha, n, r, t)
                    assert abs(qd.value - ref) <= 1e-6
                    assert abs(mb.value - ref) <= 1e-6
                qd = g_integral(alpha, 2, r, t)
                mb = g_mellin_barnes(alpha, 2, r, t)
                assert abs(qd.value - mb.value) <= qd.est_error + mb.est_error


def test_criterion_03_identity_suite():
    with criterion(3, "1D<->3D relations to 1e-10 on 100 random points; "
                      "self-similar scaling to 1e-12 (n=2 via quadrature estimates)"):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            a = float(rng.uniform(1.01, 1.99))
            r = float(10.0 ** rng.uniform(-1.5, 1.5))
            t = float(10.0 ** rng.uniform(-1.0, 1.0))
            ref = g3(a, r, t)
            scale = max(abs(ref), 1e-300)
            assert abs(g3_via_g1_spatial(a, r, t) - ref) <= 1e-10 * scale
            assert abs(g3_via_g1_temporal(a, r, t) - ref) <= 1e-10 * scale
        for _ in range(100):
            a = float(rng.uniform(1.0, 1.99))
            r = float(10.0 ** rng.uniform(-2.0, 2.0))
            t = float(10.0 ** rng.uniform(-1.5, 1.5))
            lam = float(10.0 ** rng.uniform(-2.0, 2.0))
            v1 = g1(a, lam * r, lam * t)
            assert abs(v1 - g1(a, r, t) / lam) <= 1e-12 * max(abs(v1), 1e-300)
            v3 = g3(a, lam * r, lam * t)
            assert abs(v3 - g3(a, r, t) / lam ** 3) <= 1e-12 * max(abs(v3), 1e-300)
        for lam in (0.5, 2.0):
            base = g_integral(1.5, 2, 0.8, 1.0)
            scaled = g_integral(1.5, 2, lam * 0.8, lam * 1.0)
            combined = scaled.est_error + base.est_error / lam ** 2
            assert abs(scaled.value - base.value / lam ** 2) <= combined


def test_criterion_04_moments():
    with criterion(4, "moment formulas vs numerical integration to 1e-5; "
                      "exact 3D constants to 1e-12"):
        for a in (1.1, 1.5, 1.9):
            for b in (0.5, 1.0, 0.95 * a):
                f = moment(a, 1, b, 1.0)
                n = moment_numeric(a, 1, b, 1.0)
                assert abs(f - n) <= 1e-5 * abs(f)
            for b in (2.0, 3.0):
                f = moment(a, 3, b, 1.0)
                n = moment_numeric(a, 3, b, 1.0)
                assert abs(f - n) <= 1e-5 * abs(f)
            # the signed mean cancels exactly; compare on the universal scale
            num_mean = moment_numeric(a, 3, 1.0, 1.0)
            assert abs(num_mean) <= 1e-5 * max(1.0, moment(a, 3, 2.0, 1.0))
            assert abs(moment(a, 3, 1.0, 1.0)) <= 1e-12
            assert abs(moment(a, 3, 2.0, 1.0) - 1.0 / (4.0 * math.pi)) <= 1e-12
            ref3 = 1.0 / (a * math.pi * math.sin(math.pi / a))
            assert abs(moment(a, 3, 3.0, 1.0) - ref3) <= 1e-12


def test_criterion_05_normalization_and_positivity():
    with criterion(5, "1D solution integrates to 1 (1e-6, tail-corrected) and is "
                      "nonnegative at 1e4 random points"):
        for a in (1.1, 1.5, 1.9):
            mass = 2.0 * moment_numeric(a, 1, 0.0, 1.0)
            assert abs(mass - 1.0) <= 1e-6
        rng = np.random.default_rng(77)
        alphas = rng.uniform(1.0, 2.0 - 1e-12, 10_000)
        rs = 10.0 ** rng.uniform(-6.0, 6.0, 10_000)
        ts = 10.0 ** rng.uniform(-2.0, 2.0, 10_000)
        for a, r, t in zip(alphas, rs, ts):
            assert g1(float(a), float(r), float(t)) >= 0.0


def test_criterion_06_signedness_above_1d():
    with criterion(6, "2D solution negative somewhere (alpha=1.5, t=1); 3D sign "
                      "structure vs z_alpha t on 500 random points"):
        res = g_integral(1.5, 2, 0.5, 1.0)
        assert res.value < 0.0
        rng = np.random.default_rng(99)
        for _ in range(500):
            a = float(rng.uniform(1.0 + 1e-9, 2.0 - 1e-9))
            t = float(10.0 ** rng.uniform(-1.0, 1.0))
            r = float(10.0 ** rng.uniform(-2.0, 2.0))
            r_star = zero_crossing_z(a) * t
            if abs(r - r_star) <= 1e-9 * max(r_star, 1.0):
                continue
            assert (g3(a, r, t) > 0.0) == (r > r_star)


def test_criterion_07_phase_velocity():
    with criterion(7, "3D phase velocity unimodal with maximum at 1.575 +/- 0.02; "
                      "v_p(1, n=1) = 0; v_p -> 1 as alpha -> 2"):
        alphas = np.linspace(1.05, 1.95, 91)
        vs = np.array([phase_velocity(float(a), 3) for a in alphas])
        signs = np.sign(np.diff(vs))
        assert int(np.sum(np.abs(np.diff(signs)) > 0)) == 1
        k = int(np.argmax(vs))
        assert 0 < k < 90
        assert abs(alphas[k] - 1.575) <= 0.02
        assert abs(phase_velocity(1.0, 1)) <= 1e-12
        assert abs(phase_velocity(1.999, 1) - 1.0) <= 1e-3
        assert abs(phase_velocity(1.999, 3) - 1.0) <= 1e-3


def test_criterion_08_asymptotic_slopes():
    with criterion(8, "log-log slopes of the 3D solution: alpha-3 at small r, "
                      "-alpha-3 at large r (alpha = 1.25, 1.75)"):
        for a in (1.25, 1.75):
            r_small = np.geomspace(1e-6, 1e-4, 50)
            r_big = np.geomspace(1e3, 1e5, 50)
            slope_s = np.polyfit(np.log(r_small),
                                 np.log(np.abs(g3(a, r_small, 1.0))), 1)[0]
            slope_b = np.polyfit(np.log(r_big), np.log(g3(a, r_big, 1.0)), 1)[0]
            assert abs(slope_s - (a - 3.0)) <= 0.05
            assert abs(slope_b - (-a - 3.0)) <= 0.05


def test_criterion_09_origin_behavior():
    with criterion(9, "origin value: 0 for n=1 (1<alpha<2), 1/(pi t) at alpha=1, "
                      "divergence for n=2,3 (1<alpha<2), 1/(2 pi t^2) and "
                      "1/(pi^2 t^3) for n=2,3 at alpha=1"):
        assert g_origin(1.5, 1, 7.3) == 0.0
        assert g_origin(1.7, 1, 0.2) == 0.0
        for t in (0.5, 2.0):
            assert abs(g_origin(1.0, 1, t) - 1.0 / (math.pi * t)) <= 1e-16
            assert g_origin(1.0, 2, t) == pytest.approx(1.0 / (2.0 * math.pi * t ** 2),
                                                        rel=1e-15)
            assert g_origin(1.0, 3, t) == pytest.approx(1.0 / (math.pi ** 2 * t ** 3),
                                                        rel=1e-15)
        for n in (2, 3):
            with pytest.raises(OriginDivergence):
                g_origin(1.5, n, 1.0)


def test_criterion_10_derivative_correctness():
    with criterion(10, "analytic radial/time derivatives match centered finite "
                       "differences (h=1e-5) to 1e-6 relative on 100 random points"):
        rng = np.random.default_rng(2718)
        h = 1e-5
        for _ in range(100):
            a = float(rng.uniform(1.01, 1.99))
            r = float(rng.uniform(0.1, 4.0))
            t = float(rng.uniform(0.3, 3.0))
            fd_r = (g1(a, r + h, t) - g1(a, r - h, t)) / (2 * h)
            fd_t = (g1(a, r, t + h) - g1(a, r, t - h)) / (2 * h)
            assert abs(g1_dr(a, r, t) - fd_r) <= 1e-6 * max(abs(fd_r), 1e-12)
            assert abs(g1_dt(a, r, t) - fd_t) <= 1e-6 * max(abs(fd_t), 1e-12)


def test_criterion_11_contour_robustness():
    with criterion(11, "sigma-shift invariance (0.3 vs 0.7, n=1) to 1e-9; "
                       "kernel Schwarz symmetry K(conj s) = conj K(s) to 1e-12 relative"):
        for ratio in (0.5, 1.0, 2.0):
            a03 = g_mellin_barnes(1.5, 1, ratio, 1.0, sigma=0.3).value
            a07 = g_mellin_barnes(1.5, 1, ratio, 1.0, sigma=0.7).value
            assert abs(a03 - a07) <= 1e-9
        for alpha, n in [(1.5, 1), (1.5, 3), (1.2, 2)]:
            for y in np.linspace(0.0, 60.0, 121)[1:]:
                s = complex(0.5 * min(alpha, n), y)
                k = mb_kernel(alpha, n, s)
                assert abs(mb_kernel(alpha, n, s.conjugate()) - k.conjugate()) <= 1e-12 * abs(k)
