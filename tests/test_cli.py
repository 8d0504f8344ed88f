"""Command-line interface: output formats, exit codes, CSV round-trips."""

import math

import numpy as np
import pytest

from fracwave.cli import main
from fracwave.closed_form import g1, g3
from fracwave.mellin_barnes import g_mellin_barnes
from fracwave.quadrature import g_integral


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_cauchy_center_exact_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "1.0", "--dim", "1",
                           "--r", "0", "--t", "1", "--method", "closed")
        assert code == 0
        assert out.strip() == "0.318309886183791"

    def test_integral_matches_closed(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "1.5", "--dim", "1",
                           "--r", "1", "--t", "1", "--method", "integral")
        assert code == 0
        value, est = (float(tok) for tok in out.split())
        assert abs(value - g1(1.5, 1.0, 1.0)) <= 1e-6
        assert est > 0.0

    def test_mellin_route(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "1.5", "--dim", "2",
                           "--r", "0.5", "--t", "1", "--method", "mellin")
        assert code == 0
        value = float(out.split()[0])
        assert value < 0.0  # the 2D solution is negative there

    def test_origin_divergence_exit_3(self, capsys):
        code, _, err = run(capsys, "eval", "--alpha", "1.5", "--dim", "3",
                           "--r", "0", "--t", "1", "--method", "closed")
        assert code == 3
        assert "diverges at origin" in err

    def test_closed_rejected_for_2d_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--alpha", "1.5", "--dim", "2",
                           "--r", "1", "--t", "1", "--method", "closed")
        assert code == 2
        assert "no closed form" in err
        assert "integral" in err and "mellin" in err

    def test_invalid_alpha_exit_2(self, capsys):
        code, _, _ = run(capsys, "eval", "--alpha", "2.5", "--dim", "1",
                         "--r", "1", "--t", "1")
        assert code == 2

    def test_extrapolation_note_for_alpha_one_3d(self, capsys):
        code, out, err = run(capsys, "eval", "--alpha", "1.0", "--dim", "3",
                             "--r", "1", "--t", "1", "--method", "closed")
        assert code == 0
        assert "extrapolated" in err

    def test_extrapolation_note_once_per_profile(self, capsys):
        code, _, err = run(capsys, "profile", "--alpha", "1.0", "--dim", "3",
                           "--t", "1", "--rmin", "0.5", "--rmax", "2.0",
                           "--points", "7", "--method", "closed", "--out", "-")
        assert code == 0
        assert err.count("extrapolated") == 1


class TestProfile:
    def test_radial_csv_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "profile.csv"
        code, _, _ = run(capsys, "profile", "--alpha", "1.5", "--dim", "1",
                         "--t", "1", "--rmin", "0.1", "--rmax", "3.0",
                         "--points", "20", "--method", "closed",
                         "--out", str(out_file))
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert lines[0] == "r,value,est_error"
        assert len(lines) == 21
        rs = np.linspace(0.1, 3.0, 20)
        for line, r, v in zip(lines[1:], rs, g1(1.5, rs, 1.0)):
            r_s, v_s, e_s = line.split(",")
            # 17 significant digits round-trip bit-for-bit
            assert float(r_s) == r
            assert float(v_s) == v
            assert float(e_s) == 0.0

    def test_mirrored_1d_profile(self, capsys, tmp_path):
        # evenness in x: a symmetric window produces a symmetric profile
        out_file = tmp_path / "m.csv"
        code, _, _ = run(capsys, "profile", "--alpha", "1.5", "--dim", "1",
                         "--t", "1", "--rmin", "-2.0", "--rmax", "2.0",
                         "--points", "9", "--method", "closed",
                         "--out", str(out_file))
        assert code == 0
        vals = [float(l.split(",")[1])
                for l in out_file.read_text().strip().split("\n")[1:]]
        assert vals == vals[::-1]

    def test_rows_sorted_ascending(self, capsys, tmp_path):
        out_file = tmp_path / "p.csv"
        run(capsys, "profile", "--alpha", "1.5", "--dim", "3", "--t", "0.3",
            "--rmin", "0.2", "--rmax", "1.4", "--points", "10",
            "--method", "closed", "--out", str(out_file))
        rows = [float(l.split(",")[0])
                for l in out_file.read_text().strip().split("\n")[1:]]
        assert rows == sorted(rows)

    def test_2d_integral_profile(self, capsys, tmp_path):
        out_file = tmp_path / "g2.csv"
        code, _, _ = run(capsys, "profile", "--alpha", "1.5", "--dim", "2",
                         "--t", "1", "--rmin", "0.4", "--rmax", "1.2",
                         "--points", "5", "--out", str(out_file))
        assert code == 0  # default method for dim=2 is the integral route
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "r,value,est_error"
        vals = [tuple(map(float, l.split(","))) for l in lines[1:]]
        assert any(v < 0.0 for _, v, _ in vals)
        assert all(e > 0.0 for _, _, e in vals)

    def test_time_profile(self, capsys, tmp_path):
        out_file = tmp_path / "tp.csv"
        code, _, _ = run(capsys, "profile", "--alpha", "1.5", "--dim", "3",
                         "--fixed-r", "0.5", "--tmin", "0.2", "--tmax", "1.0",
                         "--points", "9", "--method", "closed",
                         "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "t,value,est_error"
        assert len(lines) == 10
        rows = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
        ts = np.linspace(0.2, 1.0, 9)
        assert np.array_equal(rows[:, 0], ts)
        assert np.array_equal(rows[:, 1], g3(1.5, 0.5, ts))
        assert np.all(rows[:, 2] == 0.0)

    def test_integral_time_profile(self, capsys, tmp_path):
        out_file = tmp_path / "tpi.csv"
        code, _, _ = run(capsys, "profile", "--alpha", "1.5", "--dim", "3",
                         "--fixed-r", "0.5", "--tmin", "0.4", "--tmax", "1.0",
                         "--points", "3", "--method", "integral",
                         "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "t,value,est_error"
        assert len(lines) == 4
        for line in lines[1:]:
            t, v, e = (float(x) for x in line.split(","))
            ref = g_integral(1.5, 3, 0.5, t)
            assert abs(v - ref.value) <= ref.est_error
            assert e == ref.est_error

    def test_mellin_radial_profile(self, capsys, tmp_path):
        out_file = tmp_path / "mb.csv"
        code, _, _ = run(capsys, "profile", "--alpha", "1.7", "--dim", "2",
                         "--t", "0.9", "--rmin", "0.1", "--rmax", "4.0",
                         "--points", "12", "--method", "mellin",
                         "--out", str(out_file))
        assert code == 0
        rows = np.loadtxt(out_file, delimiter=",", skiprows=1)
        rs = np.linspace(0.1, 4.0, 12)
        ref = g_mellin_barnes(1.7, 2, rs, 0.9)
        assert np.array_equal(rows[:, 0], rs)
        assert np.array_equal(rows[:, 1], ref.value)
        assert np.array_equal(rows[:, 2], ref.est_error)

    def test_mellin_time_profile(self, capsys, tmp_path):
        out_file = tmp_path / "mbt.csv"
        code, _, _ = run(capsys, "profile", "--alpha", "1.4", "--dim", "3",
                         "--fixed-r", "0.6", "--tmin", "0.3", "--tmax", "2.0",
                         "--points", "8", "--method", "mellin",
                         "--out", str(out_file))
        assert code == 0
        rows = np.loadtxt(out_file, delimiter=",", skiprows=1)
        ts = np.linspace(0.3, 2.0, 8)
        ref = g_mellin_barnes(1.4, 3, 0.6, ts)
        assert np.array_equal(rows[:, 0], ts)
        assert np.array_equal(rows[:, 1], ref.value)
        assert np.array_equal(rows[:, 2], ref.est_error)
        assert np.all(np.abs(rows[:, 1] - g3(1.4, 0.6, ts)) <= rows[:, 2])

    def test_missing_bounds_exit_2(self, capsys):
        code, _, _ = run(capsys, "profile", "--alpha", "1.5", "--dim", "1",
                         "--t", "1", "--out", "-")
        assert code == 2


class TestVelocity:
    def test_phase_curve_contains_interior_maximum(self, capsys):
        code, out, _ = run(capsys, "velocity", "--dim", "3",
                           "--alpha-min", "1.05", "--alpha-max", "1.95",
                           "--steps", "91")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,v"
        pairs = [tuple(map(float, l.split(","))) for l in lines[1:]]
        alphas = [p[0] for p in pairs]
        vs = [p[1] for p in pairs]
        k = vs.index(max(vs))
        assert 0 < k < len(vs) - 1
        assert abs(alphas[k] - 1.575) <= 0.02

    def test_1d_phase_endpoints(self, capsys):
        code, out, _ = run(capsys, "velocity", "--dim", "1",
                           "--alpha-min", "1.0", "--alpha-max", "1.999",
                           "--steps", "5")
        pairs = [tuple(map(float, l.split(","))) for l in out.strip().split("\n")[1:]]
        assert abs(pairs[0][1]) <= 1e-12
        assert abs(pairs[-1][1] - 1.0) <= 1e-3

    def test_gravity_value(self, capsys):
        code, out, _ = run(capsys, "velocity", "--dim", "1",
                           "--alpha-min", "1.5", "--alpha-max", "1.5",
                           "--steps", "1", "--which", "gravity")
        assert code == 0
        v = float(out.strip().split("\n")[1].split(",")[1])
        assert abs(v - 1.5396007178) <= 1e-9

    def test_decreasing_alpha_range_exit_2(self, capsys):
        code, _, err = run(capsys, "velocity", "--dim", "3",
                           "--alpha-min", "1.9", "--alpha-max", "1.1")
        assert code == 2
        assert "increasing" in err

    def test_gravity_requires_dim_1(self, capsys):
        code, _, _ = run(capsys, "velocity", "--dim", "3",
                         "--alpha-min", "1.1", "--alpha-max", "1.9",
                         "--steps", "3", "--which", "gravity")
        assert code == 2


class TestCrosscheck:
    def test_1d_routes_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--alpha", "1.5", "--dim", "1",
                           "--t", "1", "--points", "3")
        assert code == 0
        assert "PASS" in out

    def test_2d_combined_estimates(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--alpha", "1.5", "--dim", "2",
                           "--t", "1", "--points", "3")
        assert code == 0
        assert "PASS" in out

    def test_unreachable_tolerance_exit_1(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--alpha", "1.5", "--dim", "1",
                           "--t", "1", "--points", "2", "--tol", "1e-30")
        assert code == 1
        assert "FAIL" in out


class TestMoments:
    def test_universal_second_moment(self, capsys):
        code, out, _ = run(capsys, "moments", "--alpha", "1.7", "--dim", "3",
                           "--beta", "2", "--t", "5")
        assert code == 0
        assert abs(float(out.split()[1]) - 1.0 / (4.0 * math.pi)) <= 1e-15

    def test_vanishing_mean(self, capsys):
        code, out, _ = run(capsys, "moments", "--alpha", "1.3", "--dim", "3",
                           "--beta", "1", "--t", "2")
        assert float(out.split()[1]) == 0.0

    def test_numeric_check(self, capsys):
        code, out, _ = run(capsys, "moments", "--alpha", "1.5", "--dim", "1",
                           "--beta", "1", "--t", "1", "--check-numeric")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("formula") and lines[1].startswith("numeric")
        assert float(lines[2].split()[1]) <= 1e-5

    def test_out_of_range_exit_2(self, capsys):
        code, _, _ = run(capsys, "moments", "--alpha", "1.2", "--dim", "1",
                         "--beta", "1.5", "--t", "1")
        assert code == 2


class TestSolve1d:
    def test_delta_reproduces_green_function(self, capsys, tmp_path):
        xs = np.linspace(-20.0, 20.0, 2001)
        h = xs[1] - xs[0]
        phis = np.zeros_like(xs)
        phis[1000] = 1.0 / h
        phi_file = tmp_path / "phi.csv"
        phi_file.write_text("x,phi\n" + "\n".join(f"{x:.17g},{p:.17g}"
                                                  for x, p in zip(xs, phis)))
        out_file = tmp_path / "u.csv"
        code, _, _ = run(capsys, "solve1d", "--alpha", "1.5", "--t", "1",
                         "--phi", str(phi_file), "--out", str(out_file))
        assert code == 0
        rows = [tuple(map(float, l.split(",")))
                for l in out_file.read_text().strip().split("\n")[1:]]
        for x, u in rows[995:1006]:
            assert abs(u - g1(1.5, abs(x), 1.0)) <= 1e-10

    def test_malformed_phi_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,phi\n1.0,not_a_number\n2.0,1.0\n")
        code, _, _ = run(capsys, "solve1d", "--alpha", "1.5", "--t", "1",
                         "--phi", str(bad), "--out", "-")
        assert code == 2

    def test_missing_phi_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "solve1d", "--alpha", "1.5", "--t", "1",
                         "--phi", str(tmp_path / "nope.csv"), "--out", "-")
        assert code == 2


class TestConfig:
    def test_config_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "fw.cfg"
        cfg.write_text("# loosened tolerances\nabs_tol = 1e-6\nrel_tol=1e-6\n"
                       "sigma = 0.6\n")
        code, out, _ = run(capsys, "--config", str(cfg), "eval", "--alpha", "1.5",
                           "--dim", "1", "--r", "1", "--t", "1",
                           "--method", "integral")
        assert code == 0
        value, est = (float(t) for t in out.split())
        assert abs(value - g1(1.5, 1.0, 1.0)) <= 1e-5

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "fw.cfg"
        for key in ("bogus", "accel_order"):  # accel_order is a constant
            cfg.write_text(f"{key} = 8\n")
            code, _, err = run(capsys, "--config", str(cfg), "eval", "--alpha", "1.5",
                               "--dim", "1", "--r", "1", "--t", "1")
            assert code == 2
            assert key in err

    def test_missing_config_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "--config", str(tmp_path / "none.cfg"), "eval",
                         "--alpha", "1.5", "--dim", "1", "--r", "1", "--t", "1")
        assert code == 2
