"""Command-line interface: output formats, exit codes, CSV round-trips."""

import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracwave
from fracwave import cli
from fracwave.cli import _write_csv, main
from fracwave.closed_form import g1, g3
from fracwave.mellin_barnes import g_mellin_barnes
from fracwave.quadrature import g_integral, g_spectral


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(code, cwd=None):
    """stdout of code run by a new interpreter that imports this checkout's
    fracwave: its sys.modules holds nothing the test session imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(fracwave.__file__).parent.parent))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], env=env,
                          cwd=cwd, capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_scipy_integrate_out():
    # scipy.integrate adds ~0.2 s to every start and only moment_numeric needs
    # it; mpmath, scipy.optimize and scipy.sparse are not needed at import either.
    env = dict(os.environ, PYTHONPATH=str(Path(fracwave.__file__).parent.parent))
    heavy = ("scipy.integrate", "mpmath", "scipy.optimize", "scipy.sparse")
    probe = f"import sys, fracwave.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
    # nor any other scipy module: scipy.special alone took ~0.25 s of a 0.42 s import
    for module in ("fracwave", "fracwave.cli"):
        probe = f"import sys, {module}; print([m for m in sys.modules if m.startswith('scipy')])"
        assert fresh_python(probe).strip() == "[]", module


# Commands that need numpy only: the closed forms, the spectral route, the
# velocity curves, the moment formulas and the Green convolution.
SCIPY_FREE_COMMANDS = [
    "eval --alpha 1.5 --dim 1 --r 0.7 --t 1",
    "eval --alpha 1.5 --dim 3 --r 0.7 --t 1",
    "eval --alpha 1.5 --dim 2 --r 0.7 --t 1",
    "profile --alpha 1.5 --dim 1 --t 1 --rmin 0 --rmax 3 --points 20 --out -",
    "profile --alpha 1.5 --dim 3 --t 1 --rmin 0.1 --rmax 3 --points 20 --out -",
    "profile --alpha 1.5 --dim 2 --t 1 --rmin 0.1 --rmax 3 --points 20 --out -",
    "velocity --dim 3 --alpha-min 1.1 --alpha-max 1.9 --steps 5 --which phase",
    "velocity --dim 1 --alpha-min 1.1 --alpha-max 1.9 --steps 5 --which gravity",
    "moments --alpha 1.5 --dim 1 --beta 0.5 --t 2",
    "moments --alpha 1.5 --dim 2 --beta 0.5 --t 2",
    "moments --alpha 1.5 --dim 3 --beta 1.5 --t 2",
    "solve1d --alpha 1.5 --t 0.5 --phi phi.csv --out -",
]


def test_numpy_only_commands_load_no_scipy(tmp_path):
    (tmp_path / "phi.csv").write_text("x,phi\n-1,0\n0,1\n1,0\n", encoding="utf-8")
    probe = "\n".join([
        "import contextlib, io, sys",
        "from fracwave.cli import main",
        f"for command in {SCIPY_FREE_COMMANDS!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = main(command.split())",
        "    print(code, [m for m in sys.modules if m.startswith('scipy')])",
    ])
    lines = fresh_python(probe, cwd=tmp_path).splitlines()
    assert lines == ["0 []"] * len(SCIPY_FREE_COMMANDS)


def test_routes_import_scipy_on_first_use():
    """Every lazy scipy.special import runs in a process that had none: the
    integral route for n = 1, 2, 3 (j0 at n = 2), the contour (loggamma) and
    ml_neg in each regime (gammaln, rgamma), with the values of this session;
    mb_kernel on the real axis at n = 1 and 2 (on math alone) gives them too."""
    evals = [f"eval --alpha 1.5 --dim {n} --r 0.7 --t 1 --method integral" for n in (1, 2, 3)]
    evals.append("eval --alpha 1.5 --dim 2 --r 0.7 --t 1 --method mellin")
    probe = "\n".join([
        "import contextlib, io, sys",
        "import fracwave",
        "from fracwave.cli import main",
        f"for command in {evals!r}:",
        "    out = io.StringIO()",
        "    with contextlib.redirect_stdout(out):",
        "        assert main(command.split()) == 0",
        "    print(out.getvalue().strip())",
        "for x in (0.5, 5.0, 1e4):",
        "    r = fracwave.ml_neg(1.5, x)",
        "    print(r.regime, repr(r.value), repr(r.est_error))",
        "for n in (1, 2):",
        "    print(repr(fracwave.mb_kernel(1.5, n, 0.7)))",
        "print('scipy.special' in sys.modules)",
    ])
    lines = fresh_python(probe).splitlines()
    for command, line in zip(evals, lines):
        args = command.split()
        n, method = int(args[args.index("--dim") + 1]), args[-1]
        res = (g_integral if method == "integral" else g_mellin_barnes)(1.5, n, 0.7, 1.0)
        assert line == f"{res.value:.15g} {res.est_error:.15g}", command
    mls = [fracwave.ml_neg(1.5, x) for x in (0.5, 5.0, 1e4)]
    assert [r.regime for r in mls] == ["series", "intermediate", "asymptotic"]
    assert lines[len(evals):len(evals) + 3] == [f"{r.regime} {r.value!r} {r.est_error!r}"
                                                for r in mls]
    assert lines[len(evals) + 3:] == [repr(fracwave.mb_kernel(1.5, n, 0.7)) for n in (1, 2)] \
        + ["True"]


class TestSharedParser:
    """One parser serves every main call of a process."""

    def test_built_once_on_first_call_not_at_import(self):
        env = dict(os.environ, PYTHONPATH=str(Path(fracwave.__file__).parent.parent))
        probe = "\n".join([
            "import argparse, contextlib, io",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counting(self, *a, **k):",
            "    built.append(1)",
            "    init(self, *a, **k)",
            "argparse.ArgumentParser.__init__ = counting",
            "from fracwave.cli import main",
            "counts = [len(built)]",
            "for _ in range(3):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        main(['eval', '--alpha', '1.5', '--dim', '1', '--r', '1', '--t', '1'])",
            "    counts.append(len(built))",
            "print(*counts)",
        ])
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        before, first, *later = map(int, out.split())
        assert before == 0
        assert first > 0 and later == [first, first]
        assert cli._build_parser() is cli._build_parser()

    def test_command_looked_up_at_call_time(self, capsys, monkeypatch):
        argv = ("eval", "--alpha", "1.5", "--dim", "1", "--r", "1", "--t", "1")
        assert run(capsys, *argv)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.r) or 0)
        assert run(capsys, *argv) == (0, "", "")
        assert seen == [1.0]

    @pytest.mark.parametrize("first,second", [
        (("profile", "--alpha", "1.5", "--dim", "2", "--t", "1", "--rmin", "0.4",
          "--rmax", "1.2", "--points", "4", "--out", "-", "--method", "mellin"),
         ("profile", "--alpha", "1.5", "--dim", "2", "--t", "1", "--rmin", "0.4",
          "--rmax", "1.2", "--points", "4", "--out", "-")),
        (("eval", "--alpha", "1.5", "--dim", "3", "--r", "0.7", "--t", "1",
          "--method", "integral"),
         ("eval", "--alpha", "1.5", "--dim", "3", "--r", "0.7", "--t", "1")),
    ])
    def test_no_option_leaks_between_calls(self, capsys, first, second):
        # each call's output on a freshly built parser is the reference
        fresh = {}
        for argv in (first, second):
            cli._build_parser.cache_clear()
            fresh[argv] = run(capsys, *argv)
        assert fresh[first] != fresh[second]  # the default method is not the explicit one
        for argv in (first, second, first, second):
            assert run(capsys, *argv) == fresh[argv]

    def test_usage_error_and_help_after_a_call(self, capsys):
        argv = ("eval", "--alpha", "1.5", "--dim", "1", "--r", "1", "--t", "1")
        assert run(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--alpha", "1.5", "--dim", "4", "--r", "1", "--t", "1"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert run(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--help"])
        assert exc.value.code == 0
        assert "--fixed-r" in capsys.readouterr().out


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

    def test_spectral_route(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "1.5", "--dim", "2",
                           "--r", "0.5", "--t", "1", "--method", "spectral")
        assert code == 0
        value, est = (float(tok) for tok in out.split())
        ref = g_spectral(1.5, 2, 0.5, 1.0)
        assert (value, est) == (float(f"{ref.value:.15g}"), float(f"{ref.est_error:.15g}"))
        assert value < 0.0 and est > 0.0

    def test_spectral_is_the_2d_default(self, capsys):
        argv = ("eval", "--alpha", "1.5", "--dim", "2", "--r", "0.5", "--t", "1")
        assert run(capsys, *argv)[1] == run(capsys, *argv, "--method", "spectral")[1]

    def test_origin_divergence_exit_3(self, capsys):
        code, _, err = run(capsys, "eval", "--alpha", "1.5", "--dim", "3",
                           "--r", "0", "--t", "1", "--method", "closed")
        assert code == 3
        assert "diverges at origin" in err

    def test_contour_failure_exit_3(self, capsys):
        code, out, err = run(capsys, "eval", "--alpha", "1.9999", "--dim", "2",
                             "--r", "1", "--t", "1", "--method", "mellin")
        assert code == 3
        assert out == ""
        assert err.startswith("error: tail bound ")
        assert "the kernel decays too slowly for the height cap" in err

    def test_closed_rejected_for_2d_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--alpha", "1.5", "--dim", "2",
                           "--r", "1", "--t", "1", "--method", "closed")
        assert code == 2
        assert "no closed form" in err
        assert "spectral" in err and "integral" in err and "mellin" in err

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
        # the same format at the ends of the double range and for -0
        edge = tmp_path / "edge.csv"
        col = [-0.0, 5e-324, 1e300, 0.1]
        _write_csv(str(edge), "a,b", np.array(col), col[::-1])
        assert edge.read_text(encoding="utf-8") == "a,b\n" + "".join(
            f"{a:.17g},{b:.17g}\n" for a, b in zip(col, col[::-1]))
        assert edge.read_text().split("\n")[1] == "-0,0.10000000000000001"

    @settings(max_examples=60, deadline=None)
    @given(columns=st.integers(1, 3),
           rows=st.one_of(st.sampled_from([0, 1, cli._CSV_BLOCK - 1, cli._CSV_BLOCK,
                                           cli._CSV_BLOCK + 1, 2 * cli._CSV_BLOCK + 1]),
                          st.integers(0, 2 * cli._CSV_BLOCK + 1)),
           seed=st.integers(0, 2 ** 32 - 1),
           specials=st.lists(st.tuples(st.integers(0), st.sampled_from(
               [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                math.nan, math.inf, -math.inf])), max_size=20))
    def test_block_writer_matches_per_row_format(self, columns, rows, seed, specials):
        # the values are raw bit patterns, so every exponent and NaN payload
        # occurs; the specials land on drawn cells
        table = np.random.default_rng(seed).integers(
            0, 2 ** 64, size=(rows, columns), dtype=np.uint64, endpoint=False).view(float)
        for cell, value in specials:
            if table.size:
                table.flat[cell % table.size] = value
        cols = [table[:, j] for j in range(columns)]
        row = ",".join(["%.17g"] * columns) + "\n"
        want = "h\n" + "".join(row % values for values in zip(*(c.tolist() for c in cols)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _write_csv("-", "h", *cols)
        assert out.getvalue() == want

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
        assert code == 0  # default method for dim=2 is the spectral route
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "r,value,est_error"
        vals = [tuple(map(float, l.split(","))) for l in lines[1:]]
        assert any(v < 0.0 for _, v, _ in vals)
        assert all(e > 0.0 for _, _, e in vals)
        rs, values, errs = np.array(vals).T
        ref = g_spectral(1.5, 2, rs, 1.0)
        assert np.array_equal(values, ref.value) and np.array_equal(errs, ref.est_error)
        for r, v, e in vals:  # and the radial integral agrees within the two est_errors
            integ = g_integral(1.5, 2, r, 1.0)
            assert abs(v - integ.value) <= e + integ.est_error

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

    def test_fixed_r_requires_time_bounds_exit_2(self, capsys):
        code, _, err = run(capsys, "profile", "--alpha", "1.5", "--dim", "1",
                           "--fixed-r", "0.5", "--tmin", "0.1", "--out", "-")
        assert code == 2
        assert "--fixed-r requires --tmin and --tmax" in err

    def test_radial_profile_requires_t_exit_2(self, capsys):
        code, _, err = run(capsys, "profile", "--alpha", "1.5", "--dim", "1",
                           "--rmin", "0", "--rmax", "1", "--out", "-")
        assert code == 2
        assert "radial profile requires --t" in err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_empty_grid_exit_2(self, capsys, value):
        code, out, err = run(capsys, "profile", "--alpha", "1.5", "--dim", "1", "--t", "1",
                             "--rmin", "0", "--rmax", "1", "--points", value, "--out", "-")
        assert code == 2
        assert out == ""
        assert "--points" in err

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        code, _, err = run(capsys, "profile", "--alpha", "1.5", "--dim", "1", "--t", "1",
                           "--rmin", "0", "--rmax", "1", "--points", "3", "--out", str(out))
        assert code == 2
        assert f"cannot write {out}" in err


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

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_empty_grid_exit_2(self, capsys, value):
        code, out, err = run(capsys, "velocity", "--dim", "3", "--alpha-min", "1.1",
                             "--alpha-max", "1.9", "--steps", value)
        assert code == 2
        assert out == ""
        assert "--steps" in err

    @pytest.mark.parametrize("lo, hi, steps, code", [
        ("1.5", "2.0", "3", 2), ("1.0", "1.5", "3", 2), ("nan", "1.5", "2", 2),
        ("1.9999999999", "1.99999999995", "2", 3), ("1.5", "1.99999999999", "2", 0)])
    def test_3d_exit_codes(self, capsys, lo, hi, steps, code):
        # an order outside (1, 2) is a usage error, one whose maximum is not
        # resolved from the zero crossing a numerical failure, with no row written
        got, out, err = run(capsys, "velocity", "--dim", "3", "--alpha-min", lo,
                            "--alpha-max", hi, "--steps", steps)
        assert got == code
        assert (out == "") == (code != 0)
        assert ("order must lie in" in err) == (code == 2)
        assert ("not resolved" in err) == (code == 3)

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
        for pair in ("integral vs mellin", "integral vs spectral", "mellin vs spectral"):
            line = next(l for l in out.splitlines() if l.startswith(pair + ":"))
            assert float(line.rsplit("=", 1)[1]) <= 1.0

    @pytest.mark.parametrize("dim,route", [(1, g1), (3, g3)])
    def test_spectral_route_is_compared(self, capsys, monkeypatch, dim, route):
        # a spectral value off by 1e-3 of the closed form must fail the check
        real = cli.quadrature.g_spectral

        def off(alpha, n, r, t):
            res = real(alpha, n, r, t)
            return dataclasses.replace(res, value=res.value + 1e-3 * np.abs(route(alpha, r, t)))

        argv = ("crosscheck", "--alpha", "1.5", "--dim", str(dim), "--t", "1", "--points", "3")
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli.quadrature, "g_spectral", off)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert "FAIL" in out

    @staticmethod
    def ratios(out):
        return [float(line.rsplit("=", 1)[1]) for line in out.splitlines() if " vs " in line]

    def test_underflowing_routes_agree(self, capsys):
        # at t = 1e300 every route's value and est_error underflow to 0
        code, out, _ = run(capsys, "crosscheck", "--alpha", "1.5", "--dim", "2",
                           "--t", "1e300", "--points", "2")
        assert code == 0
        assert "PASS" in out
        assert self.ratios(out) == [0.0, 0.0, 0.0]

    def test_difference_without_estimate_fails(self, capsys, monkeypatch):
        real = cli.quadrature.g_spectral

        def off(alpha, n, r, t):
            res = real(alpha, n, r, t)
            return dataclasses.replace(res, value=res.value + 1e-300)

        monkeypatch.setattr(cli.quadrature, "g_spectral", off)
        code, out, _ = run(capsys, "crosscheck", "--alpha", "1.5", "--dim", "2",
                           "--t", "1e300", "--points", "2")
        assert code == 1
        assert "FAIL" in out
        assert self.ratios(out) == [0.0, math.inf, math.inf]

    def test_unreachable_tolerance_exit_1(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--alpha", "1.5", "--dim", "1",
                           "--t", "1", "--points", "2", "--tol", "1e-30")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("flag,value", [("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"),
                                            ("--tol", "inf"), ("--points", "0"),
                                            ("--points", "-3"), ("--t", "0"), ("--t", "-1"),
                                            ("--t", "inf"), ("--t", "nan")])
    def test_bad_input_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "crosscheck", "--alpha", "1.5", "--dim", "1",
                             "--t", "1", flag, value)
        assert code == 2
        assert out == ""
        assert flag in err

    def test_overflowing_grid_exit_2(self, capsys):
        # 3 t = inf: the grid is formed without a numpy warning and r is rejected
        code, out, err = run(capsys, "crosscheck", "--alpha", "1.5", "--dim", "1",
                             "--t", "1e308")
        assert code == 2
        assert out == ""
        assert "r must be finite" in err


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

    def test_unit_mass_2d(self, capsys):
        code, out, _ = run(capsys, "moments", "--alpha", "1.5", "--dim", "2",
                           "--beta", "1", "--t", "3")
        assert code == 0
        assert abs(float(out.split()[1]) - 1.0 / (2.0 * math.pi)) <= 1e-15

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

    def test_one_column_phi_exit_2(self, capsys, tmp_path):
        phi = tmp_path / "phi.csv"
        phi.write_text("x\n0.0\n1.0\n")
        code, _, err = run(capsys, "solve1d", "--alpha", "1.5", "--t", "1",
                           "--phi", str(phi), "--out", "-")
        assert code == 2
        assert "phi file must be a CSV with header x,phi" in err

    @pytest.mark.parametrize("text,message", [
        ("x,phi\n", "has no data rows"),
        ("x,phi\n1.0,\n2.0,1.0\n", "cannot read phi file"),
    ])
    def test_empty_phi_data_exit_2(self, capsys, tmp_path, recwarn, text, message):
        phi = tmp_path / "phi.csv"
        phi.write_text(text)
        code, out, err = run(capsys, "solve1d", "--alpha", "1.5", "--t", "1",
                             "--phi", str(phi), "--out", "-")
        assert code == 2
        assert out == ""
        assert message in err
        assert not recwarn.list

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        phi = tmp_path / "phi.csv"
        phi.write_text("x,phi\n-1.0,0.0\n0.0,1.0\n1.0,0.0\n")
        out = tmp_path / "missing" / "u.csv"
        code, _, err = run(capsys, "solve1d", "--alpha", "1.5", "--t", "1",
                           "--phi", str(phi), "--out", str(out))
        assert code == 2
        assert f"cannot write {out}" in err
