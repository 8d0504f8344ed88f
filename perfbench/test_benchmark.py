"""Tests of the benchmark itself: its references, its output checks and its
tracer.  Run with ``python3 -m pytest perfbench -q`` from the repository
root; the repository's own test command does not collect them.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import reference as ref
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

# The frozen 40-digit n = 2 oracle values of tests/test_quadrature.py,
# keyed by (alpha, r, t).
G2_ORACLE = {
    (1.5, 1.0, 1.0): 0.170170205317281,
    (1.5, 0.5, 1.0): -0.07835315470849381,
}


# -- references ---------------------------------------------------------------

@pytest.mark.parametrize("key", sorted(G2_ORACLE))
def test_abel_reference_reproduces_the_oracle(key):
    assert abs(ref.g2(*key) - G2_ORACLE[key]) <= 1e-15


def test_g1_is_the_cauchy_kernel_at_alpha_1():
    x = np.linspace(-5.0, 5.0, 11)
    t = 0.7
    assert np.allclose(ref.g1(1.0, x, t), t / (math.pi * (t * t + x * x)), rtol=1e-15)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
def test_g1_has_unit_mass(alpha):
    half, _ = quad(lambda x: float(ref.g1(alpha, x, 1.0)), 0.0, np.inf, limit=400,
                   epsabs=1e-13, epsrel=1e-13)
    assert abs(2.0 * half - 1.0) <= 1e-9


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
def test_g3_and_g1_dx_are_the_derivative_of_g1(alpha):
    r = np.array([0.3, 0.9, 2.5])
    h = 1e-6
    fd = (ref.g1(alpha, r + h, 1.0) - ref.g1(alpha, r - h, 1.0)) / (2.0 * h)
    assert np.allclose(ref.g1_dx(alpha, r, 1.0), fd, rtol=1e-7)
    assert np.allclose(ref.g3(alpha, r, 1.0), -fd / (2.0 * math.pi * r), rtol=1e-7)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_z_alpha_is_the_zero_of_g3(alpha):
    z = ref.z_alpha(alpha)
    assert abs(ref.g3(alpha, z, 1.0)) <= 1e-13 * abs(ref.g3(alpha, 0.5 * z, 1.0))
    assert ref.g3(alpha, 0.99 * z, 1.0) < 0.0 < ref.g3(alpha, 1.01 * z, 1.0)


@pytest.mark.parametrize("alpha", [1.2, 1.575, 1.9])
def test_phase_velocity_is_the_maximum_of_g3(alpha):
    c = ref.phase_velocity_3d(alpha)
    g = float(ref.g3(alpha, c, 1.0))
    for d in (1e-3, -1e-3):
        assert float(ref.g3(alpha, c + d, 1.0)) < g


def test_phase_velocity_peaks_near_1_575():
    alphas = np.linspace(1.5, 1.65, 151)
    v = [ref.phase_velocity_3d(a) for a in alphas]
    assert abs(alphas[int(np.argmax(v))] - 1.575) <= 0.02


@pytest.mark.parametrize("alpha", [1.3, 1.7])
def test_gravity_velocity_is_the_half_line_mean(alpha):
    mean, _ = quad(lambda x: x * float(ref.g1(alpha, x, 1.0)), 0.0, np.inf, limit=800,
                   epsabs=1e-12, epsrel=1e-12)
    assert abs(mean / 0.5 - ref.gravity_velocity(alpha)) <= 1e-6


def test_gaussian_cauchy_is_the_convolution():
    sigma, t = 0.9, 1.1
    for x in (0.0, 0.7, 3.0):
        direct, _ = quad(lambda y: math.exp(-0.5 * (y / sigma) ** 2)
                         / (sigma * math.sqrt(2.0 * math.pi))
                         * t / (math.pi * (t * t + (x - y) ** 2)),
                         -np.inf, np.inf, epsabs=1e-15, epsrel=1e-13)
        assert abs(ref.gaussian_cauchy(x, sigma, t) - direct) <= 1e-13


def test_trapezoid_convolution_is_exact_for_gaussian_input_at_alpha_1():
    sigma, t = 1.0, 1.0
    xs = np.linspace(-12.0, 12.0, 2001)
    phis = np.exp(-0.5 * xs ** 2) / math.sqrt(2.0 * math.pi)
    u = ref.trapezoid_convolution(1.0, xs, phis, t)
    assert np.max(np.abs(u - ref.gaussian_cauchy(xs, sigma, t))) <= 1e-12 * np.max(u)


# -- output checks --------------------------------------------------------------

def _csv(header, *cols):
    return header + "\n" + "".join(",".join(format(c, ".17g") for c in row) + "\n"
                                   for row in zip(*cols))


def _profile_output(command, values):
    grid = np.linspace(float(workloads._opt(command.argv, "--rmin")),
                       float(workloads._opt(command.argv, "--rmax")),
                       int(workloads._opt(command.argv, "--points")))
    return _csv("r,value,est_error", grid, values, np.zeros_like(grid))


def _reference_output(command):
    argv = command.argv
    alpha, t = float(workloads._opt(argv, "--alpha")), float(workloads._opt(argv, "--t"))
    if argv[0] == "profile":
        n = int(workloads._opt(argv, "--dim"))
        grid = np.linspace(float(workloads._opt(argv, "--rmin")),
                           float(workloads._opt(argv, "--rmax")),
                           int(workloads._opt(argv, "--points")))
        if n == 1:
            values = ref.g1(alpha, grid, t)
        elif n == 3:
            values = ref.g3(alpha, grid, t)
        else:
            values = np.array([ref.g2(alpha, float(r), t) for r in grid])
        return _profile_output(command, values)
    raise AssertionError(argv)


@pytest.mark.parametrize("name", ["dim2", "contour"])
def test_route_profiles_pass_on_references_and_fail_when_perturbed(name):
    wl = workloads.WORKLOADS[name](7)
    for command in wl.commands:
        if command.argv[0] != "profile":
            continue
        good = _reference_output(command)
        assert command.check(good) == []
        rows = workloads._read_csv(good, 3)
        rows[len(rows) // 2, 1] += 2e-6
        assert command.check(_profile_output(command, rows[:, 1])) != []


def test_closed_profiles_fail_when_perturbed():
    wl = workloads.closed(7)
    for command in wl.commands:
        if command.argv[0] != "profile":
            continue
        good = _reference_output(command)
        assert command.check(good) == []
        values = workloads._read_csv(good, 3)[:, 1]
        bad = values.copy()
        bad[np.argmax(np.abs(bad))] *= 1.0 + 1e-9
        assert command.check(_profile_output(command, bad)) != []


def test_3d_profile_fails_with_a_second_sign_change():
    command = workloads.closed(7).commands[0]
    assert workloads._opt(command.argv, "--dim") == "3"
    values = workloads._read_csv(_reference_output(command), 3)[:, 1]
    values[-1] = -values[-1]
    errors = command.check(_profile_output(command, values))
    assert any("sign change" in e for e in errors)


def test_2d_profile_must_be_negative_near_the_origin():
    command = workloads.dim2(7).commands[0]
    values = workloads._read_csv(_reference_output(command), 3)[:, 1]
    values[0] = abs(values[0])
    errors = command.check(_profile_output(command, values))
    assert any("negative near the origin" in e for e in errors)


def test_velocity_and_solve1d_checks():
    wl = workloads.closed(7)
    by_kind = {}
    for c in wl.commands:
        by_kind.setdefault((c.argv[0], workloads._opt(c.argv, "--which")
                            or workloads._opt(c.argv, "--alpha")), c)
    phase = by_kind[("velocity", None)]
    alphas = np.linspace(float(workloads._opt(phase.argv, "--alpha-min")),
                         float(workloads._opt(phase.argv, "--alpha-max")),
                         int(workloads._opt(phase.argv, "--steps")))
    v = np.array([ref.phase_velocity_3d(a) for a in alphas])
    assert phase.check(_csv("alpha,v", alphas, v)) == []
    v[3] += 1e-6
    assert phase.check(_csv("alpha,v", alphas, v)) != []

    gravity = by_kind[("velocity", "gravity")]
    alphas = np.linspace(float(workloads._opt(gravity.argv, "--alpha-min")),
                         float(workloads._opt(gravity.argv, "--alpha-max")),
                         int(workloads._opt(gravity.argv, "--steps")))
    v = np.array([ref.gravity_velocity(a) for a in alphas])
    assert gravity.check(_csv("alpha,v", alphas, v)) == []
    v[0] *= 1.0 + 1e-9
    assert gravity.check(_csv("alpha,v", alphas, v)) != []

    phi = workloads._read_csv(wl.files["phi.csv"], 2)
    xs, phis = phi[:, 0], phi[:, 1]
    for alpha in ("1.0", "1.6"):
        c = by_kind[("solve1d", alpha)]
        t = float(workloads._opt(c.argv, "--t"))
        u = ref.trapezoid_convolution(float(alpha), xs, phis, t)
        assert c.check(_csv("x,u", xs, u)) == []
        u[np.argmax(u)] *= 1.0 + 1e-9
        assert c.check(_csv("x,u", xs, u)) != []


def test_crosscheck_check_needs_pass():
    command = workloads.dim2(7).commands[-1]
    assert command.check("combined-estimate check -> PASS\n") == []
    assert command.check("combined-estimate check -> FAIL\n") != []


def test_seed_fixes_the_inputs():
    for name, build in workloads.WORKLOADS.items():
        assert [c.argv for c in build(3).commands] == [c.argv for c in build(3).commands]
        assert [c.argv for c in build(3).commands] != [c.argv for c in build(4).commands]


def test_dim2_integral_points_counted_from_the_definition():
    wl = workloads.dim2(1)
    assert wl.integral_points_per_round == 3 * 3 + 2


# -- tracer -------------------------------------------------------------------

@pytest.fixture
def fracwave_modules():
    sys.path.insert(0, str(SRC))
    try:
        import fracwave
        from fracwave import cli, quadrature, special
        yield fracwave, cli, quadrature, special
    finally:
        sys.path.remove(str(SRC))


def test_tracer_counts_and_restores(fracwave_modules):
    import spans

    fracwave, cli, quadrature, special = fracwave_modules
    original = special.ml_neg
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert quadrature.ml_neg is not original and special.ml_neg is not original
        quadrature.g_integral(1.5, 3, 0.5, 1.0)
    finally:
        tracer.uninstall()
    assert special.ml_neg is original and quadrature.ml_neg is original
    summary = tracer.summary()
    ml = summary["per_name"]["special.ml_neg"]
    assert ml["calls"] > 0
    assert summary["counts"]["special.ml_neg.values"] == ml["calls"]
    assert sum(summary["counts"].get(f"special.ml_neg.calls_{r}", 0)
               for r in ("series", "intermediate", "asymptotic")) == ml["calls"]
    integral = summary["per_name"]["quadrature.g_integral"]
    assert integral["calls"] == 1
    # every ml_neg span is a child of the g_integral span
    names, parents, starts, ends = tracer.spans()
    top = names.tolist().index(tracer.names.index("quadrature.g_integral"))
    assert np.all(parents[names == tracer.names.index("special.ml_neg")] == top)
    assert 0.0 <= integral["self_s"] < float(integral["durations"][0])


def test_tracer_reports_absent_targets(fracwave_modules, monkeypatch):
    import spans

    monkeypatch.setattr(spans, "SPAN_TARGETS", spans.SPAN_TARGETS + (("special", "gone"),))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["special.gone"]


# -- whole runs -----------------------------------------------------------------

def _run(capsys, *argv):
    import run

    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_a_run_passes_and_catches_a_faulty_program(capsys, fracwave_modules, monkeypatch):
    result = _run(capsys, "--workload", "closed", "--seed", "1", "--seconds", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.closed(1).commands)
    assert set(result["metrics"]) == {"setup_s", "points_per_s", "peak_rss_mb"}

    from fracwave import closed_form

    g3 = closed_form.g3
    monkeypatch.setattr(closed_form, "g3", lambda *a: g3(*a) * (1.0 + 1e-9))
    result = _run(capsys, "--workload", "closed", "--seed", "1", "--seconds", "0")
    assert not result["correct"]
