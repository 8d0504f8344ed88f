"""The benchmark's workloads: CLI invocations made from a seed, and the
checks each invocation's output must pass.

A workload is one round of ``fracwave`` commands; the runner repeats whole
rounds.  The seed draws the time t (log-uniform in [0.8, 1.25]) and jitters
the ends of every r/t range and alpha range by a few per cent, so the cost of
a round barely moves from seed to seed while the inputs do.  The orders
alpha are fixed per workload because the cost of every route depends on
alpha far more than on r/t.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

# Absolute tolerance for the integral and contour routes, and the tolerance
# relative to a profile's largest |value| for the closed forms and the
# alpha = 1 Green convolution.
ROUTE_ABS_TOL = 1e-6
CLOSED_REL_TOL = 1e-12
# The CLI's golden-section search stops at a 1e-10 bracket; the maximum is
# flat, so its location is good to about sqrt(eps).
PHASE_VELOCITY_ABS_TOL = 1e-7
PHASE_PEAK = (1.575, 0.02)


@dataclass
class Command:
    """One CLI invocation, the output points it yields, and its check."""

    argv: list[str]
    points: int
    check: Callable[[str], list[str]]


@dataclass
class Workload:
    commands: list[Command]
    calibration: str  # the calibration.LOOPS entry that tracks its slowdowns
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text

    @property
    def points_per_round(self) -> int:
        return sum(c.points for c in self.commands)

    @property
    def integral_points_per_round(self) -> int:
        """n = 2 points the round sends through the radial integral."""
        total = 0
        for c in self.commands:
            argv = c.argv
            if argv[0] == "profile" and _opt(argv, "--dim") == "2" \
                    and _opt(argv, "--method") in (None, "integral"):
                total += int(_opt(argv, "--points"))
            elif argv[0] == "crosscheck":
                total += int(_opt(argv, "--points"))
        return total


def _opt(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _f(x: float) -> str:
    return repr(float(x))


def _read_csv(text: str, columns: int) -> np.ndarray:
    lines = text.splitlines()
    rows = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
    if rows.shape[1] != columns:
        raise ValueError(f"expected {columns} columns, got {rows.shape[1]}")
    return rows


def _grid_errors(label, got, want) -> list[str]:
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-14, atol=1e-14):
        return [f"{label}: output grid differs from the requested one"]
    return []


def _abs_errors(label, got, want, tol) -> list[str]:
    err = float(np.max(np.abs(got - want)))
    return [] if err <= tol else [f"{label}: max |value - reference| = {err:.3e} > {tol:.1e}"]


def _scaled_errors(label, got, want) -> list[str]:
    tol = CLOSED_REL_TOL * float(np.max(np.abs(want)))
    return _abs_errors(label, got, want, tol)


# -- checks -------------------------------------------------------------------

def _check_profile(alpha, n, t, grid, method):
    label = f"profile alpha={alpha} dim={n} method={method}"

    def check(text):
        rows = _read_csv(text, 3)
        r, v = rows[:, 0], rows[:, 1]
        errors = _grid_errors(label, r, grid)
        if errors:
            return errors
        if n == 1:
            want = ref.g1(alpha, r, t)
        elif n == 3:
            want = ref.g3(alpha, r, t)
        else:
            want = np.array([ref.g2(alpha, float(x), t) for x in r])
        if method == "closed":
            errors += _scaled_errors(label, v, want)
        else:
            errors += _abs_errors(label, v, want, ROUTE_ABS_TOL)
        if n == 1 and np.any(v < 0.0):
            errors.append(f"{label}: negative density value")
        if n == 1 and grid[0] == -grid[-1]:
            mirror = float(np.max(np.abs(v - v[::-1])))
            if mirror > CLOSED_REL_TOL * float(np.max(v)):
                errors.append(f"{label}: mirrored points differ by {mirror:.3e}")
        if n == 2 and not v[0] < 0.0:
            errors.append(f"{label}: not negative near the origin (r={r[0]}, G={v[0]})")
        if n == 3:
            r_star = ref.z_alpha(alpha) * t
            if not (np.all(v[r < r_star] < 0.0) and np.all(v[r > r_star] > 0.0)):
                errors.append(f"{label}: sign change not at z_alpha t = {r_star}")
        return errors

    return check


def _check_crosscheck(text):
    if "PASS" not in text:
        return [f"crosscheck did not pass: {text.strip()!r}"]
    return []


def _check_phase_velocity(alphas):
    def check(text):
        rows = _read_csv(text, 2)
        a, v = rows[:, 0], rows[:, 1]
        errors = _grid_errors("velocity phase", a, alphas)
        if errors:
            return errors
        want = np.array([ref.phase_velocity_3d(float(x)) for x in a])
        errors += _abs_errors("velocity phase", v, want, PHASE_VELOCITY_ABS_TOL)
        peak = float(a[int(np.argmax(v))])
        if abs(peak - PHASE_PEAK[0]) > PHASE_PEAK[1]:
            errors.append(f"velocity phase: maximum at alpha={peak}, expected "
                          f"{PHASE_PEAK[0]} +/- {PHASE_PEAK[1]}")
        return errors

    return check


def _check_gravity_velocity(alphas):
    def check(text):
        rows = _read_csv(text, 2)
        a, v = rows[:, 0], rows[:, 1]
        errors = _grid_errors("velocity gravity", a, alphas)
        want = np.array([ref.gravity_velocity(float(x)) for x in a])
        return errors + _scaled_errors("velocity gravity", v, want)

    return check


def _check_solve1d(alpha, t, xs, phis, sigma):
    label = f"solve1d alpha={alpha}"

    def check(text):
        rows = _read_csv(text, 2)
        x, u = rows[:, 0], rows[:, 1]
        errors = _grid_errors(label, x, xs)
        if errors:
            return errors
        if alpha == 1.0:
            want = ref.gaussian_cauchy(x, sigma, t)
        else:
            want = ref.trapezoid_convolution(alpha, xs, phis, t)
        errors += _scaled_errors(label, u, want)
        if np.any(u < 0.0):
            errors.append(f"{label}: negative value from a nonnegative input")
        mirror = float(np.max(np.abs(u - u[::-1])))
        if mirror > CLOSED_REL_TOL * float(np.max(u)):
            errors.append(f"{label}: solution of an even input is not even ({mirror:.3e})")
        return errors

    return check


# -- workloads ----------------------------------------------------------------

def _time(rng) -> float:
    return float(math.exp(rng.uniform(math.log(0.8), math.log(1.25))))


def _profile(alpha, n, t, rmin, rmax, points, method=None) -> Command:
    argv = ["profile", "--alpha", _f(alpha), "--dim", str(n), "--t", _f(t),
            "--rmin", _f(rmin), "--rmax", _f(rmax), "--points", str(points), "--out", "-"]
    if method is not None:
        argv += ["--method", method]
    grid = np.linspace(rmin, rmax, points)
    return Command(argv, points, _check_profile(alpha, n, t, grid, method or (
        "integral" if n == 2 else "closed")))


def dim2(seed: int) -> Workload:
    """n = 2 by the default (radial integral) route, plus crosscheck."""
    rng = np.random.default_rng(seed)
    t = _time(rng)
    commands = [_profile(alpha, 2, t, t * rng.uniform(0.2, 0.22), t * rng.uniform(2.9, 3.0), 3)
                for alpha in (1.25, 1.5, 1.9)]
    crosscheck_points = 2
    commands.append(Command(
        ["crosscheck", "--alpha", "1.5", "--dim", "2", "--t", _f(t),
         "--points", str(crosscheck_points)],
        2 * crosscheck_points,  # an integral and a contour value per radius
        _check_crosscheck))
    return Workload(commands, "scalar")


def contour(seed: int) -> Workload:
    """Mellin-Barnes profiles for n = 1, 2, 3."""
    rng = np.random.default_rng(seed)
    t = _time(rng)
    commands = [_profile(alpha, n, t, t * rng.uniform(0.1, 0.11), t * rng.uniform(7.8, 8.0),
                         16, method="mellin")
                for n in (1, 2, 3) for alpha in (1.3, 1.6, 1.9)]
    return Workload(commands, "array")


def closed(seed: int) -> Workload:
    """Closed-form profiles, velocity curves and the 1D Green convolution."""
    rng = np.random.default_rng(seed)
    t = _time(rng)
    commands = [_profile(alpha, 3, t, t * rng.uniform(0.05, 0.06), t * rng.uniform(3.9, 4.0), 5000)
                for alpha in (1.3, 1.7)]
    for alpha in (1.2, 1.8):
        r_max = t * rng.uniform(19.5, 20.0)
        commands.append(_profile(alpha, 1, t, -r_max, r_max, 5000))

    shift = rng.uniform(0.0, 0.004)
    phase = np.linspace(1.05 + shift, 1.95 + shift, 91)
    commands.append(Command(
        ["velocity", "--dim", "3", "--alpha-min", _f(phase[0]), "--alpha-max", _f(phase[-1]),
         "--steps", str(phase.size)],
        phase.size, _check_phase_velocity(phase)))
    gravity = np.linspace(1.1 + shift, 1.9 + shift, 81)
    commands.append(Command(
        ["velocity", "--dim", "1", "--which", "gravity", "--alpha-min", _f(gravity[0]),
         "--alpha-max", _f(gravity[-1]), "--steps", str(gravity.size)],
        gravity.size, _check_gravity_velocity(gravity)))

    sigma = rng.uniform(0.8, 1.2)
    xs = np.linspace(-12.0 * sigma, 12.0 * sigma, 2001)
    phis = np.exp(-0.5 * (xs / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    phi_csv = "x,phi\n" + "".join(f"{x!r},{p!r}\n" for x, p in zip(xs.tolist(), phis.tolist()))
    files = {"phi.csv": phi_csv}
    for alpha in (1.0, 1.6):
        commands.append(Command(
            ["solve1d", "--alpha", _f(alpha), "--t", _f(t), "--phi", "phi.csv", "--out", "-"],
            xs.size, _check_solve1d(alpha, t, xs, phis, sigma)))
    return Workload(commands, "array", files)


WORKLOADS = {"dim2": dim2, "contour": contour, "closed": closed}
