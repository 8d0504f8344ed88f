"""Command-line front end: scalar evaluation, CSV profiles, velocity curves,
cross-route checks, moments, and the 1D initial-value solver.

Exit codes: 0 success, 1 cross-check tolerance breach, 2 usage/domain error,
3 numerical failure.  CSV output is UTF-8 with LF line endings, a mandatory
header row, and floats with 17 significant digits (%.17g), which round-trip
but are not always the shortest form: 0.1 prints as 0.10000000000000001.

The argument parser is built once per process, on the first call of `main`
(not at import), and every later call reuses it.  Each call looks up its
`cmd_<command>` function by name when it runs, so a wrapper or test double
installed on a `cmd_*` attribute after that first call is still the one called.

Importing this module loads numpy and no scipy module.  The closed forms,
the spectral route, `velocity`, `moments` and `solve1d` run on numpy alone;
`scipy.special` (~0.2 s to import) is loaded on first use by
`--method integral` (and so by `crosscheck`) and by `--method mellin` at
`--dim 2`, and `scipy.integrate` by `moments --check-numeric`.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from contextlib import nullcontext

import numpy as np

from . import analysis, closed_form, mellin_barnes, quadrature
from .errors import FracWaveError, NonConvergence, OriginDivergence, check_positive

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# exit 3; every other FracWaveError (or ValueError) is a usage/domain error
_NUMERICAL_ERRORS = (NonConvergence, OriginDivergence)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _note_extrapolated(alpha: float, n: int) -> None:
    if alpha == 1.0 and n == 3:
        print("note: alpha=1 with dim=3 lies outside the established range; "
              "value extrapolated from the closed formula", file=sys.stderr)


def _evaluate(alpha: float, n: int, r, t, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate G_{alpha,n} on r and t, scalars or arrays that broadcast
    together; returns (value, est_error) arrays of the broadcast shape, with
    est_error = 0 for closed.  The closed forms, the spectral route and the
    contour take the whole grid in one call; the integral route is scalar and
    goes point by point."""
    if n == 1:
        r = np.abs(r)  # the 1D solution is even in x; profiles may be mirrored
    if method == "closed":
        if n == 2:
            raise CliError(
                "no closed form exists for dim=2; use the spectral route (--method spectral, "
                "the default), the radial Bessel integral (--method integral) or the "
                "Mellin-Barnes contour (--method mellin)",
                EXIT_USAGE)
        _note_extrapolated(alpha, n)
        value = np.asarray(closed_form.g1(alpha, r, t) if n == 1
                           else closed_form.g3(alpha, r, t))
        return value, np.zeros_like(value)
    if method in ("spectral", "mellin"):
        route = quadrature.g_spectral if method == "spectral" else mellin_barnes.g_mellin_barnes
        res = route(alpha, n, r, t)
        return np.asarray(res.value), np.asarray(res.est_error)
    grid = np.broadcast(r, t)
    results = [quadrature.g_integral(alpha, n, float(ri), float(ti)) for ri, ti in grid]
    return (np.reshape([res.value for res in results], grid.shape),
            np.reshape([res.est_error for res in results], grid.shape))


def _default_method(n: int) -> str:
    return "closed" if n in (1, 3) else "spectral"


def _write_csv(path: str, header: str, *columns) -> None:
    """One CSV row per index of the equal-length columns, floats as %.17g."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    try:
        with (nullcontext(sys.stdout) if path == "-"
              else open(path, "w", encoding="utf-8", newline="\n")) as out:
            out.write(header + "\n")
            out.writelines(row % values
                           for values in zip(*(np.asarray(c).tolist() for c in columns)))
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_USAGE)


def cmd_eval(args) -> int:
    method = args.method or _default_method(args.dim)
    value, est = map(float, _evaluate(args.alpha, args.dim, args.r, args.t, method))
    if method == "closed":
        print(format(value, ".15g"))
    else:
        print(f"{value:.15g} {est:.15g}")
    return EXIT_OK


def _check_count(flag: str, value: int) -> None:
    if value < 1:
        raise CliError(f"{flag} must be at least 1, got {value}", EXIT_USAGE)


def cmd_profile(args) -> int:
    _check_count("--points", args.points)
    method = args.method or _default_method(args.dim)
    if args.fixed_r is not None:
        if args.tmin is None or args.tmax is None:
            raise CliError("--fixed-r requires --tmin and --tmax", EXIT_USAGE)
        header = "t,value,est_error"
        grid = np.linspace(args.tmin, args.tmax, args.points)
        values, errs = _evaluate(args.alpha, args.dim, args.fixed_r, grid, method)
    else:
        if args.rmin is None or args.rmax is None:
            raise CliError("radial profile requires --rmin and --rmax", EXIT_USAGE)
        if args.t is None:
            raise CliError("radial profile requires --t", EXIT_USAGE)
        header = "r,value,est_error"
        grid = np.linspace(args.rmin, args.rmax, args.points)
        values, errs = _evaluate(args.alpha, args.dim, grid, args.t, method)
    _write_csv(args.out, header, grid, values, errs)
    return EXIT_OK


def cmd_velocity(args) -> int:
    _check_count("--steps", args.steps)
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.steps)
    _write_csv(args.out, "alpha,v", *zip(*analysis.velocity_curve(args.dim, alphas, args.which)))
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    check_positive("--tol", args.tol)
    check_positive("--t", args.t)
    _check_count("--points", args.points)
    with np.errstate(over="ignore", invalid="ignore"):  # 3 t = inf: the routes' r check raises
        rs = np.geomspace(0.3 * args.t, 3.0 * args.t, args.points)

    def route(method):
        return _evaluate(args.alpha, args.dim, rs, args.t, method)

    if args.dim in (1, 3):
        closed, _ = route("closed")
        others = [route(method)[0] for method in ("integral", "mellin", "spectral")]
        diff = np.abs(np.concatenate([value - closed for value in others]))
        scale = np.tile(np.maximum(np.abs(closed), 1e-300), len(others))
    else:
        # every pair of the three routes must agree within its combined est_error
        routes = {method: route(method) for method in ("integral", "mellin", "spectral")}
        pairs = [("integral", "mellin"), ("integral", "spectral"), ("mellin", "spectral")]
        diff = np.concatenate([np.abs(routes[a][0] - routes[b][0]) for a, b in pairs])
        combined = np.concatenate([routes[a][1] + routes[b][1] for a, b in pairs])
        scale = np.tile(np.maximum(np.abs(routes["spectral"][0]), 1e-300), len(pairs))
    max_abs = float(np.max(diff, initial=0.0))
    max_rel = float(np.max(diff / scale, initial=0.0))
    print(f"alpha={args.alpha} dim={args.dim} t={args.t} points={args.points}")
    print(f"max_abs_discrepancy={max_abs:.6e}")
    print(f"max_rel_discrepancy={max_rel:.6e}")
    if args.dim in (1, 3):
        ok = max_abs <= args.tol
        print(f"tolerance={args.tol:.6e} -> {'PASS' if ok else 'FAIL'}")
    else:
        # all routes can underflow to 0 with est_error 0: 0/0 agrees, d/0 does not
        ratio = np.divide(diff, combined, out=np.where(diff > 0.0, np.inf, 0.0),
                          where=combined > 0.0)
        for k, (a, b) in enumerate(pairs):
            part = slice(k * rs.size, (k + 1) * rs.size)
            print(f"{a} vs {b}: max |diff|/(sum of est_errors)="
                  f"{float(np.max(ratio[part], initial=0.0)):.3f}")
        ok = bool(np.all(diff <= combined))
        print(f"combined-estimate check -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_moments(args) -> int:
    moment = analysis.moment_1d if args.dim == 1 else analysis.moment_3d
    value = moment(args.alpha, args.beta, args.t)
    print(f"formula {value:.15g}")
    if args.check_numeric:
        num = analysis.moment_numeric(args.alpha, args.dim, args.beta, args.t)
        rel = abs(num - value) / max(abs(value), 1e-300)
        print(f"numeric {num:.15g}")
        print(f"rel_diff {rel:.6e}")
    return EXIT_OK


def cmd_solve1d(args) -> int:
    try:
        with warnings.catch_warnings():
            # a file without data rows is reported below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(args.phi, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read phi file {args.phi}: {exc}", EXIT_USAGE)
    if data.shape[0] == 0:
        raise CliError(f"phi file {args.phi} has no data rows", EXIT_USAGE)
    if data.shape[1] < 2:
        raise CliError("phi file must be a CSV with header x,phi", EXIT_USAGE)
    xs, phis = data[:, 0], data[:, 1]
    _write_csv(args.out, "x,u", xs, quadrature.solve_ivp_1d(args.alpha, xs, phis, args.t, xs))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one: parse_args returns a fresh Namespace each time."""
    ap = argparse.ArgumentParser(
        prog="fracwave",
        description="Fundamental solution of the multi-dimensional fractional "
                    "wave equation: four evaluation routes, profiles, "
                    "velocities, moments, and cross-checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate G_{alpha,n}(r,t) at one point")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", choices=("closed", "spectral", "integral", "mellin"))

    p = sub.add_parser("profile", help="CSV radial or time profile")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--t", type=float)
    p.add_argument("--rmin", type=float)
    p.add_argument("--rmax", type=float)
    p.add_argument("--fixed-r", type=float, dest="fixed_r")
    p.add_argument("--tmin", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--method", choices=("closed", "spectral", "integral", "mellin"))
    p.add_argument("--out", required=True, help="output CSV path ('-' = stdout)")

    p = sub.add_parser("velocity", help="CSV velocity curve over alpha")
    p.add_argument("--dim", type=int, required=True, choices=(1, 3))
    p.add_argument("--alpha-min", type=float, required=True, dest="alpha_min")
    p.add_argument("--alpha-max", type=float, required=True, dest="alpha_max")
    p.add_argument("--steps", type=int, default=91)
    p.add_argument("--which", choices=("phase", "gravity"), default="phase")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")

    p = sub.add_parser("crosscheck", help="compare all evaluation routes on a grid")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("moments", help="moment formulas with optional numeric check")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dim", type=int, required=True, choices=(1, 3))
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--check-numeric", action="store_true", dest="check_numeric")

    p = sub.add_parser("solve1d", help="1D initial-value problem by Green convolution")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--phi", required=True, help="input CSV with header x,phi")
    p.add_argument("--out", required=True, help="output CSV path ('-' = stdout)")

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up per call, so a wrapper installed on cmd_* after the
        # parser was built is still the function that runs
        return globals()[f"cmd_{args.command}"](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except _NUMERICAL_ERRORS as exc:
        msg = str(exc)
        if isinstance(exc, OriginDivergence):
            msg = f"diverges at origin: {msg}"
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FracWaveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
