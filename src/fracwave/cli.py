"""Command-line front end: scalar evaluation, CSV profiles, velocity curves,
cross-route checks, moments, and the 1D initial-value solver.

Exit codes: 0 success, 1 cross-check tolerance breach, 2 usage/domain error,
3 numerical failure.  CSV output is UTF-8 with LF line endings, a mandatory
header row, and shortest-roundtrip floats (%.17g).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import analysis, closed_form, mellin_barnes, quadrature
from .errors import (
    ContourFailure,
    FracWaveError,
    InvalidContour,
    InvalidGrid,
    InvalidOrder,
    MomentOutOfRange,
    NonConvergence,
    OriginDivergence,
    PoleError,
    UnsupportedDimension,
    UnsupportedOrder,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_USAGE_ERRORS = (InvalidOrder, MomentOutOfRange, UnsupportedDimension,
                 InvalidGrid, InvalidContour, UnsupportedOrder, ValueError)
_NUMERICAL_ERRORS = (NonConvergence, ContourFailure, OriginDivergence, PoleError)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _fmt17(x: float) -> str:
    return format(x, ".17g")


def _load_config(path: str | None) -> tuple[quadrature.QuadratureConfig,
                                            mellin_barnes.ContourConfig]:
    qcfg = quadrature.QuadratureConfig()
    ccfg = mellin_barnes.ContourConfig()
    if path is None:
        return qcfg, ccfg
    q_fields = {"abs_tol": float, "rel_tol": float, "max_lobes": int}
    c_fields = {"sigma": float, "y_max": float, "step_tol": float}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{line_no}: expected key=value", EXIT_USAGE)
                key, _, raw = line.partition("=")
                key = key.strip()
                raw = raw.strip()
                if key in q_fields:
                    qcfg = replace(qcfg, **{key: q_fields[key](raw)})
                elif key in c_fields:
                    ccfg = replace(ccfg, **{key: c_fields[key](raw)})
                else:
                    raise CliError(f"{path}:{line_no}: unknown key {key!r}", EXIT_USAGE)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_USAGE)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad config value in {path}: {exc}", EXIT_USAGE)
    return qcfg, ccfg


def _note_extrapolated(alpha: float, n: int) -> None:
    if alpha == 1.0 and n == 3:
        print("note: alpha=1 with dim=3 lies outside the established range; "
              "value extrapolated from the closed formula", file=sys.stderr)


def _evaluate(alpha: float, n: int, r, t, method: str,
              qcfg, ccfg) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate G_{alpha,n} on r and t, scalars or arrays that broadcast
    together; returns (value, est_error) arrays of the broadcast shape, with
    est_error = 0 for closed.  The closed forms and the contour take the
    whole grid in one call; the integral route is scalar and goes point by
    point."""
    if n == 1:
        r = np.abs(r)  # the 1D solution is even in x; profiles may be mirrored
    if method == "closed":
        if n == 2:
            raise CliError(
                "no closed form exists for dim=2; use the radial Bessel integral "
                "(--method integral) or the Mellin-Barnes contour (--method mellin)",
                EXIT_USAGE)
        _note_extrapolated(alpha, n)
        value = np.asarray(closed_form.g1(alpha, r, t) if n == 1
                           else closed_form.g3(alpha, r, t))
        return value, np.zeros_like(value)
    if method == "mellin":
        if np.any(r == 0.0):
            raise CliError("the Mellin-Barnes route requires r > 0", EXIT_USAGE)
        res = mellin_barnes.g_mellin_barnes(alpha, n, r, t, ccfg)
        return np.asarray(res.value), np.asarray(res.est_error)
    if method != "integral":
        raise CliError(f"unknown method {method!r}", EXIT_USAGE)
    grid = np.broadcast(r, t)
    results = [quadrature.g_integral(alpha, n, float(ri), float(ti), qcfg) for ri, ti in grid]
    return (np.reshape([res.value for res in results], grid.shape),
            np.reshape([res.est_error for res in results], grid.shape))


def _default_method(n: int) -> str:
    return "closed" if n in (1, 3) else "integral"


def _write_csv(path: str, header: str, rows) -> None:
    out = sys.stdout if path == "-" else open(path, "w", encoding="utf-8", newline="\n")
    try:
        out.write(header + "\n")
        for row in rows:
            out.write(",".join(_fmt17(x) for x in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_eval(args, qcfg, ccfg) -> int:
    method = args.method or _default_method(args.dim)
    value, est = map(float, _evaluate(args.alpha, args.dim, args.r, args.t,
                                      method, qcfg, ccfg))
    if method == "closed":
        print(format(value, ".15g"))
    else:
        print(f"{value:.15g} {est:.15g}")
    return EXIT_OK


def cmd_profile(args, qcfg, ccfg) -> int:
    method = args.method or _default_method(args.dim)
    if args.fixed_r is not None:
        if args.tmin is None or args.tmax is None:
            raise CliError("--fixed-r requires --tmin and --tmax", EXIT_USAGE)
        header = "t,value,est_error"
        grid = np.linspace(args.tmin, args.tmax, args.points)
        values, errs = _evaluate(args.alpha, args.dim, args.fixed_r, grid,
                                 method, qcfg, ccfg)
    else:
        if args.rmin is None or args.rmax is None:
            raise CliError("radial profile requires --rmin and --rmax", EXIT_USAGE)
        if args.t is None:
            raise CliError("radial profile requires --t", EXIT_USAGE)
        header = "r,value,est_error"
        grid = np.linspace(args.rmin, args.rmax, args.points)
        values, errs = _evaluate(args.alpha, args.dim, grid, args.t,
                                 method, qcfg, ccfg)
    _write_csv(args.out, header, zip(grid, values, errs))
    return EXIT_OK


def cmd_velocity(args, qcfg, ccfg) -> int:
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.steps)
    _write_csv(args.out, "alpha,v", analysis.velocity_curve(args.dim, alphas, args.which))
    return EXIT_OK


def cmd_crosscheck(args, qcfg, ccfg) -> int:
    rs = np.geomspace(0.3 * args.t, 3.0 * args.t, args.points)

    def route(method):
        return _evaluate(args.alpha, args.dim, rs, args.t, method, qcfg, ccfg)

    if args.dim in (1, 3):
        closed, _ = route("closed")
        integ, _ = route("integral")
        mb, _ = route("mellin")
        diff = np.abs(np.concatenate((integ - closed, mb - closed)))
        scale = np.tile(np.maximum(np.abs(closed), 1e-300), 2)
    else:
        integ, integ_err = route("integral")
        mb, mb_err = route("mellin")
        diff = np.abs(integ - mb)
        scale = np.maximum(np.abs(mb), 1e-300)
    max_abs = float(np.max(diff, initial=0.0))
    max_rel = float(np.max(diff / scale, initial=0.0))
    print(f"alpha={args.alpha} dim={args.dim} t={args.t} points={args.points}")
    print(f"max_abs_discrepancy={max_abs:.6e}")
    print(f"max_rel_discrepancy={max_rel:.6e}")
    if args.dim in (1, 3):
        ok = max_abs <= args.tol
        print(f"tolerance={args.tol:.6e} -> {'PASS' if ok else 'FAIL'}")
    else:
        ok = bool(np.all(diff <= integ_err + mb_err))
        print(f"combined-estimate check -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_moments(args, qcfg, ccfg) -> int:
    if args.dim == 1:
        value = analysis.moment_1d(args.alpha, args.beta, args.t)
    elif args.dim == 3:
        value = analysis.moment_3d(args.alpha, args.beta, args.t)
    else:
        raise CliError("moments are available for dim 1 and 3", EXIT_USAGE)
    print(f"formula {value:.15g}")
    if args.check_numeric:
        num = analysis.moment_numeric(args.alpha, args.dim, args.beta, args.t)
        rel = abs(num - value) / max(abs(value), 1e-300)
        print(f"numeric {num:.15g}")
        print(f"rel_diff {rel:.6e}")
    return EXIT_OK


def cmd_solve1d(args, qcfg, ccfg) -> int:
    try:
        data = np.genfromtxt(args.phi, delimiter=",", names=True)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read phi file {args.phi}: {exc}", EXIT_USAGE)
    if data.dtype.names is None or len(data.dtype.names) < 2:
        raise CliError("phi file must be a CSV with header x,phi", EXIT_USAGE)
    xs = np.atleast_1d(data[data.dtype.names[0]]).astype(float)
    phis = np.atleast_1d(data[data.dtype.names[1]]).astype(float)
    if xs.size < 2 or np.any(np.isnan(xs)) or np.any(np.isnan(phis)):
        raise CliError("phi file is malformed (need >= 2 numeric rows)", EXIT_USAGE)
    u = quadrature.solve_ivp_1d(args.alpha, xs, phis, args.t, xs)
    _write_csv(args.out, "x,u", zip(xs, u))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracwave",
        description="Fundamental solution of the multi-dimensional fractional "
                    "wave equation: three evaluation routes, profiles, "
                    "velocities, moments, and cross-checks.")
    ap.add_argument("--config", default=None, metavar="PATH",
                    help="key=value overrides for quadrature/contour defaults")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate G_{alpha,n}(r,t) at one point")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", choices=("closed", "integral", "mellin"))
    p.set_defaults(fn=cmd_eval)

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
    p.add_argument("--method", choices=("closed", "integral", "mellin"))
    p.add_argument("--out", required=True, help="output CSV path ('-' = stdout)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("velocity", help="CSV velocity curve over alpha")
    p.add_argument("--dim", type=int, required=True, choices=(1, 3))
    p.add_argument("--alpha-min", type=float, required=True, dest="alpha_min")
    p.add_argument("--alpha-max", type=float, required=True, dest="alpha_max")
    p.add_argument("--steps", type=int, default=91)
    p.add_argument("--which", choices=("phase", "gravity"), default="phase")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.set_defaults(fn=cmd_velocity)

    p = sub.add_parser("crosscheck", help="compare all evaluation routes on a grid")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=cmd_crosscheck)

    p = sub.add_parser("moments", help="moment formulas with optional numeric check")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dim", type=int, required=True, choices=(1, 3))
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--check-numeric", action="store_true", dest="check_numeric")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("solve1d", help="1D initial-value problem by Green convolution")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--phi", required=True, help="input CSV with header x,phi")
    p.add_argument("--out", required=True, help="output CSV path ('-' = stdout)")
    p.set_defaults(fn=cmd_solve1d)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        qcfg, ccfg = _load_config(args.config)
        return args.fn(args, qcfg, ccfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except _NUMERICAL_ERRORS as exc:
        msg = str(exc)
        if isinstance(exc, OriginDivergence):
            msg = f"diverges at origin: {msg}"
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
