"""Run one benchmark workload of the fracwave CLI and print its metrics.

    python3 perfbench/run.py --workload dim2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One single-threaded process imports
``fracwave`` from ``src/`` and calls ``fracwave.cli.main(argv)`` in-process,
repeating whole rounds of the workload's commands until ``--seconds`` have
passed.  Every command's output is kept in memory; after the timed phase it
is checked against references the benchmark computes itself (reference.py).

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (CLI commands run, and those that exited
non-zero or raised), and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones: set-up time, output points per second and peak memory,
with the timings scaled by the host speed that calibration.py measures
between commands.  With ``--trace 1`` the layers are traced (spans.py) and
the metrics are per-layer figures per round.  See README.md for the
workloads and the metrics.
"""

import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process was started by the kernel."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


# One thread everywhere, fixed before numpy is imported.
os.environ.pop("FRACWAVE_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
# Share of each command's time spent on the calibration loop after it.
CALIBRATION_SHARE = 0.05


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("dim2", "contour", "closed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_rounds(cli, argvs, seconds, calibrate):
    """Repeat whole rounds until `seconds` have passed.

    After every command the calibration loop runs for a twentieth of the
    command's time.  Returns (round wall times, per-round calibration
    seconds per rep, attempted, failed, outputs of the first round, number
    of rounds whose output differed from the first).
    """
    round_times, round_rep_s = [], []
    attempted = failed = 0
    first = None
    mismatched = 0
    deadline = time.perf_counter() + seconds
    while True:
        outputs = []
        busy = cal_time = 0.0
        cal_reps = 0
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception:  # a fault of the program: count it and go on
                code = "exception"
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
            busy += elapsed
            reps, spent = calibrate(CALIBRATION_SHARE * elapsed)
            cal_reps += reps
            cal_time += spent
            attempted += 1
            if code != 0:
                failed += 1
                print(f"exit {code}: fracwave {' '.join(argv)}: {err.getvalue().strip()}",
                      file=sys.stderr)
            outputs.append(out.getvalue())
        round_times.append(busy)
        round_rep_s.append(cal_time / cal_reps)
        if first is None:
            first = outputs
        elif outputs != first:
            mismatched += 1
        if time.perf_counter() >= deadline:
            return round_times, round_rep_s, attempted, failed, first, mismatched


def _check(workload, outputs, mismatched):
    errors = []
    if mismatched:
        errors.append(f"{mismatched} round(s) printed other output than the first")
    for command, text in zip(workload.commands, outputs):
        try:
            errors += command.check(text)
        except ValueError as exc:  # unparsable output
            errors.append(f"fracwave {' '.join(command.argv)}: {exc}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return not errors


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(tracer, workload, rounds, outputs, round_times):
    """Per-layer figures per round, and the wrap targets found absent."""
    summ = tracer.summary()
    per_name, counts, layer_self = summ["per_name"], summ["counts"], summ["layer_self_s"]

    def per_round(x):
        x /= rounds
        return int(x) if float(x).is_integer() else x

    def calls(qual):
        return _metric(per_round(per_name.get(qual, {}).get("calls", 0)), "count")

    def count(key):
        return _metric(per_round(counts.get(key, 0)), "count")

    def seconds(x):
        return _metric(x / rounds, "s")

    def self_s(qual):
        return seconds(per_name.get(qual, {}).get("self_s", 0.0))

    def pct_ms(qual, q):
        d = list(per_name.get(qual, {}).get("durations", []))
        if len(d) < 2:
            return _metric(1e3 * float(d[0]) if d else 0.0, "ms")
        return _metric(1e3 * statistics.quantiles(d, n=100, method="inclusive")[q - 1], "ms")

    rows = sum(max(len(text.splitlines()) - 1, 0) for command, text in
               zip(workload.commands, outputs) if command.argv[0] != "crosscheck")
    m = {
        "special.ml_neg.calls": calls("special.ml_neg"),
        "special.ml_neg.calls_series": count("special.ml_neg.calls_series"),
        "special.ml_neg.calls_intermediate": count("special.ml_neg.calls_intermediate"),
        "special.ml_neg.calls_asymptotic": count("special.ml_neg.calls_asymptotic"),
        "special.ml_neg.values": count("special.ml_neg.values"),
        "special.ml_neg.self_s": self_s("special.ml_neg"),
        "special.ml_neg.intermediate_s": seconds(counts.get("special.ml_neg.intermediate_s", 0.0)),
        "quadrature.g_integral.calls": calls("quadrature.g_integral"),
        "quadrature.g_integral.lobes": count("quadrature.g_integral.lobes"),
        "quadrature.g_integral.p50_ms": pct_ms("quadrature.g_integral", 50),
        "quadrature.g_integral.self_s": self_s("quadrature.g_integral"),
        "mellin_barnes.g_mellin_barnes.calls": calls("mellin_barnes.g_mellin_barnes"),
        "mellin_barnes.g_mellin_barnes.p50_ms": pct_ms("mellin_barnes.g_mellin_barnes", 50),
        "mellin_barnes.g_mellin_barnes.p90_ms": pct_ms("mellin_barnes.g_mellin_barnes", 90),
        "mellin_barnes.g_mellin_barnes.self_s": self_s("mellin_barnes.g_mellin_barnes"),
        "mellin_barnes.loggamma_points": count("mellin_barnes._loggamma.points"),
        "closed_form.g1.calls": calls("closed_form.g1"),
        "closed_form.g3.calls": calls("closed_form.g3"),
        "closed_form.points": count("closed_form.points"),
        "closed_form.self_s": seconds(layer_self.get("closed_form", 0.0)),
        "analysis.self_s": seconds(layer_self.get("analysis", 0.0)),
        "quadrature.solve_ivp_1d.self_s": self_s("quadrature.solve_ivp_1d"),
        "cli.commands": calls("cli.main"),
        "cli.rows_written": _metric(rows, "count"),
        "cli.self_s": seconds(layer_self.get("cli", 0.0)),
        "trace.rounds": _metric(rounds, "count"),
        "trace.round_s": _metric(statistics.median(round_times), "s"),
    }
    return m, summ["absent"]


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "fracwave" / "cli.py").is_file():
        print(f"fracwave sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from fracwave import cli

    setup_s = _process_age()

    import calibration
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in workload.files.items():
        (OUT_DIR / name).write_text(text, encoding="utf-8")
    argvs = [[str(OUT_DIR / a) if a in workload.files else a for a in c.argv]
             for c in workload.commands]

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        round_times, round_rep_s, attempted, failed, outputs, mismatched = _run_rounds(
            cli, argvs, args.seconds,
            lambda budget: calibration.run(workload.calibration, budget))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = _check(workload, outputs, mismatched)
    rounds = len(round_times)
    factors = [calibration.host_factor(workload.calibration, r) for r in round_rep_s]
    host = statistics.median(factors)
    print("unscaled: " + json.dumps({
        "setup_s": setup_s, "round_s": statistics.median(round_times), "host_factor": host,
        "round_times": round_times, "factors": factors}), file=sys.stderr)
    if tracer is None:
        scaled = [t / f for t, f in zip(round_times, factors)]
        metrics = {
            "setup_s": _metric(setup_s / host, "s"),
            "points_per_s": _metric(workload.points_per_round * rounds / sum(scaled),
                                    "points/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    else:
        metrics, absent = _layer_metrics(tracer, workload, rounds, outputs, round_times)
        if absent:
            print(f"trace: absent wrap targets: {', '.join(absent)}", file=sys.stderr)
        tracer.write(OUT_DIR / f"trace_{args.workload}.csv", t0)
    print(f"{args.workload}: {rounds} rounds of {len(argvs)} commands, "
          f"{workload.points_per_round} points per round", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
