"""Outside-in span tracing of fracwave's layers.

The tracer replaces module-level references to fracwave's public functions
with wrappers; nothing inside ``src/`` changes.  A reference is every
attribute of a loaded ``fracwave`` module that *is* the target function, so
``quadrature.ml_neg`` and ``closed_form.ml_neg`` are wrapped together with
``special.ml_neg``.  Each wrapped call becomes a span (name, start, end,
parent) held in flat in-memory arrays and written out once, when the run
ends.  A target that does not exist, because a later change renamed or
removed it, is recorded as absent and contributes zero.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute) pairs traced as spans.  The first part of the name is
# the layer that self time is charged to.
SPAN_TARGETS = (
    ("cli", "main"),
    ("cli", "cmd_eval"),
    ("cli", "cmd_profile"),
    ("cli", "cmd_velocity"),
    ("cli", "cmd_crosscheck"),
    ("cli", "cmd_moments"),
    ("cli", "cmd_solve1d"),
    ("special", "ml_neg"),
    ("quadrature", "g_integral"),
    ("quadrature", "solve_ivp_1d"),
    ("mellin_barnes", "g_mellin_barnes"),
    ("closed_form", "g1"),
    ("closed_form", "g3"),
    ("analysis", "zero_crossing_z"),
    ("analysis", "max_location"),
    ("analysis", "phase_velocity"),
    ("analysis", "velocity_curve"),
    ("analysis", "gravity_center_velocity"),
    ("analysis", "moment_1d"),
    ("analysis", "moment_3d"),
    ("analysis", "moment_numeric"),
    ("analysis", "sign_profile_3d"),
)

# (module, attribute) pairs only counted, by the number of points passed in:
# log-Gamma is called a handful of times per contour evaluation on whole
# arrays, so a span would measure nothing useful.
COUNT_TARGETS = (
    ("mellin_barnes", "_loggamma"),
)

def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    """Span recorder plus per-target counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fracwave" or name.startswith("fracwave."))]
        for mod_name, attr in SPAN_TARGETS:
            self._patch(mod_name, attr, modules, self._span_wrapper)
        for mod_name, attr in COUNT_TARGETS:
            self._patch(mod_name, attr, None, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, mod_name, attr, modules, make_wrapper) -> None:
        qual = f"{mod_name}.{attr}"
        home = sys.modules.get(f"fracwave.{mod_name}")
        original = getattr(home, attr, None) if home is not None else None
        if original is None:
            self.absent.append(qual)
            return
        wrapper = make_wrapper(qual, original)
        for mod in (modules if modules is not None else [home]):
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def _span_wrapper(self, qual, fn):
        name_id = len(self.names)
        self.names.append(qual)
        on_result = {"special.ml_neg": self._on_ml_neg,
                     "quadrature.g_integral": self._on_g_integral,
                     "closed_form.g1": self._on_closed_form,
                     "closed_form.g3": self._on_closed_form}.get(qual)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result, idx)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, qual, fn):
        key = f"{qual}.points"
        counts = self.counts

        def wrapper(x, *args, **kwargs):
            counts[key] += _size(x)
            return fn(x, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-target counters ------------------------------------------------

    def _on_ml_neg(self, args, result, idx) -> None:
        self.counts["special.ml_neg.values"] += _size(args[1]) if len(args) > 1 else 1
        regime = getattr(result, "regime", None)
        regimes = [regime] if isinstance(regime, str) else list(np.ravel(regime))
        for reg in regimes:
            self.counts[f"special.ml_neg.calls_{reg}"] += 1
        if regimes == ["intermediate"]:
            self.counts["special.ml_neg.intermediate_s"] += self.end[idx] - self.start[idx]

    def _on_g_integral(self, args, result, idx) -> None:
        self.counts["quadrature.g_integral.lobes"] += int(getattr(result, "lobes_used", 0))

    def _on_closed_form(self, args, result, idx) -> None:
        self.counts["closed_form.points"] += _size(result)

    # -- analysis -----------------------------------------------------------

    def spans(self):
        """Spans as numpy arrays: (name ids, parents, starts, ends)."""
        return (np.array(self.name_of, dtype=np.int64),
                np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=float),
                np.array(self.end, dtype=float))

    def summary(self) -> dict:
        """Per-name call counts, durations and self times, plus per-layer
        self time (a layer is the first part of a span's name)."""
        names, parents, starts, ends = self.spans()
        dur = ends - starts
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        per_name = {}
        layer_self: Counter = Counter()
        for i, qual in enumerate(self.names):
            sel = names == i
            per_name[qual] = {"calls": int(sel.sum()), "durations": dur[sel],
                              "self_s": float(self_time[sel].sum())}
            layer_self[qual.split(".", 1)[0]] += per_name[qual]["self_s"]
        return {"per_name": per_name, "layer_self_s": dict(layer_self),
                "counts": dict(self.counts), "absent": list(self.absent)}

    def write(self, path, t0: float) -> None:
        """Write every span as CSV: id, name, start and end (seconds since
        t0), parent id (-1 at the top)."""
        names, parents, starts, ends = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i in range(len(starts)):
                fh.write(f"{i},{self.names[names[i]]},{starts[i] - t0:.9f},"
                         f"{ends[i] - t0:.9f},{parents[i]}\n")
