"""Host-speed calibration for the timed phase.

The benchmark shares its host with other tenants, and the speed of a fixed
piece of Python drifts by 20-50 % from one ten-second window to the next
while steal time reads zero (README.md).  The runner therefore runs a fixed
loop after every CLI command and divides each round's time by how much
slower than its reference speed the loop ran in that round.

Contention slows interpreter-bound and array-bound code by different
amounts, so there are two loops, and each workload uses the one whose
slowdown tracked its own best across runs (README.md):

* ``scalar``: float arithmetic, math functions, 16-element numpy arrays and
  scalar ``gammaln``, the make-up of ``ml_neg``'s inner loops;
* ``array``: complex ``loggamma`` and ``exp`` over 2048 points.

Neither touches fracwave, so a change to the program cannot move them.
"""

import math
import time

import numpy as np
from scipy.special import gammaln, loggamma

_X = np.linspace(0.1, 2.0, 16)
_Z = 0.5 + 1j * np.linspace(0.0, 60.0, 2048)


def _scalar_rep() -> float:
    x = 0.0
    a = _X
    for i in range(256):
        x += math.exp(-1e-3 * i) * math.sqrt(math.log1p(i))
        a = np.exp(-0.5 * a) + 0.1
        x += float(np.dot(a, a)) + float(gammaln(1.0 + 0.01 * i))
    return x


def _array_rep() -> float:
    v = loggamma(_Z / 1.6) + loggamma(1.0 - _Z / 1.6) - loggamma(0.5 * _Z)
    return float(np.exp(v).real.sum())


LOOPS = {"scalar": _scalar_rep, "array": _array_rep}

# Seconds one rep takes on a quiet host of the reference machine (the 5th
# percentile of reps timed there); they only fix the scale of the figures.
REFERENCE_REP_S = {"scalar": 0.62e-3, "array": 0.55e-3}


def run(loop: str, budget: float) -> tuple[int, float]:
    """Run reps of one loop until `budget` seconds have passed (at least
    two).  Returns (reps, seconds spent)."""
    rep = LOOPS[loop]
    reps = 0
    start = time.perf_counter()
    while True:
        rep()
        reps += 1
        spent = time.perf_counter() - start
        if reps >= 2 and spent >= budget:
            return reps, spent


def host_factor(loop: str, rep_s: float) -> float:
    """How much slower than the reference the host ran: measured seconds
    per rep of `loop` over its REFERENCE_REP_S."""
    return rep_s / REFERENCE_REP_S[loop]
