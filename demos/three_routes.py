"""Evaluate the fundamental solution by all four routes.

G_{alpha,n}(r, t) can be computed from

  1. the closed elementary-function formulas (n = 1 and n = 3),
  2. the spectral route: the radial integral in closed form against the
     branch cut of E_alpha, one non-oscillatory integral (any n),
  3. the oscillatory radial Bessel integral (any n),
  4. numerical Mellin-Barnes contour integration (any n).

For n = 2 there is no closed form, and routes 2, 3 and 4 check each other.

Agreement of unrelated algorithms to ~1e-10 is the strongest correctness
check this library offers; this script shows it at a few points.
"""

import numpy as np

from fracwave import g1, g3, g_integral, g_mellin_barnes, g_spectral

print(f"{'alpha':>6} {'n':>2} {'r':>5} {'t':>4} | {'closed':>20} "
      f"{'spectral':>20} {'integral':>20} {'mellin-barnes':>20} | {'spread':>9}")
for alpha in (1.1, 1.5, 1.9):
    for n in (1, 2, 3):
        for r, t in [(0.5, 1.0), (1.0, 1.0), (2.0, 0.7)]:
            routes = {}
            if n == 1:
                routes["closed"] = g1(alpha, r, t)
            elif n == 3:
                routes["closed"] = g3(alpha, r, t)
            routes["spectral"] = g_spectral(alpha, n, r, t).value
            routes["integral"] = g_integral(alpha, n, r, t).value
            routes["mellin"] = g_mellin_barnes(alpha, n, r, t).value
            vals = list(routes.values())
            spread = max(vals) - min(vals)
            closed_str = f"{routes['closed']:20.15f}" if "closed" in routes else " " * 20
            print(f"{alpha:6.2f} {n:2d} {r:5.2f} {t:4.1f} | {closed_str} "
                  f"{routes['spectral']:20.15f} {routes['integral']:20.15f} "
                  f"{routes['mellin']:20.15f} | {spread:9.2e}")

print()
print("Note the n = 2 rows: no closed form exists there, and the three numerical")
print("routes still agree to ~1e-10 -- including the NEGATIVE values at small r,")
print("which is why the 2D solution is not a probability density.")
