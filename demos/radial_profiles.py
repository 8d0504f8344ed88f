"""Radial and time profiles of the fundamental solution (figure-class data).

Writes the CSV payloads behind the classic displays:

  profiles_g1.csv  -- G_{1.5,1}(x, t) for several t (mirrored to negative x),
  profile_g2.csv   -- G_{1.5,2}(r, 1): sign-changing, multiple extrema,
  profiles_g3.csv  -- G_{1.5,3}(r, t) for t = 0.2, 0.3, 0.4: a damped wave,
  time_profiles_g3.csv -- G_{1.5,3}(r, .) at r = 0.3, 0.5, 0.7.

The same data is available from the command line, e.g.

  fracwave profile --alpha 1.5 --dim 3 --t 0.3 --rmin 0.05 --rmax 2 \
      --points 400 --out profile.csv
"""

import csv

import numpy as np

from fracwave import g1, g3, g_spectral

ALPHA = 1.5


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(np.asarray(rows).tolist())
    print(f"wrote {path}")


# 1D: bell-shaped density, maximum moving right with constant velocity
xs = np.linspace(-3.0, 3.0, 601)
rows = np.column_stack([xs] + [g1(ALPHA, np.abs(xs), t) for t in (0.5, 1.0, 1.5)])
write_csv("profiles_g1.csv", ["x", "t=0.5", "t=1.0", "t=1.5"], rows)

# 2D: no closed form; the spectral route (the CLI default for --dim 2) takes
# the whole radial grid in one call.  Negative dip below the wavefront
rs2 = np.linspace(0.05, 4.0, 160)
res = g_spectral(ALPHA, 2, rs2, 1.0)
write_csv("profile_g2.csv", ["r", "value", "est_error"],
          np.column_stack([rs2, res.value, res.est_error]))
print(f"  ({np.count_nonzero(res.value < 0)} of {rs2.size} sample points are negative)")

# 3D: sharpening pulse at r* = c(alpha) t
rs3 = np.linspace(0.02, 1.2, 400)
rows = np.column_stack([rs3] + [g3(ALPHA, rs3, t) for t in (0.2, 0.3, 0.4)])
write_csv("profiles_g3.csv", ["r", "t=0.2", "t=0.3", "t=0.4"], rows)

# 3D at fixed radii: damped oscillation in time
ts = np.linspace(0.05, 2.0, 400)
rows = np.column_stack([ts] + [g3(ALPHA, r, ts) for r in (0.3, 0.5, 0.7)])
write_csv("time_profiles_g3.csv", ["t", "r=0.3", "r=0.5", "r=0.7"], rows)
