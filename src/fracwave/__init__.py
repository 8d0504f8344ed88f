"""Fundamental solution of the multi-dimensional fractional wave equation.

Four evaluation routes for G_{alpha,n}(r, t), 1 <= alpha < 2,
n in {1, 2, 3}:

* closed elementary-function forms for n = 1 and n = 3 (``g1``, ``g3``);
* the spectral route for any n (``g_spectral``): the radial integral taken in
  closed form against the branch cut of E_alpha, one non-oscillatory integral
  for a whole array of points; the fast route for n = 2, which has no closed
  form;
* oscillatory radial Bessel quadrature for any n (``g_integral``), point by
  point;
* numerical Mellin-Barnes contour integration for any n (``g_mellin_barnes``);
  for n = 2 the last three check each other.

Plus the Fourier-space propagator (``g_hat``), the Mittag-Leffler evaluator
(``ml_neg``), and derived wave quantities (extrema, phase and gravity-center
velocities, moments).
"""

from .analysis import (
    ExtremumReport,
    gravity_center_velocity,
    max_location,
    moment,
    moment_numeric,
    phase_velocity,
    sign_profile_3d,
    velocity_curve,
    zero_crossing_z,
)
from .closed_form import (
    g1,
    g1_dr,
    g1_dt,
    g3,
    g3_via_g1_spatial,
    g3_via_g1_temporal,
    g_hat,
)
from .errors import FracWaveError, InvalidInput, NonConvergence, OriginDivergence
from .mellin_barnes import g_mellin_barnes, l_aux, mb_kernel
from .quadrature import QuadResult, g_integral, g_origin, g_spectral, solve_ivp_1d
from .special import MLResult, ml_neg

__version__ = "0.1.0"

__all__ = [
    "ExtremumReport", "FracWaveError", "InvalidInput", "MLResult", "NonConvergence",
    "OriginDivergence", "QuadResult", "g1", "g1_dr", "g1_dt", "g3", "g3_via_g1_spatial",
    "g3_via_g1_temporal", "g_hat", "g_integral", "g_mellin_barnes", "g_origin", "g_spectral",
    "gravity_center_velocity", "l_aux", "max_location", "mb_kernel", "ml_neg",
    "moment", "moment_numeric", "phase_velocity", "sign_profile_3d",
    "solve_ivp_1d", "velocity_curve", "zero_crossing_z",
]
