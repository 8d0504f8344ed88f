"""Fundamental solution of the multi-dimensional fractional wave equation.

Three independent evaluation routes for G_{alpha,n}(r, t), 1 <= alpha < 2,
n in {1, 2, 3}:

* closed elementary-function forms for n = 1 and n = 3 (``g1``, ``g3``);
* oscillatory radial Bessel quadrature for any n (``g_integral``), the only
  route for n = 2;
* numerical Mellin-Barnes contour integration (``g_mellin_barnes``).

Plus the Fourier-space propagator (``g_hat``), the Mittag-Leffler evaluator
(``ml_neg``), and derived wave quantities (extrema, phase and gravity-center
velocities, moments).
"""

from .analysis import (
    ExtremumReport,
    gravity_center_velocity,
    max_location,
    moment_1d,
    moment_3d,
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
from .mellin_barnes import ContourConfig, g_mellin_barnes, l_aux, mb_kernel
from .quadrature import (
    QuadratureConfig,
    QuadResult,
    g_integral,
    g_origin,
    solve_ivp_1d,
)
from .special import MLResult, bessel_kernel, log_gamma_complex, ml_neg

__version__ = "0.1.0"

__all__ = [
    "ContourConfig", "ContourFailure", "ExtremumReport", "FracWaveError",
    "InvalidContour", "InvalidGrid", "InvalidOrder", "MLResult",
    "MomentOutOfRange", "NonConvergence", "OriginDivergence", "PoleError",
    "QuadResult", "QuadratureConfig", "UnsupportedDimension",
    "UnsupportedOrder", "bessel_kernel", "g1", "g1_dr", "g1_dt", "g3",
    "g3_via_g1_spatial", "g3_via_g1_temporal", "g_hat", "g_integral",
    "g_mellin_barnes", "g_origin", "gravity_center_velocity", "l_aux",
    "log_gamma_complex", "max_location", "mb_kernel", "ml_neg", "moment_1d",
    "moment_3d", "moment_numeric", "phase_velocity", "sign_profile_3d",
    "solve_ivp_1d", "velocity_curve", "zero_crossing_z",
]
