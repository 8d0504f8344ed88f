"""Exception hierarchy and the input contract of the fracwave package.

Every public entry point checks its arguments with the checkers below before
any work, and its result once at exit.  For any input it either returns a
finite value (with an honest est_error, where it reports one) or raises one
of three FracWaveErrors:

* an argument outside its documented domain raises InvalidInput, which is
  also a ValueError: NaN, an infinite t or r, t <= 0 (t < 0 where t = 0 is
  documented as valid), r < 0 (r <= 0 on the routes that need r > 0), an
  order, moment order or contour abscissa outside its window,
  an unsupported dimension, a non-finite or non-uniform sample grid, an
  array or a list where one number is documented;
* a result that would not be finite, a mesh too large to build, a kernel
  pole or a contour that cannot reach its step tolerance raises
  NonConvergence;
* a solution evaluated at the origin where it is unbounded (n >= 2 and
  alpha > 1) raises OriginDivergence.

The message names the check that failed.  Documented limits stay valid
inputs: ml_neg(alpha, inf) = 0 for alpha < 2 and g_hat = 1 at t = 0.
"""

from __future__ import annotations

import math

import numpy as np


class FracWaveError(Exception):
    """Base class for all fracwave errors."""


class InvalidInput(FracWaveError, ValueError):
    """Argument outside its documented domain: NaN, infinite or out of range."""


class NonConvergence(FracWaveError):
    """A numerical scheme failed to reach its tolerance or target."""


class OriginDivergence(FracWaveError):
    """Fundamental solution unbounded at the spatial origin: n >= 2, alpha > 1."""


def check_scalar(**args) -> None:
    """Raise InvalidInput unless every argument, given by name, is one number."""
    for name, x in args.items():
        if not isinstance(x, (int, float)) and np.ndim(x) != 0:
            raise InvalidInput(f"{name} must be one number, got {x!r}")


def check_window(x, lo: float, hi: float, *, lo_open: bool = False, hi_open: bool = True,
                 what: str = "order") -> None:
    """Raise InvalidInput unless x is one number and lo <= x < hi; lo_open and
    hi_open make an end strict or inclusive.  NaN lies in no window."""
    check_scalar(**{what: x})
    if not ((lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi)):
        raise InvalidInput(f"{what} must lie in {'(' if lo_open else '['}{lo}, {hi}"
                           f"{')' if hi_open else ']'}, got {x}")


def check_dimension(n, dims: tuple = (1, 2, 3)) -> None:
    """Raise InvalidInput unless n is one of dims."""
    if n not in dims:
        raise InvalidInput(f"dimension must be one of {dims}, got {n}")


def check_positive(name: str, x, *, zero_ok: bool = False) -> None:
    """Raise InvalidInput unless x, a float or an array, is finite and > 0
    (>= 0 with zero_ok) everywhere."""
    if isinstance(x, (list, tuple)):
        x = np.asarray(x, dtype=float)
    ok = (x >= 0.0 if zero_ok else x > 0.0) & (x < math.inf)
    if not (ok if ok.__class__ is bool else np.all(ok)):
        raise InvalidInput(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got "
                           f"{x if np.ndim(x) == 0 else np.asarray(x)[~np.asarray(ok)][0]}")


def check_finite(what: str, *values, exc: type = NonConvergence) -> None:
    """Raise exc unless every value (float, complex or array) is finite."""
    for v in values:
        if not (-math.inf < v < math.inf if isinstance(v, float) else np.all(np.isfinite(v))):
            raise exc(f"{what} is not finite" + (f": {v}" if np.ndim(v) == 0 else ""))
