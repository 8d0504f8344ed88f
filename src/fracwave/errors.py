"""Exception hierarchy for the fracwave package."""


class FracWaveError(Exception):
    """Base class for all fracwave errors."""


class InvalidOrder(FracWaveError):
    """Fractional order alpha outside the admissible window."""


class NonConvergence(FracWaveError):
    """A numerical scheme failed to reach the requested tolerance."""


class PoleError(FracWaveError):
    """Evaluation requested at a pole of the Gamma function."""


class UnsupportedOrder(FracWaveError):
    """Bessel kernel requested for an order outside {-1/2, 0, +1/2}."""


class OriginDivergence(FracWaveError):
    """Fundamental solution unbounded at the spatial origin for n >= 2."""


class InvalidGrid(FracWaveError):
    """Sampled input grid is unsorted or not uniform."""


class ContourFailure(FracWaveError):
    """Mellin-Barnes tail bound cannot be met at the configured truncation."""


class InvalidContour(FracWaveError):
    """Contour abscissa outside the pole-free strip."""


class MomentOutOfRange(FracWaveError):
    """Moment order outside the finite-existence window."""


class UnsupportedDimension(FracWaveError):
    """Operation undefined for the requested spatial dimension."""
