"""Exception types shared across the package."""


class LsapsError(Exception):
    """Base class for all package errors."""


class InvalidSizeError(LsapsError, ValueError):
    """Input of the wrong size or shape for the requested operation."""


class InvalidInputError(LsapsError, ValueError):
    """An input array holds a value the operation cannot take, such as a
    NaN or an inf."""


class InvalidConfigError(LsapsError, ValueError):
    """Smoother or run configuration violates its constraints."""


class SingularSystemError(LsapsError, ValueError):
    """The assembled normal-equations matrix is singular."""


class NotPositiveDefiniteError(SingularSystemError):
    """Banded Cholesky factorization hit a pivot that is not positive, or
    one below the conditioning limit ``linalg.PIVOT_RTOL`` sets."""


class DegenerateSignalError(LsapsError, ValueError):
    """The curvature weights are zero at the median (the LSA-PS penalty
    scale collapses) or everywhere: an affine signal, one straight on at least
    half of its points, or one whose squared curvature underflows."""


class ResultOverflowError(LsapsError, OverflowError):
    """A smoothed signal, scaled back from unit size, exceeds float64."""


class LeverageSaturationError(LsapsError, ValueError):
    """A leverage value reached 1; leave-one-out residuals are undefined."""


class SelectionFailedError(LsapsError, RuntimeError):
    """No candidate on the parameter grid produced a finite CV loss."""


class UndefinedMetricError(LsapsError, ValueError):
    """A quality metric is undefined for the given reference signal."""


class IngestError(LsapsError, ValueError):
    """An input spectrum file could not be parsed."""


class OutputError(LsapsError, OSError):
    """An output directory could not be made or written to."""
