"""Exception types shared across the package, the one input array check and
the checks of scalar parameters: an integer, a bool (clip), a real number,
a finite real number >= 0 (lam, lambda_bar, a CV candidate, a noise
sigma), an integer >= a bound (a seed, k peaks, a Gaussian window) and an
array length (a resolution, a plan's n)."""

import math
import operator
import sys

import numpy as np


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
    """A result exceeds float64: a smoothed signal scaled back from unit
    size, a solve, curvature weights, leave-one-out residuals or a CV loss."""


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


def checked(name: str, values, shape=None):
    """``values``, the input called ``name``, as a float array; an
    InvalidInputError unless it is an array of real numbers (of bool,
    integer or float dtype: not ragged, of strings, of objects or complex),
    an InvalidSizeError unless it is 1-d, or of ``shape``, a 1-d shape,
    where given, and an InvalidInputError naming its first entry that is
    not finite."""
    try:
        values = np.asarray(values)
    except ValueError:  # a ragged sequence
        raise InvalidInputError(f"{name} must be an array of real numbers, "
                                "got a ragged sequence") from None
    if values.dtype != float:
        if values.dtype.kind not in "biuf":
            raise InvalidInputError(f"{name} must be an array of real numbers, "
                                    f"got dtype {values.dtype}")
        values = values.astype(float)
    if shape is None and values.ndim != 1:
        raise InvalidSizeError(f"{name} must be 1-d, got shape {values.shape}")
    if shape is not None and values.shape != shape:
        raise InvalidSizeError(f"{name} must have shape {shape}, got {values.shape}")
    if not np.isfinite(values).all():
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        raise InvalidInputError(f"{name} must be finite, got {values[i]} at index {i}")
    return values


def shown(value, form=str) -> str:
    """``form(value)``, for an error message; but an int of more digits
    than Python converts to text (4300 by default) is given by its bit
    length, as ``real`` gives it, and a container of one by its type."""
    try:
        return form(value)
    except ValueError:
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to print"


def integer(name: str, value) -> int:
    """``value`` as an int, by ``operator.index``; an InvalidConfigError
    that names it where it is not an integer, such as 5.0, or is a bool."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidConfigError(f"{name} must be an integer, got {shown(value)}")


def boolean(name: str, value) -> bool:
    """``value`` as a bool; an InvalidConfigError that names it unless it
    is a bool, of Python or numpy."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidConfigError(f"{name} must be True or False, got {shown(value, repr)}")
    return bool(value)


def real(name: str, value):
    """``value`` itself; an InvalidConfigError that names it unless it is
    a real number: an int or a float, of Python or numpy, and not a bool,
    nor an int beyond float64. Whether it is finite, or in range, is for
    the caller to check."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidConfigError(f"{name} must be a real number, got {shown(value, repr)}")
    try:
        float(value)
    except OverflowError:  # an int, whose digits may be too many to print
        raise InvalidConfigError(f"{name} must be within float64's range, "
                                 f"got an integer of {value.bit_length()} bits") from None
    return value


def nonnegative(name: str, value):
    """``value`` itself; an InvalidConfigError that names it unless it is
    a real number (``real``) that is finite and >= 0."""
    if not math.isfinite(real(name, value)):
        raise InvalidConfigError(f"{name} must be finite, got {value}")
    if value < 0:
        raise InvalidConfigError(f"{name} must be >= 0, got {value}")
    return value


def at_least(low: int, name: str, value) -> int:
    """``value`` as an int; an InvalidConfigError that names it unless it
    is an integer (``integer``) >= low."""
    value = integer(name, value)
    if value < low:
        raise InvalidConfigError(f"{name} must be >= {low}, got {shown(value)}")
    return value


def length(low: int, name: str, value) -> int:
    """``value`` as an int; an InvalidConfigError that names it unless it
    is an integer (``integer``) from low to sys.maxsize, the most points
    an array holds."""
    value = at_least(low, name, value)
    if value > sys.maxsize:
        raise InvalidConfigError(f"{name} must be <= {sys.maxsize}, got {shown(value)}")
    return value
