"""Per-point curvature weights from five-point local quadratic fits.

Each point gets the squared second derivative of the least-squares
parabola fitted to the five samples centered on it, on the local
coordinate (-2, -1, 0, 1, 2). The closed form for the quadratic
coefficient follows from the normal equations with sum(xi^2) = 10 and
sum(xi^4) = 34:

    a_i = (2 y[i-2] - y[i-1] - 2 y[i] - y[i+1] + 2 y[i+2]) / 14

and the weight is (2 a_i)^2. The first and last two points reuse the
curvature of the nearest full five-point window.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateSignalError, InvalidSizeError

# Closed-form kernel for the quadratic coefficient; symmetric, so
# convolution and correlation coincide. The division by 14 happens after
# the convolution so that exactly representable affine inputs cancel to
# exactly zero.
_QUAD_KERNEL = np.array([2.0, -1.0, -2.0, -1.0, 2.0])

DEFAULT_FLOOR_RATIO = 1e-8


@dataclass(frozen=True)
class CurvatureWeights:
    """Diagonal data-fidelity weights derived from local curvature.

    ``median`` always caches the median of the original (pre-clip)
    values; penalty scaling uses it even after clipping.
    """

    values: np.ndarray = field(repr=False)
    median: float


def local_quadratic_curvature(y) -> CurvatureWeights:
    """Compute curvature weights (2 a_i)^2 for every point of ``y``.

    Raises
    ------
    InvalidSizeError
        If fewer than five points are given.
    ValueError
        If ``y`` is not finite; a NaN would spread through the weights
        into a wrong diagnosis downstream.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 5:
        raise InvalidSizeError(f"five-point regression needs n >= 5, got n={n}")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"y must be finite, got {y[bad[0]]} at index {bad[0]}")
    a = np.convolve(y, _QUAD_KERNEL, mode="valid") / 14.0
    w = np.empty(n)
    w[2 : n - 2] = np.square(2.0 * a)
    w[:2] = w[2]
    w[n - 2 :] = w[n - 3]
    return CurvatureWeights(values=w, median=float(np.median(w)))


def clip_weights(weights: CurvatureWeights) -> CurvatureWeights:
    """Clip every value at the pre-clip median; idempotent."""
    return CurvatureWeights(
        values=np.minimum(weights.values, weights.median),
        median=weights.median,
    )


def floor_weights(weights: CurvatureWeights) -> CurvatureWeights:
    """Raise zero weights to a tiny floor so diag(A) is invertible.

    The floor is ``DEFAULT_FLOOR_RATIO`` times the median of the strictly
    positive values. Used only in the CV loss of LSA-PS, never inside
    the smoothing solve itself.

    Raises
    ------
    DegenerateSignalError
        If every weight is zero (an affine input, or curvature that
        underflows).
    """
    positive = weights.values[weights.values > 0]
    if positive.size == 0:
        raise DegenerateSignalError(
            "all curvature weights are zero (affine signal, or curvature that underflows)"
        )
    floor = DEFAULT_FLOOR_RATIO * float(np.median(positive))
    return replace(weights, values=np.maximum(weights.values, floor))
