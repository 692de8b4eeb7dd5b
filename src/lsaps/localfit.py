"""Per-point curvature weights from five-point local quadratic fits.

Each point gets the squared second derivative of the least-squares
parabola fitted to the five samples centered on it, on the local
coordinate (-2, -1, 0, 1, 2). The closed form for the quadratic
coefficient follows from the normal equations with sum(xi^2) = 10 and
sum(xi^4) = 34:

    a_i = (2 y[i-2] - y[i-1] - 2 y[i] - y[i+1] + 2 y[i+2]) / 14

and the weight is (2 a_i)^2. The first and last two points reuse the
curvature of the nearest full five-point window. Weights are plain
arrays; ``smoothers.penalized_weights`` clips them and takes their
median.
"""

import numpy as np

from .errors import DegenerateSignalError, InvalidSizeError, ResultOverflowError, checked

# Closed-form kernel for the quadratic coefficient; symmetric, so
# convolution and correlation coincide. The division by 14 happens after
# the convolution so that exactly representable affine inputs cancel to
# exactly zero.
_QUAD_KERNEL = np.array([2.0, -1.0, -2.0, -1.0, 2.0])

DEFAULT_FLOOR_RATIO = 1e-8


def local_quadratic_curvature(y) -> np.ndarray:
    """Compute curvature weights (2 a_i)^2 for every point of ``y``.

    Raises
    ------
    InvalidSizeError
        If ``y`` is not 1-d, naming its shape, or if fewer than five
        points are given.
    InvalidInputError
        A ``ValueError``, if ``y`` is not an array of real numbers or not
        finite; a NaN would spread through the weights into a wrong
        diagnosis downstream.
    ResultOverflowError
        If a weight exceeds float64, as for a curved y of about 1e154;
        ``smoothers.penalized_weights`` takes them of y at unit size.
    """
    y = checked("y", y)
    n = y.shape[0]
    if n < 5:
        raise InvalidSizeError(f"five-point regression needs n >= 5, got n={n}")
    w = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.convolve(y, _QUAD_KERNEL, mode="valid") / 14.0
        w[2 : n - 2] = np.square(2.0 * a)
    # y is finite, so a weight that is not comes from an overflow.
    if not np.isfinite(w[2 : n - 2].max()):
        raise ResultOverflowError("curvature weights exceed float64; scale y to unit size first")
    w[:2] = w[2]
    w[n - 2 :] = w[n - 3]
    return w


def floor_weights(weights: np.ndarray) -> np.ndarray:
    """Raise zero weights to a tiny floor so diag(A) is invertible.

    The floor is ``DEFAULT_FLOOR_RATIO`` times the median of the strictly
    positive values, so unit weights come back unchanged. Used only in
    the CV loss, never inside the smoothing solve itself.

    Raises
    ------
    InvalidSizeError, InvalidInputError
        If ``weights`` is not 1-d, or not an array of real numbers or
        not finite, respectively.
    DegenerateSignalError
        If every weight is zero (an affine input, or curvature that
        underflows).
    """
    weights = checked("weights", weights)
    positive = weights[weights > 0]
    if positive.size == 0:
        raise DegenerateSignalError(
            "all curvature weights are zero (affine signal, or curvature that underflows)"
        )
    floor = DEFAULT_FLOOR_RATIO * float(np.median(positive))
    return np.maximum(weights, floor)
