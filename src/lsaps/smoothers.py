"""The smoothing algorithms: penalized (PS), locally self-adjustive
penalized (LSA-PS), and the Savitzky-Golay and Gaussian-convolution
baselines.

Both penalized smoothers are one formula, x = (A + lam * D^T D)^{-1} A y
with a diagonal weight matrix A and lam = parameter * scale. PS is the
case A = I, scale = 1. LSA-PS builds A from local curvature, optionally
clips it at its median, and takes scale = median(A) with the pre-clip
median. ``penalized_weights`` turns a method into (A, scale); the
smoothers and the CV selection in ``select`` share it.

Every smoother, the CV selection and the peak detector take y through
``to_unit``, which checks that y is 1-d and finite and scales it by a
power of two to unit size, so squared curvature and sums of a few
entries neither overflow nor underflow. A smoothed signal goes back
through ``from_unit``, which raises ``ResultOverflowError`` where it
exceeds float64. ``smooth`` calls any smoother by its method name.

The Savitzky-Golay baseline is a local least-squares polynomial fit,
built per call as an orthogonal projection from the QR factor of a
small Chebyshev basis, with numpy alone.
"""

import math

import numpy as np

from . import linalg
from .errors import (DegenerateSignalError, InvalidConfigError, InvalidSizeError,
                     ResultOverflowError)
from .localfit import local_quadratic_curvature


# Method names of the CLI and the benchmark; CV supports the penalized ones.
PENALIZED = ("ps", "lsa-ps")
METHODS = PENALIZED + ("sg", "gaussian")


def to_unit(y):
    """(y * 2**-e, e) with max|y| = m * 2**e, m in [0.5, 1), or e = 0 for
    y = 0; the scaled array is a fresh copy. Raises ValueError for a y
    that is not 1-d or not finite.

    Sums and differences of a few entries of y * 2**-e, which is of unit
    size, cannot overflow. Scaling by a power of two is exact while
    values stay in the normal range, so there a result computed on
    y * 2**-e and scaled back by 2**e is the one computed on y.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-d, got shape {y.shape}")
    peak = float(np.abs(y).max(initial=0.0))
    if not math.isfinite(peak):  # max|y| is NaN or inf exactly when y is not finite
        i = int(np.flatnonzero(~np.isfinite(y))[0])
        raise ValueError(f"y must be finite, got {y[i]} at index {i}")
    e = math.frexp(peak)[1]
    return np.ldexp(y, -e), e


def from_unit(x, e: int):
    """Scale a smoothed signal x of unit size back by 2**e, in place;
    raise ResultOverflowError where it exceeds float64."""
    try:
        with np.errstate(over="raise"):
            return np.ldexp(x, e, out=x)
    except FloatingPointError:
        raise ResultOverflowError(f"smoothed signal exceeds float64 at scale 2**{e}") from None


def penalized_weights(y_unit, method: str, clip: bool = True):
    """Weight diagonal A and penalty scale of a penalized method.

    Returns (A, scale) with lam = parameter * scale, for y_unit from
    ``to_unit``. PS gives (ones, 1), LSA-PS the curvature weights of
    y_unit, clipped at their median if ``clip``, and that pre-clip median.

    Raises
    ------
    DegenerateSignalError
        For LSA-PS when the median curvature weight is zero, so the
        penalty scale collapses (an affine signal, one straight on at least
        half of its points, or curvature that underflows).
    ValueError
        For an unknown method.
    """
    if method == "ps":
        return np.ones(y_unit.shape[0]), 1.0
    if method == "lsa-ps":
        raw = local_quadratic_curvature(y_unit)
        median = float(np.median(raw))
        if median == 0:
            raise DegenerateSignalError(
                "median curvature weight is zero, so the LSA-PS penalty scale collapses"
            )
        return (np.minimum(raw, median) if clip else raw), median
    raise ValueError(f"unknown method {method!r}")


def smooth_ps(y, lam: float):
    """Penalized smoother: (I + lam * D^T D)^{-1} y."""
    y, e = to_unit(y)
    x = linalg.solve(linalg.assemble_system(np.ones(y.shape[0]), lam), y)
    return from_unit(x, e)


def smooth_lsa_ps(y, lambda_bar: float, clip: bool = True):
    """Locally self-adjustive penalized smoother.

    Parameters
    ----------
    y : array-like
        Noisy signal, length >= 5, all finite.
    lambda_bar : float
        Scaled global smoothness; the effective penalty is
        ``lambda_bar * median(weights)`` with the pre-clip median.
    clip : bool
        Clip the weights at their median to avoid over-smoothing near
        peak flanks.

    Returns
    -------
    (numpy.ndarray, float)
        The smoothed signal and the effective penalty used. The penalty
        is in units of y squared: it overflows to inf for max|y| beyond
        about 1e154 and underflows below about 1e-154. The smoothed
        signal is fitted at unit size and returned in units of y.

    Raises
    ------
    InvalidConfigError
        If ``lambda_bar`` is negative or the effective penalty is not
        finite.
    ValueError
        If ``y`` is not 1-d or not finite.
    ResultOverflowError
        If the smoothed signal exceeds float64.
    DegenerateSignalError
        If the median curvature weight is zero, for any ``lambda_bar``:
        the penalty scale collapses and the caller must decide what to
        do. Affine signals, signals straight on at least half of their
        points and signals whose squared curvature underflows do this.
    SingularSystemError
        If ``lambda_bar`` is zero and some curvature weight is zero.
    """
    if lambda_bar < 0:
        raise InvalidConfigError(f"lambda_bar must be >= 0, got {lambda_bar}")
    y, e = to_unit(y)
    a, scale = penalized_weights(y, "lsa-ps", clip)
    system = linalg.assemble_system(a, lambda_bar * scale)
    # The right-hand side a * y in place: a second n-array beside y
    # raises the peak RSS.
    y *= a
    x = linalg.solve(system, y)
    with np.errstate(over="ignore", under="ignore"):
        lam = float(np.ldexp(lambda_bar * scale, 2 * e))
    return from_unit(x, e), lam


def smooth_savitzky_golay(y, window: int, poly_order: int):
    """Savitzky-Golay smoothing: a least-squares polynomial fit of degree
    ``poly_order`` over each ``window``-point neighbourhood.

    Interior points take the centre value of the fit around them; the
    first and last ``window // 2`` points take the fit to the first or
    last ``window`` samples (scipy's ``mode="interp"``). The fit is the
    projection q q^T onto degree-``poly_order`` polynomials, with q the
    orthonormal QR factor of Chebyshev columns on the window scaled to
    [-1, 1] (Gorry 1990), so every order up to ``window - 1`` stays
    accurate. At ``poly_order == window - 1`` the fit interpolates and
    the output is an exact copy. The fit runs on y * 2**-e, of unit
    size, and is scaled back by 2**e, so data near the float64 limit
    does not overflow in it.
    """
    y_unit, e = to_unit(y)
    if window < 1 or window % 2 == 0:
        raise InvalidConfigError(f"window must be odd and >= 1, got {window}")
    if window > 1 and not 1 <= poly_order < window:
        raise InvalidConfigError(
            f"poly_order must satisfy 1 <= order < window, got order={poly_order}"
        )
    n = y_unit.shape[0]
    if n < window:
        raise InvalidSizeError(f"signal length {n} < window {window}")
    if window == 1 or poly_order == window - 1:
        return np.array(y, dtype=float)
    h = window // 2
    t = (np.arange(window) - h) / h
    q = np.linalg.qr(np.cos(np.arange(poly_order + 1) * np.arccos(t)[:, None]))[0]
    out = np.empty(n)
    out[h : n - h] = np.correlate(y_unit, q @ q[h], "valid")
    out[:h] = q[:h] @ (q.T @ y_unit[:window])
    out[n - h :] = q[h + 1 :] @ (q.T @ y_unit[n - window :])
    return from_unit(out, e)


def smooth_gaussian(y, window: int):
    """Convolution with a truncated, renormalized Gaussian kernel.

    The kernel spans ``window`` points with standard deviation
    window / 5; near the edges the kernel is renormalized over the
    available support instead of padding. It runs on y * 2**-e, like
    the other smoothers.
    """
    y_unit, e = to_unit(y)
    if window < 1:
        raise InvalidConfigError(f"window must be >= 1, got {window}")
    n = y_unit.shape[0]
    if window == 1 or n == 1:
        return np.array(y, dtype=float)
    sigma = window / 5.0
    positions = np.arange(window, dtype=float)
    center = (window - 1) / 2.0
    kernel = np.exp(-0.5 * ((positions - center) / sigma) ** 2)
    kernel /= kernel.sum()
    offsets = np.arange(window) - window // 2
    out = np.zeros(n)
    norm = np.zeros(n)
    for coeff, off in zip(kernel, offsets):
        lo = max(0, -off)
        hi = min(n, n - off)
        if lo >= hi:
            continue
        out[lo:hi] += coeff * y_unit[lo + off : hi + off]
        norm[lo:hi] += coeff
    out /= norm
    return from_unit(out, e)


def smooth(y, method: str, parameter, clip: bool = True):
    """Smooth ``y`` by method name; return (x, effective lambda).

    ``parameter`` is lam for ``ps``, lambda_bar for ``lsa-ps``, a
    (window, poly_order) pair for ``sg`` and a window for ``gaussian``;
    ``clip`` applies to ``lsa-ps`` alone. The lambda is None for ``sg``,
    ``gaussian`` and ``none``, the benchmark's identity control, which
    returns a copy of y. Raises ValueError for an unknown method, and
    for a y that is not 1-d and finite.
    """
    if method == "ps":
        return smooth_ps(y, parameter), parameter
    if method == "lsa-ps":
        return smooth_lsa_ps(y, parameter, clip)
    if method == "sg":
        return smooth_savitzky_golay(y, *parameter), None
    if method == "gaussian":
        return smooth_gaussian(y, parameter), None
    if method == "none":
        to_unit(y)  # the checks alone
        return np.array(y, dtype=float), None
    raise ValueError(f"unknown method {method!r}")
