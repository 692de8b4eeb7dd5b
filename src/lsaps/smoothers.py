"""The smoothing algorithms: penalized (PS), locally self-adjustive
penalized (LSA-PS), and the Savitzky-Golay and Gaussian-convolution
baselines.

Both penalized smoothers are one formula, x = (A + lam * D^T D)^{-1} A y
with a diagonal weight matrix A and lam = parameter * scale. PS is the
case A = I, scale = 1. LSA-PS builds A from local curvature, optionally
clips it at its median, and takes scale = median(A) with the pre-clip
median. ``penalized_weights`` turns a method into (A, scale), taken on
y scaled by a power of two to unit size, and ``penalized_fit`` solves
for x; the smoothers and the CV selection in ``select`` share both.

The Savitzky-Golay baseline is a local least-squares polynomial fit,
built per call as an orthogonal projection from the QR factor of a
small Chebyshev basis, with numpy alone.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import DegenerateSignalError, InvalidConfigError, InvalidSizeError
from .localfit import clip_weights, local_quadratic_curvature


@dataclass(frozen=True)
class Spectrum:
    """An ordered abscissa grid with one intensity value per point."""

    abscissa: np.ndarray = field(repr=False)
    intensity: np.ndarray = field(repr=False)

    def __post_init__(self):
        abscissa = np.asarray(self.abscissa, dtype=float)
        intensity = np.asarray(self.intensity, dtype=float)
        object.__setattr__(self, "abscissa", abscissa)
        object.__setattr__(self, "intensity", intensity)
        if abscissa.shape != intensity.shape or abscissa.ndim != 1:
            raise ValueError("abscissa and intensity must be equal-length 1-d arrays")
        if not (np.isfinite(abscissa).all() and np.isfinite(intensity).all()):
            raise ValueError("spectrum values must be finite")
        if abscissa.size > 1 and np.any(np.diff(abscissa) <= 0):
            raise ValueError("abscissa must be strictly increasing")

    @property
    def n(self) -> int:
        return self.abscissa.shape[0]


# Method names of the CLI and the benchmark; CV supports the penalized ones.
PENALIZED = ("ps", "lsa-ps")
METHODS = PENALIZED + ("sg", "gaussian")


def penalized_weights(y, method: str, clip: bool = True):
    """Weight diagonal A and penalty scale of a penalized method.

    Returns (A, scale, weights, e) with lam = parameter * scale, where e
    is the exponent of max|y| = m * 2**e with m in [0.5, 1). PS gives
    (ones, 1, None, e), LSA-PS its optionally clipped curvature weights
    and their pre-clip median, taken on y * 2**-e: the weights square y,
    so on y itself they would overflow beyond about 1e154 and underflow
    below about 1e-154. The fit is the same for A and lam both scaled by
    4**-e, and scaling by a power of two is exact, so in range the fit
    does not change.

    Raises
    ------
    DegenerateSignalError
        For LSA-PS when the median curvature weight is zero, so the
        penalty scale collapses (an affine signal, one straight on at least
        half of its points, or curvature that underflows).
    ValueError
        For an unknown method, or a ``y`` that is not 1-d and finite.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-d, got shape {y.shape}")
    e = int(np.frexp(np.max(np.abs(y), initial=0.0))[1])
    if method == "ps":
        return np.ones(y.shape[0]), 1.0, None, e
    if method == "lsa-ps":
        # Bound to a name, so the scaled copy lives until return: freed
        # before clip_weights, it raised the peak RSS of an n = 1e5 smooth
        # by about 1 MB through the order in which glibc reuses blocks.
        y = np.ldexp(y, -e)
        raw = local_quadratic_curvature(y)
        if raw.median == 0:
            raise DegenerateSignalError(
                "median curvature weight is zero, so the LSA-PS penalty scale collapses"
            )
        weights = clip_weights(raw) if clip else raw
        return weights.values, raw.median, weights, e
    raise ValueError(f"unknown method {method!r}")


def penalized_fit(y, a, lam: float):
    """Solve (diag(a) + lam * D^T D) x = a * y; return x and the system,
    whose factor the hat diagonal can reuse."""
    system = linalg.assemble_system(a, lam)
    return linalg.solve(system, a * y), system


def smooth_ps(y, lam: float):
    """Penalized smoother: (I + lam * D^T D)^{-1} y."""
    a, scale, _, _ = penalized_weights(y, "ps")
    return penalized_fit(y, a, lam * scale)[0]


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
    (numpy.ndarray, CurvatureWeights, float)
        The smoothed signal, the weights that entered the solve, and
        the effective penalty used, both in units of y squared. They
        overflow to inf for max|y| beyond about 1e154 and underflow
        below about 1e-154; the smoothed signal does neither.

    Raises
    ------
    InvalidConfigError
        If ``lambda_bar`` is negative or the effective penalty is not
        finite.
    ValueError
        If ``y`` is not 1-d or not finite.
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
    a, scale, weights, e = penalized_weights(y, "lsa-ps", clip)
    x = penalized_fit(y, a, lambda_bar * scale)[0]
    with np.errstate(over="ignore", under="ignore"):
        weights = replace(
            weights,
            values=np.ldexp(weights.values, 2 * e),
            median=float(np.ldexp(weights.median, 2 * e)),
        )
        lam = float(np.ldexp(lambda_bar * scale, 2 * e))
    return x, weights, lam


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
    the output is an exact copy.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-d, got shape {y.shape}")
    if window < 1 or window % 2 == 0:
        raise InvalidConfigError(f"window must be odd and >= 1, got {window}")
    if window > 1 and not 1 <= poly_order < window:
        raise InvalidConfigError(
            f"poly_order must satisfy 1 <= order < window, got order={poly_order}"
        )
    n = y.shape[0]
    if n < window:
        raise InvalidSizeError(f"signal length {n} < window {window}")
    if window == 1 or poly_order == window - 1:
        return y.copy()
    h = window // 2
    t = (np.arange(window) - h) / h
    q = np.linalg.qr(np.cos(np.arange(poly_order + 1) * np.arccos(t)[:, None]))[0]
    out = np.empty(n)
    out[h : n - h] = np.correlate(y, q @ q[h], "valid")
    out[:h] = q[:h] @ (q.T @ y[:window])
    out[n - h :] = q[h + 1 :] @ (q.T @ y[n - window :])
    return out


def smooth_gaussian(y, window: int):
    """Convolution with a truncated, renormalized Gaussian kernel.

    The kernel spans ``window`` points with standard deviation
    window / 5; near the edges the kernel is renormalized over the
    available support instead of padding.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-d, got shape {y.shape}")
    if window < 1:
        raise InvalidConfigError(f"window must be >= 1, got {window}")
    n = y.shape[0]
    if window == 1 or n == 1:
        return y.copy()
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
        out[lo:hi] += coeff * y[lo + off : hi + off]
        norm[lo:hi] += coeff
    return out / norm
