"""The smoothing algorithms: penalized (PS), locally self-adjustive
penalized (LSA-PS), and the Savitzky-Golay and Gaussian-convolution
baselines.

Both penalized smoothers are one formula, x = (A + lam * D^T D)^{-1} A y
with a diagonal weight matrix A and lam = parameter * scale. PS is the
case A = I, scale = 1. LSA-PS builds A from local curvature, optionally
clips it at its median, and takes scale = median(A) with the pre-clip
median. ``penalized_weights`` turns a method into (A, scale) and
``penalized_fit`` solves for x; the smoothers and the CV selection in
``select`` share both.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DegenerateSignalError, InvalidConfigError, InvalidSizeError
from .localfit import clip_weights, local_quadratic_curvature


@dataclass(frozen=True)
class Spectrum:
    """An ordered abscissa grid with one intensity value per point."""

    abscissa: np.ndarray = field(repr=False)
    intensity: np.ndarray = field(repr=False)
    units: str = ""

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

    Returns (A, scale, weights) with lam = parameter * scale: PS gives
    (ones, 1, None), LSA-PS its optionally clipped curvature weights
    and their pre-clip median.

    Raises
    ------
    DegenerateSignalError
        For LSA-PS on an affine signal (zero median curvature).
    ValueError
        For an unknown method, or a ``y`` that is not 1-d and finite.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-d, got shape {y.shape}")
    if method == "ps":
        return np.ones(y.shape[0]), 1.0, None
    if method == "lsa-ps":
        raw = local_quadratic_curvature(y)
        if raw.median == 0:
            raise DegenerateSignalError(
                "median curvature is zero (affine signal); effective penalty collapses"
            )
        weights = clip_weights(raw) if clip else raw
        return weights.values, raw.median, weights
    raise ValueError(f"unknown method {method!r}")


def penalized_fit(y, a, lam: float):
    """Solve (diag(a) + lam * D^T D) x = a * y; return x and the system,
    whose factor the hat diagonal can reuse."""
    system = linalg.assemble_system(a, lam)
    return linalg.solve(system, a * y), system


def smooth_ps(y, lam: float):
    """Penalized smoother: (I + lam * D^T D)^{-1} y."""
    a, scale, _ = penalized_weights(y, "ps")
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
        the effective penalty used.

    Raises
    ------
    InvalidConfigError
        If ``lambda_bar`` is negative or the effective penalty is not
        finite.
    ValueError
        If ``y`` is not 1-d or not finite.
    DegenerateSignalError
        If the signal is perfectly affine (median curvature zero), for
        any ``lambda_bar``; the penalty scale collapses and the caller
        must decide what to do.
    SingularSystemError
        If ``lambda_bar`` is zero and some curvature weight is zero.
    """
    if lambda_bar < 0:
        raise InvalidConfigError(f"lambda_bar must be >= 0, got {lambda_bar}")
    a, scale, weights = penalized_weights(y, "lsa-ps", clip)
    lam = lambda_bar * scale
    return penalized_fit(y, a, lam)[0], weights, lam


def smooth_savitzky_golay(y, window: int, poly_order: int):
    """Savitzky-Golay smoothing with polynomial-refit edge handling."""
    y = np.asarray(y, dtype=float)
    if window < 1 or window % 2 == 0:
        raise InvalidConfigError(f"window must be odd and >= 1, got {window}")
    if window > 1 and not 1 <= poly_order < window:
        raise InvalidConfigError(
            f"poly_order must satisfy 1 <= order < window, got order={poly_order}"
        )
    if y.shape[0] < window:
        raise InvalidSizeError(f"signal length {y.shape[0]} < window {window}")
    if window == 1:
        return y.copy()
    # Imported here so that PS and LSA-PS runs never load scipy.signal.
    from scipy.signal import savgol_filter

    return savgol_filter(y, window_length=window, polyorder=poly_order, mode="interp")


def smooth_gaussian(y, window: int):
    """Convolution with a truncated, renormalized Gaussian kernel.

    The kernel spans ``window`` points with standard deviation
    window / 5; near the edges the kernel is renormalized over the
    available support instead of padding.
    """
    y = np.asarray(y, dtype=float)
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
