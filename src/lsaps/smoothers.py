"""The smoothing algorithms: penalized (PS), locally self-adjustive
penalized (LSA-PS), and the Savitzky-Golay and Gaussian-convolution
baselines.

PS solves (I + lam * D^T D) x = y. LSA-PS replaces the identity with a
diagonal weight matrix A built from local curvature, scales the penalty
as lam = lambda_bar * median(A), optionally clips A at its median, and
solves (A + lam * D^T D) x = A y.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DegenerateSignalError, InvalidConfigError, InvalidSizeError
from .localfit import CurvatureWeights, clip_weights, local_quadratic_curvature


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


def smooth_ps(y, lam: float):
    """Penalized smoother: (I + lam * D^T D)^{-1} y."""
    y = np.asarray(y, dtype=float)
    system = linalg.assemble_system(np.ones(y.shape[0]), lam)
    return linalg.solve(system, y)


def smooth_lsa_ps(y, lambda_bar: float, clip: bool = True):
    """Locally self-adjustive penalized smoother.

    Parameters
    ----------
    y : array-like
        Noisy signal, length >= 5.
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
    DegenerateSignalError
        If the signal is perfectly affine (median curvature zero) while
        ``lambda_bar > 0``; the penalty scale collapses and the caller
        must decide what to do.
    """
    y = np.asarray(y, dtype=float)
    if lambda_bar < 0:
        raise ValueError(f"lambda_bar must be >= 0, got {lambda_bar}")
    weights = local_quadratic_curvature(y)
    if weights.median == 0 and lambda_bar > 0:
        raise DegenerateSignalError(
            "median curvature is zero (affine signal); effective penalty collapses"
        )
    lam = lambda_bar * weights.median
    if clip:
        weights = clip_weights(weights)
    system = linalg.assemble_system(weights.values, lam)
    x = linalg.solve(system, weights.values * y)
    return x, weights, lam


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
