"""Automated smoothness-parameter selection by leave-one-out CV.

For every candidate on a grid, the smoothed output, the hat-matrix
diagonal, and the closed-form leave-one-out residuals
r_i = (y_i - x_i) / (1 - H_ii) are computed. Both methods use one loss,
sqrt(r^T A^{-1} r / N) with a diagonal A. PS passes its unit weights,
which gives the standard loss sqrt(r^T r / N); LSA-PS passes its
curvature weights, and the modified loss discounts residuals at
high-curvature points, which counters the chronic underestimation of
the smoothness.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    InvalidConfigError,
    LeverageSaturationError,
    SelectionFailedError,
    SingularSystemError,
)
from .localfit import floor_weights
from .smoothers import penalized_fit, penalized_weights

# Default candidate grid, shared by PS and LSA-PS thanks to the
# median-of-curvature penalty scaling.
DEFAULT_GRID = (0.001, 0.01, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0)

LEVERAGE_TOL = 1e-12


@dataclass(frozen=True)
class CvCurve:
    """CV loss over a candidate grid, with the argmin candidate."""

    grid: tuple
    losses: np.ndarray = field(repr=False)
    best_index: int


@dataclass(frozen=True)
class SelectionResult:
    curve: CvCurve
    best_parameter: float
    smoothed: np.ndarray = field(repr=False)
    effective_lambda: float


def loo_residuals(y, smoothed, hat_diag):
    """Closed-form leave-one-out residuals of a linear smoother.

    Raises
    ------
    LeverageSaturationError
        If any leverage is within ``LEVERAGE_TOL`` of 1 (the smoother
        interpolates that point and cannot be cross-validated there).
    """
    y = np.asarray(y, dtype=float)
    smoothed = np.asarray(smoothed, dtype=float)
    hat_diag = np.asarray(hat_diag, dtype=float)
    if not (y.shape == smoothed.shape == hat_diag.shape):
        raise ValueError("y, smoothed, and hat_diag must have equal shapes")
    if np.any(hat_diag >= 1.0 - LEVERAGE_TOL):
        raise LeverageSaturationError("a leverage value saturated at 1")
    return (y - smoothed) / (1.0 - hat_diag)


def cv_loss_lsa(r, weights) -> float:
    """CV loss sqrt(r^T A^{-1} r / N) with diagonal A = weights; unit
    weights give the standard PS loss sqrt(r^T r / N)."""
    r = np.asarray(r, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("loss weights must be strictly positive; floor them first")
    return float(np.sqrt(np.mean(np.square(r) / w)))


def select_parameter(
    y,
    method: str = "lsa-ps",
    grid=DEFAULT_GRID,
    clip: bool = True,
) -> SelectionResult:
    """Pick the smoothness parameter minimizing the method's CV loss.

    Each candidate is fitted exactly as the method's smoother fits it.
    Candidates whose leverage saturates (or whose system is singular)
    get a loss of +inf and are excluded from the argmin; ties break
    toward the larger parameter. The loss is taken on residuals and
    weights scaled by the power of two of ``penalized_weights``, so it
    neither overflows nor underflows, and scaled back exactly: the PS
    loss is in units of y, the LSA-PS loss has none, and the LSA-PS
    effective lambda is in units of y squared.

    Raises
    ------
    InvalidConfigError
        If the grid is empty or holds a negative or non-finite candidate.
    SelectionFailedError
        If every candidate on the grid fails.
    """
    y = np.asarray(y, dtype=float)
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise InvalidConfigError("candidate grid must be non-empty")
    bad = [g for g in grid if not math.isfinite(g)]
    if bad:
        raise InvalidConfigError(f"candidates must be finite, got {bad[0]}")
    if any(g < 0 for g in grid):
        raise InvalidConfigError("candidates must be >= 0")

    a, scale, weights, e = penalized_weights(y, method, clip)
    loss_weights = a if weights is None else floor_weights(weights).values

    losses = np.empty(len(grid))
    outputs: list[np.ndarray | None] = []
    for j, cand in enumerate(grid):
        try:
            x, system = penalized_fit(y, a, cand * scale)
            r = loo_residuals(y, x, linalg.hat_diagonal(system))
        except (LeverageSaturationError, SingularSystemError):
            losses[j] = math.inf
            outputs.append(None)
            continue
        losses[j] = cv_loss_lsa(np.ldexp(r, -e), loss_weights)
        outputs.append(x)

    if not np.any(np.isfinite(losses)):
        raise SelectionFailedError("every candidate saturated or failed")

    # Argmin with ties broken toward the larger parameter, independent
    # of grid ordering.
    best_index = min(range(len(grid)), key=lambda j: (losses[j], -grid[j]))
    best = grid[best_index]
    effective_lambda = best * scale
    with np.errstate(over="ignore", under="ignore"):
        if weights is None:
            losses = np.ldexp(losses, e)
        else:
            effective_lambda = float(np.ldexp(effective_lambda, 2 * e))
    return SelectionResult(
        curve=CvCurve(grid=grid, losses=losses, best_index=best_index),
        best_parameter=best,
        smoothed=outputs[best_index],
        effective_lambda=effective_lambda,
    )
