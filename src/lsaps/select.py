"""Automated smoothness-parameter selection by leave-one-out CV.

For every candidate on a grid, the smoothed output, the hat-matrix
diagonal, and the closed-form leave-one-out residuals
r_i = (y_i - x_i) / (1 - H_ii) are computed. Both methods use one loss,
sqrt(r^T A^{-1} r / N), with A the method's weights raised to a tiny
floor. PS's unit weights give the standard loss sqrt(r^T r / N); with
the LSA-PS curvature weights the modified loss discounts residuals at
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
from .smoothers import from_unit, penalized_weights, to_unit

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
    toward the larger parameter. Every fit, and so every residual and
    loss, is taken on y scaled to unit size by ``to_unit``, so none
    overflows or underflows, and scaled back exactly: the smoothed output
    and the PS loss are in units of y, the LSA-PS loss has none, and the
    LSA-PS effective lambda is in units of y squared. A PS loss or a
    lambda beyond float64 becomes inf.

    Past lambda of about 1e9 the losses of neighbouring candidates can
    differ by less than the error of the leverages, which
    ``linalg.hat_diagonal`` takes from the factor of the rounded bands,
    unrefined, so the flat tail of the curve is ordered by rounding. On a
    ramp with lambda = lambda_bar * 2.1e-5, the LSA-PS losses at
    lambda_bar = 1e13 and 1e14 are 6.7e-6 and 3.6e-5 above the exact
    ones, which agree to eight digits.

    Raises
    ------
    InvalidConfigError
        If the grid is empty or holds a negative or non-finite candidate,
        or one whose lambda overflows the system's band.
    SelectionFailedError
        If every candidate on the grid fails.
    ResultOverflowError
        If the selected smoothed signal exceeds float64.
    ValueError
        If ``y`` is not 1-d or not finite.
    """
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise InvalidConfigError("candidate grid must be non-empty")
    bad = [g for g in grid if not math.isfinite(g)]
    if bad:
        raise InvalidConfigError(f"candidates must be finite, got {bad[0]}")
    if any(g < 0 for g in grid):
        raise InvalidConfigError("candidates must be >= 0")

    y_unit, e = to_unit(y)
    a, scale = penalized_weights(y_unit, method, clip)
    loss_weights = floor_weights(a)
    rhs = a * y_unit
    assemble = linalg.assembler(a)

    # The argmin is tracked as the loop runs, with ties broken toward the
    # larger parameter, independent of grid ordering; only its x is kept.
    losses = np.empty(len(grid))
    best_index = best_key = best_x = None
    for j, cand in enumerate(grid):
        try:
            system = assemble(cand * scale)
            x = linalg.solve(system, rhs)
            r = loo_residuals(y_unit, x, linalg.hat_diagonal(system))
        except (LeverageSaturationError, SingularSystemError):
            losses[j] = math.inf
            x = None
        else:
            losses[j] = cv_loss_lsa(r, loss_weights)
        key = (losses[j], -cand)
        if best_key is None or key < best_key:
            best_index, best_key, best_x = j, key, x

    if not np.any(np.isfinite(losses)):
        raise SelectionFailedError("every candidate saturated or failed")

    best = grid[best_index]
    effective_lambda = best * scale
    with np.errstate(over="ignore", under="ignore"):
        if method == "ps":
            losses = np.ldexp(losses, e)
        else:
            effective_lambda = float(np.ldexp(effective_lambda, 2 * e))
    return SelectionResult(
        curve=CvCurve(grid=grid, losses=losses, best_index=best_index),
        best_parameter=best,
        smoothed=from_unit(best_x, e),
        effective_lambda=effective_lambda,
    )
