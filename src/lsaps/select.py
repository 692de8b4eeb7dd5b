"""Automated smoothness-parameter selection by leave-one-out CV.

For every candidate on a grid, the smoothed output, the hat-matrix
diagonal, and the closed-form leave-one-out residuals
r_i = (y_i - x_i) / (1 - H_ii) are computed. PS uses the standard loss
sqrt(r^T r / N); LSA-PS uses the curvature-weighted modified loss
sqrt(r^T A^{-1} r / N), which discounts residuals at high-curvature
points and counters the chronic underestimation of the smoothness.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DegenerateSignalError,
    LeverageSaturationError,
    SelectionFailedError,
    SingularSystemError,
)
from .localfit import CurvatureWeights, clip_weights, floor_weights, local_quadratic_curvature

# Default candidate grid, shared by PS and LSA-PS thanks to the
# median-of-curvature penalty scaling.
DEFAULT_GRID = (0.001, 0.01, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0)

LEVERAGE_TOL = 1e-12

METHOD_PS = "ps"
METHOD_LSA_PS = "lsa-ps"


@dataclass(frozen=True)
class CvCurve:
    """CV loss over a candidate grid, with the argmin candidate.

    ``normalization`` is a plotting-only divisor (the Euclidean norm of
    the weight diagonal for LSA-PS); it never affects the argmin.
    """

    grid: tuple
    losses: np.ndarray = field(repr=False)
    best_index: int
    method: str
    normalization: float | None = None


@dataclass(frozen=True)
class SelectionResult:
    curve: CvCurve
    best_parameter: float
    smoothed: np.ndarray = field(repr=False)
    effective_lambda: float
    weights: CurvatureWeights | None = None


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


def cv_loss_ps(r) -> float:
    """Original CV loss sqrt(r^T r / N)."""
    r = np.asarray(r, dtype=float)
    return float(np.sqrt(np.mean(np.square(r))))


def cv_loss_lsa(r, weights) -> float:
    """Modified CV loss sqrt(r^T A^{-1} r / N) with diagonal A = weights."""
    r = np.asarray(r, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("loss weights must be strictly positive; floor them first")
    return float(np.sqrt(np.mean(np.square(r) / w)))


def _evaluate_candidate(y, weight_values, lam):
    """Smoothed output, hat diagonal, and LOO residuals for one candidate."""
    system = linalg.assemble_system(weight_values, lam)
    x = linalg.solve(system, weight_values * y)
    h = linalg.hat_diagonal(system)
    r = loo_residuals(y, x, h)
    return x, r


def select_parameter(
    y,
    method: str = METHOD_LSA_PS,
    grid=DEFAULT_GRID,
    clip: bool = True,
) -> SelectionResult:
    """Pick the smoothness parameter minimizing the method's CV loss.

    Candidates whose leverage saturates (or whose system is singular)
    get a loss of +inf and are excluded from the argmin; ties break
    toward the larger parameter.

    Raises
    ------
    SelectionFailedError
        If every candidate on the grid fails.
    """
    y = np.asarray(y, dtype=float)
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ValueError("candidate grid must be non-empty")
    if any(g < 0 for g in grid):
        raise ValueError("candidates must be >= 0")
    if method not in (METHOD_PS, METHOD_LSA_PS):
        raise ValueError(f"unknown method {method!r}")

    n = y.shape[0]
    if method == METHOD_LSA_PS:
        raw = local_quadratic_curvature(y)
        if raw.median == 0:
            raise DegenerateSignalError(
                "median curvature is zero; LSA-PS selection is ill-posed"
            )
        solve_weights = clip_weights(raw) if clip else raw
        loss_weights = floor_weights(solve_weights)
        normalization = float(np.linalg.norm(solve_weights.values))
        weight_values = solve_weights.values
        lam_of = lambda g: g * raw.median
    else:
        solve_weights = None
        normalization = None
        weight_values = np.ones(n)
        lam_of = lambda g: g

    losses = np.empty(len(grid))
    outputs: list[np.ndarray | None] = []
    for j, cand in enumerate(grid):
        try:
            x, r = _evaluate_candidate(y, weight_values, lam_of(cand))
        except (LeverageSaturationError, SingularSystemError):
            losses[j] = math.inf
            outputs.append(None)
            continue
        if method == METHOD_LSA_PS:
            losses[j] = cv_loss_lsa(r, loss_weights.values)
        else:
            losses[j] = cv_loss_ps(r)
        outputs.append(x)

    if not np.any(np.isfinite(losses)):
        raise SelectionFailedError("every candidate saturated or failed")

    # Argmin with ties broken toward the larger parameter, independent
    # of grid ordering.
    best_index = min(range(len(grid)), key=lambda j: (losses[j], -grid[j]))
    best = grid[best_index]
    curve = CvCurve(
        grid=grid,
        losses=losses,
        best_index=best_index,
        method=method,
        normalization=normalization,
    )
    return SelectionResult(
        curve=curve,
        best_parameter=best,
        smoothed=outputs[best_index],
        effective_lambda=lam_of(best),
        weights=solve_weights,
    )
