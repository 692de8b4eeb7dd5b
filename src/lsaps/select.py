"""Automated smoothness-parameter selection by leave-one-out CV.

Each candidate of a grid is fitted by ``smoothers._penalized``, as by
``smooth``; its factor gives the hat-matrix diagonal and the closed-form
leave-one-out residuals r_i = (y_i - x_i) / (1 - H_ii). Both methods use
one loss, sqrt(r^T A^{-1} r / N), with A the method's weights raised to a
tiny floor. PS's unit weights give the standard loss sqrt(r^T r / N);
with the LSA-PS curvature weights the modified loss discounts residuals
at high-curvature points, which counters the chronic underestimation of
the smoothness.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    InvalidSizeError,
    LeverageSaturationError,
    ResultOverflowError,
    SelectionFailedError,
    SingularSystemError,
    boolean,
    checked,
    nonnegative,
    shown,
)
from .localfit import floor_weights
from .smoothers import PENALIZED, _penalized, from_unit, to_unit

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
    InvalidSizeError, InvalidInputError
        If ``y`` is not 1-d, ``smoothed`` or ``hat_diag`` is not of its
        shape, or one of them is not an array of real numbers or not
        finite.
    LeverageSaturationError
        If any leverage is within ``LEVERAGE_TOL`` of 1 (the smoother
        interpolates that point and cannot be cross-validated there).
    ResultOverflowError
        If a residual exceeds float64.
    """
    y = checked("y", y)
    smoothed = checked("smoothed", smoothed, shape=y.shape)
    hat_diag = checked("hat_diag", hat_diag, shape=y.shape)
    if np.any(hat_diag >= 1.0 - LEVERAGE_TOL):
        raise LeverageSaturationError("a leverage value saturated at 1")
    with np.errstate(over="ignore"):
        r = (y - smoothed) / (1.0 - hat_diag)
    if not np.isfinite(r).all():
        raise ResultOverflowError("leave-one-out residuals exceed float64")
    return r


def cv_loss_lsa(r, weights) -> float:
    """CV loss sqrt(r^T A^{-1} r / N) with diagonal A = weights; unit
    weights give the standard PS loss sqrt(r^T r / N). Raises
    InvalidSizeError for an ``r`` that is empty or not 1-d and for
    ``weights`` not of its shape, InvalidInputError for either not an
    array of real numbers or not finite and for a weight <= 0, and
    ResultOverflowError for a loss beyond float64."""
    r = checked("r", r)
    w = checked("weights", weights, shape=r.shape)
    if r.size == 0:
        raise InvalidSizeError("r must not be empty")
    if np.any(w <= 0):
        raise InvalidInputError("loss weights must be strictly positive; floor them first")
    with np.errstate(over="ignore"):
        loss = float(np.sqrt(np.mean(np.square(r) / w)))
    if not math.isfinite(loss):
        raise ResultOverflowError("the CV loss exceeds float64")
    return loss


def select_parameter(
    y,
    method: str = "lsa-ps",
    grid=DEFAULT_GRID,
    clip: bool = True,
) -> SelectionResult:
    """Pick the smoothness parameter minimizing the method's CV loss.

    Each candidate is fitted exactly as ``smooth`` fits it, with the
    same x and effective lambda.
    Candidates whose leverage saturates, whose system is singular or whose
    loss overflows get a loss of +inf and are excluded from the argmin;
    ties break toward the larger parameter. Every fit, and so every
    residual and loss, is taken on y scaled to unit size by ``to_unit``,
    so no fit overflows or underflows, and scaled back exactly: the
    smoothed output and the PS loss are in units of y, the LSA-PS loss has
    none, and the LSA-PS effective lambda is in units of y squared. A PS loss or a
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
        If the method is not ``ps`` or ``lsa-ps``, which is checked
        first, then if ``clip`` is not a bool (``errors.boolean``); if
        the grid is not a sequence, is empty or holds a candidate that is
        not a finite real number >= 0 (``errors.nonnegative``), which is
        checked before y; or if a candidate's lambda overflows the
        system's band.
    SelectionFailedError
        If every candidate on the grid fails.
    ResultOverflowError
        If the selected smoothed signal exceeds float64.
    InvalidSizeError, DegenerateSignalError
        As ``smooth`` raises them for the method and y, such as a y
        that is not 1-d.
    InvalidInputError
        A ``ValueError``, if ``y`` is not an array of real numbers or not
        finite.
    """
    if method not in PENALIZED:
        raise InvalidConfigError(
            f"auto-selection supports only ps and lsa-ps, got {shown(method, repr)}")
    clip = boolean("clip", clip)
    try:
        grid = tuple(float(nonnegative("candidate", g)) for g in grid)
    except TypeError:  # not iterable
        raise InvalidConfigError(
            f"candidate grid must be a sequence of numbers, got {shown(grid, repr)}") from None
    if not grid:
        raise InvalidConfigError("candidate grid must be non-empty")

    y_unit, e = to_unit(y)
    fit, weights = _penalized(y_unit, e, method, clip, grid)
    loss_weights = floor_weights(weights)

    # The argmin over the good candidates, ties broken toward the larger
    # parameter whatever the grid order; only its x and lambda are kept.
    losses = np.empty(len(grid))
    best_index = best_key = best_x = best_lam = None
    for j, cand in enumerate(grid):
        try:
            factor, x, lam = fit(j)
            r = loo_residuals(y_unit, x, linalg.hat_diagonal(factor))
            losses[j] = cv_loss_lsa(r, loss_weights)
        except (LeverageSaturationError, SingularSystemError, ResultOverflowError):
            losses[j] = math.inf
            continue
        key = (losses[j], -cand)
        if best_key is None or key < best_key:
            best_index, best_key, best_x, best_lam = j, key, x, lam

    if not np.any(np.isfinite(losses)):
        raise SelectionFailedError("every candidate saturated or failed")

    if method == "ps":
        with np.errstate(over="ignore", under="ignore"):
            losses = np.ldexp(losses, e)
    return SelectionResult(
        curve=CvCurve(grid=grid, losses=losses, best_index=best_index),
        best_parameter=grid[best_index],
        smoothed=from_unit(best_x, e),
        effective_lambda=best_lam,
    )
