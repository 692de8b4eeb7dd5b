"""Bad input to the public API raises an LsapsError that is a ValueError."""

import re

import numpy as np
import pytest

from lsaps.errors import InvalidInputError, InvalidSizeError, LsapsError
from lsaps.localfit import local_quadratic_curvature
from lsaps.peaks import detect_peaks, second_difference
from lsaps.select import cv_loss_lsa, loo_residuals, select_parameter
from lsaps.smoothers import smooth_gaussian, smooth_lsa_ps, smooth_ps, smooth_savitzky_golay

TAKES_Y = {
    "smooth_ps": lambda y: smooth_ps(y, 1.0),
    "smooth_lsa_ps": lambda y: smooth_lsa_ps(y, 1.0),
    "smooth_savitzky_golay": lambda y: smooth_savitzky_golay(y, 5, 2),
    "smooth_gaussian": lambda y: smooth_gaussian(y, 3),
    "select_parameter": select_parameter,
    "detect_peaks": lambda y: detect_peaks(y, 3),
    "second_difference": second_difference,
    "local_quadratic_curvature": local_quadratic_curvature,
}


def _with(value, index):
    y = np.sin(np.linspace(0.0, 6.0, 50))
    y[index] = value
    return y


CASES = [
    *(pytest.param(TAKES_Y[name], y, error, message, id=f"{name}-{case}")
      for name in TAKES_Y
      for case, y, error, message in (
          ("nan", _with(np.nan, 7), InvalidInputError, "y must be finite, got nan at index 7"),
          ("inf", _with(-np.inf, 12), InvalidInputError, "y must be finite, got -inf at index 12"),
          ("2d", np.ones((2, 50)), InvalidSizeError, "y must be 1-d, got shape (2, 50)"),
      )),
    # Once "five-point regression needs n >= 5, got n=2" and numpy's
    # "object too deep for desired array".
    pytest.param(local_quadratic_curvature, np.ones((6, 50)), InvalidSizeError,
                 "y must be 1-d, got shape (6, 50)", id="local_quadratic_curvature-2d-tall"),
    pytest.param(lambda y: loo_residuals(y, y[:-1], np.zeros(50)), np.ones(50), InvalidSizeError,
                 "y, smoothed, and hat_diag must have equal shapes", id="loo_residuals-shapes"),
    pytest.param(lambda w: cv_loss_lsa(np.ones(50), w), np.r_[np.ones(3), 0.0, np.ones(46)],
                 InvalidInputError,
                 "loss weights must be strictly positive; floor them first",
                 id="cv_loss_lsa-zero-weight"),
]


@pytest.mark.parametrize("call, y, error, message", CASES)
def test_bad_input_is_an_lsaps_value_error(call, y, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call(y)
    assert isinstance(info.value, LsapsError) and isinstance(info.value, ValueError)
