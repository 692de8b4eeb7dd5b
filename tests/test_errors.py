"""Bad input to the public API raises an LsapsError: exact messages for
a bad y, and a property test over every array argument and scalar parameter."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsaps import linalg
from lsaps.errors import (InvalidConfigError, InvalidInputError, InvalidSizeError, LsapsError,
                          ResultOverflowError, SingularSystemError, UndefinedMetricError, checked)
from lsaps.localfit import floor_weights, local_quadratic_curvature
from lsaps.peaks import detect_peaks, second_difference
from lsaps.select import DEFAULT_GRID, cv_loss_lsa, loo_residuals, select_parameter
from lsaps.sim import (NOISE_FREE_DB, Background, LorentzianPeak, SimScenario, add_noise,
                       rrse_second_derivative, run_benchmark, snr)
from lsaps.smoothers import (grid_plan, penalized_weights, smooth, smooth_gaussian,
                             smooth_lsa_ps, smooth_ps, smooth_savitzky_golay)

TAKES_Y = {
    "smooth_ps": lambda y: smooth_ps(y, 1.0),
    "smooth_lsa_ps": lambda y: smooth_lsa_ps(y, 1.0),
    "smooth_savitzky_golay": lambda y: smooth_savitzky_golay(y, 5, 2),
    "smooth_gaussian": lambda y: smooth_gaussian(y, 3),
    "select_parameter": select_parameter,
    "local_quadratic_curvature": local_quadratic_curvature,
}
# Functions of an array x, which their messages once named y.
TAKES_X = {
    "detect_peaks": lambda x: detect_peaks(x, 3),
    "second_difference": second_difference,
}


def _with(value, index):
    y = np.sin(np.linspace(0.0, 6.0, 50))
    y[index] = value
    return y


CASES = [
    *(pytest.param(call, y, error, message.format(arg), id=f"{name}-{case}")
      for arg, calls in (("y", TAKES_Y), ("x", TAKES_X))
      for name, call in calls.items()
      for case, y, error, message in (
          ("nan", _with(np.nan, 7), InvalidInputError, "{} must be finite, got nan at index 7"),
          ("inf", _with(-np.inf, 12), InvalidInputError, "{} must be finite, got -inf at index 12"),
          ("2d", np.ones((2, 50)), InvalidSizeError, "{} must be 1-d, got shape (2, 50)"),
      )),
    # Once "five-point regression needs n >= 5, got n=2" and numpy's
    # "object too deep for desired array".
    pytest.param(local_quadratic_curvature, np.ones((6, 50)), InvalidSizeError,
                 "y must be 1-d, got shape (6, 50)", id="local_quadratic_curvature-2d-tall"),
    pytest.param(lambda y: loo_residuals(y, y[:-1], np.zeros(50)), np.ones(50), InvalidSizeError,
                 "smoothed must have shape (50,), got (49,)", id="loo_residuals-shapes"),
    pytest.param(lambda w: cv_loss_lsa(np.ones(50), w), np.r_[np.ones(3), 0.0, np.ones(46)],
                 InvalidInputError,
                 "loss weights must be strictly positive; floor them first",
                 id="cv_loss_lsa-zero-weight"),
    # Arrays that passed NaN through or leaked numpy's errors, and the
    # linalg and sim checks that raised a bare ValueError or IndexError.
    pytest.param(floor_weights, [np.nan, 1.0, 2.0], InvalidInputError,
                 "weights must be finite, got nan at index 0", id="floor_weights-nan"),
    pytest.param(floor_weights, np.ones((2, 3)), InvalidSizeError,
                 "weights must be 1-d, got shape (2, 3)", id="floor_weights-2d"),
    # Once "all curvature weights are zero (affine signal, ...)".
    pytest.param(floor_weights, np.ones(0), InvalidSizeError,
                 "weights must not be empty", id="floor_weights-empty"),
    # Once "unknown method 'sg'", of a method that smooth knows.
    pytest.param(lambda method: penalized_weights(_with(0.0, 0), method), "sg",
                 InvalidConfigError, "penalized weights take only ps and lsa-ps, got 'sg'",
                 id="penalized_weights-sg"),
    pytest.param(lambda y: loo_residuals(y, np.zeros(50), np.zeros(50)), _with(np.nan, 3),
                 InvalidInputError, "y must be finite, got nan at index 3", id="loo_residuals-nan"),
    pytest.param(lambda r: cv_loss_lsa(r, np.ones(50)), _with(np.nan, 3), InvalidInputError,
                 "r must be finite, got nan at index 3", id="cv_loss_lsa-nan-r"),
    pytest.param(lambda w: cv_loss_lsa(np.ones(50), w), _with(np.inf, 4), InvalidInputError,
                 "weights must be finite, got inf at index 4", id="cv_loss_lsa-inf-weight"),
    pytest.param(lambda w: cv_loss_lsa(np.ones(50), w), np.ones(49), InvalidSizeError,
                 "weights must have shape (50,), got (49,)", id="cv_loss_lsa-shapes"),
    pytest.param(lambda clean: add_noise(clean, 0.1, 0), np.ones((2, 50)), InvalidSizeError,
                 "clean must be 1-d, got shape (2, 50)", id="add_noise-2d"),
    pytest.param(lambda seed: add_noise(np.ones(50), 0.1, seed), -1, InvalidConfigError,
                 "seed must be >= 0, got -1", id="add_noise-negative-seed"),
    pytest.param(lambda seed: add_noise(np.ones(50), 0.1, seed), 1.5, InvalidConfigError,
                 "seed must be an integer, got 1.5", id="add_noise-float-seed"),
    pytest.param(lambda seed: run_benchmark(SimScenario(), [50], [0.0], {"ps": [1.0]}, [seed]), -1,
                 InvalidConfigError, "seeds[0] must be >= 0, got -1", id="run_benchmark-negative-seed"),
    # A non-finite lambda_bar was named as the lam it scales to, a negative
    # lam of PS reported as the failure of the setup it shares, a sigma of
    # inf as the noise's sum of squares, and a negative one without its value.
    pytest.param(lambda lambda_bar: smooth(_with(0.0, 0), "lsa-ps", lambda_bar), math.inf,
                 InvalidConfigError, "lambda_bar must be finite, got inf",
                 id="smooth-lsa-ps-inf-lambda_bar"),
    pytest.param(lambda lambda_bar: smooth(_with(0.0, 0), "lsa-ps", lambda_bar), math.nan,
                 InvalidConfigError, "lambda_bar must be finite, got nan",
                 id="smooth-lsa-ps-nan-lambda_bar"),
    pytest.param(lambda lambda_bar: smooth_lsa_ps(_with(0.0, 0), lambda_bar), math.inf,
                 InvalidConfigError, "lambda_bar must be finite, got inf",
                 id="smooth_lsa_ps-inf-lambda_bar"),
    pytest.param(lambda lam: smooth(np.ones(2), "ps", lam), -1, InvalidConfigError,
                 "lam must be >= 0, got -1", id="smooth-ps-negative-short-y"),
    pytest.param(lambda sigma: add_noise(np.ones(50), sigma, 0), math.inf, InvalidConfigError,
                 "sigma must be finite, got inf", id="add_noise-inf-sigma"),
    pytest.param(lambda sigma: add_noise(np.ones(50), sigma, 0), -1, InvalidConfigError,
                 "sigma must be >= 0, got -1", id="add_noise-negative-sigma"),
    pytest.param(linalg.assembler, np.float64(1.0), InvalidSizeError,
                 "weights must be 1-d, got shape ()", id="assembler-0d"),
    pytest.param(linalg.assembler, np.ones((6, 50)), InvalidSizeError,
                 "weights must be 1-d, got shape (6, 50)", id="assembler-2d"),
    pytest.param(linalg.assembler, [1.0, np.nan, 1.0, 1.0, 1.0], InvalidInputError,
                 "weights must be finite, got nan at index 1", id="assembler-nan"),
    pytest.param(linalg.assembler, [1.0, -1.0, 1.0], InvalidInputError,
                 "weights must be non-negative", id="assembler-negative"),
    pytest.param(lambda rhs: linalg.solve(linalg.assembler(np.ones(5))(1.0), rhs), np.ones(4),
                 InvalidSizeError, "rhs must have shape (5,), got (4,)", id="solve-shape"),
    pytest.param(lambda rhs: linalg.solve(linalg.assembler(np.ones(5))(1.0), rhs),
                 np.r_[1.0, 1.0, 1.0, np.inf, 1.0], InvalidInputError,
                 "rhs must be finite, got inf at index 3", id="solve-inf"),
    pytest.param(lambda abscissa: detect_peaks(np.sin(np.arange(50.0)), 3, abscissa),
                 _with(np.nan, 49), InvalidInputError,
                 "abscissa must be finite, got nan at index 49", id="detect_peaks-nan-abscissa"),
    pytest.param(lambda height: LorentzianPeak(1.0, height, 1.0), -1.0, InvalidInputError,
                 "height and halfwidth must be > 0", id="LorentzianPeak"),
    pytest.param(lambda width: Background(hump_width=width), 0.0, InvalidInputError,
                 "background hump_width must be > 0", id="Background"),
    pytest.param(lambda slope: Background(slope=slope), math.inf, InvalidInputError,
                 "background values must be finite numbers", id="Background-inf"),
    pytest.param(lambda x_range: SimScenario(x_range=x_range), (1.0, 0.0), InvalidInputError,
                 "x_range must be two increasing finite numbers", id="SimScenario"),
    # Arrays that are not of real numbers, which raised numpy's bare
    # ValueError or TypeError or, complex, lost their imaginary part.
    *(pytest.param(call, values, InvalidInputError, f"{name} must be an array of real numbers, "
                   f"got {got}", id=case)
      for case, call, name, values, got in (
          ("smooth_ps-strings", lambda y: smooth_ps(y, 1.0), "y", ["a"] * 5, "dtype <U1"),
          ("snr-strings", lambda y: snr(y, np.ones(5)), "reference", ["a"] * 5, "dtype <U1"),
          ("floor_weights-strings", floor_weights, "weights", ["x"], "dtype <U1"),
          ("smooth_ps-ragged", lambda y: smooth_ps(y, 1.0), "y", [[1, 2], [3]],
           "a ragged sequence"),
          ("smooth_ps-dict", lambda y: smooth_ps(y, 1.0), "y", {"a": 1}, "dtype object"),
          ("Background.evaluate-str", Background().evaluate, "t", ["a"], "dtype <U1"),
          ("smooth_ps-complex", lambda y: smooth_ps(y, 1.0), "y", np.ones(6) + 1j,
           "dtype complex128"),
      )),
    # Scalar parameters that raised a bare TypeError or ValueError, or, as
    # bools, ran as integers.
    *(pytest.param(call, value, InvalidConfigError, message, id=case)
      for case, call, value, message in (
          ("smooth_ps-str", lambda lam: smooth_ps(np.ones(6), lam), "1",
           "lam must be a real number, got '1'"),
          ("smooth_ps-complex", lambda lam: smooth_ps(np.ones(6), lam), 1j,
           "lam must be a real number, got 1j"),
          ("smooth_ps-None", lambda lam: smooth_ps(np.ones(6), lam), None,
           "lam must be a real number, got None"),
          ("assembler-str", lambda lam: linalg.assembler(np.ones(5))(lam), "1",
           "lam must be a real number, got '1'"),
          ("smooth_lsa_ps-str", lambda lambda_bar: smooth_lsa_ps(_with(0.0, 0), lambda_bar), "2",
           "lambda_bar must be a real number, got '2'"),
          ("add_noise-str", lambda sigma: add_noise(np.ones(5), sigma, 0), "0.1",
           "sigma must be a real number, got '0.1'"),
          ("run_benchmark-sigma", lambda sigma: run_benchmark(SimScenario(), [50], [sigma],
                                                              {"ps": [1.0]}, [0]),
           "x", "noise_sigmas[0] must be a real number, got 'x'"),
          # A Savitzky-Golay pair holding a list raised a bare TypeError
          # from the check of repeats.
          ("run_benchmark-sg-unhashable",
           lambda grid: run_benchmark(SimScenario(), [50], [0.1], {"sg": grid}, [0]), [[[5], 2]],
           "methods.sg[0][0] must be an integer, got [5]"),
          ("smooth-none", lambda method: smooth(np.ones(6), method, None), "none",
           "unknown method 'none'"),
          ("select_parameter-str", lambda grid: select_parameter(np.ones(6), grid=grid), ["a"],
           "candidate must be a real number, got 'a'"),
          ("select_parameter-complex", lambda grid: select_parameter(np.ones(6), grid=grid), [1j],
           "candidate must be a real number, got 1j"),
          ("select_parameter-None", lambda grid: select_parameter(np.ones(6), grid=grid), None,
           "candidate grid must be a sequence of numbers, got None"),
          ("detect_peaks-bool", lambda k: detect_peaks(np.ones(6), k), True,
           "k must be an integer, got True"),
          ("smooth_gaussian-bool", lambda window: smooth_gaussian(np.ones(6), window), True,
           "window must be an integer, got True"),
          ("smooth_savitzky_golay-bool",
           lambda window: smooth_savitzky_golay(np.ones(6), window, 0), True,
           "window must be an integer, got True"),
          ("add_noise-bool-seed", lambda seed: add_noise(np.ones(5), 0.1, seed), True,
           "seed must be an integer, got True"),
          ("SimScenario-float-n", lambda n: SimScenario(n=n), 5.5, "n must be an integer, got 5.5"),
          ("smooth-sg-not-a-pair", lambda parameter: smooth(np.ones(6), "sg", parameter), 5,
           "a Savitzky-Golay parameter is a (window, poly_order) pair, got 5"),
          # Ints beyond float64 raised a bare OverflowError, or numpy's
          # ValueError as a resolution.
          ("smooth-ps-huge-int", lambda lam: smooth(np.ones(6), "ps", lam), 10**400,
           "lam must be within float64's range, got an integer of 1329 bits"),
          ("smooth_lsa_ps-huge-int", lambda lambda_bar: smooth_lsa_ps(_with(0.0, 0), lambda_bar),
           -10**400, "lambda_bar must be within float64's range, got an integer of 1329 bits"),
          ("smooth_gaussian-huge-int", lambda window: smooth_gaussian(np.ones(6), window),
           10**400, "window must be within float64's range, got an integer of 1329 bits"),
          ("run_benchmark-huge-resolution",
           lambda n: run_benchmark(SimScenario(), [n], [0.1], {"ps": [1.0]}, [0]),
           sys.maxsize + 1, f"resolutions[0] must be <= {sys.maxsize}, got {sys.maxsize + 1}"),
          # Ints of more digits than Python converts to text raised a bare
          # ValueError from the message meant for them.
          ("smooth_savitzky_golay-unprintable-int",
           lambda window: smooth_savitzky_golay(np.ones(50), window, 2), 10**5000,
           "window must be odd and >= 1, got an integer of 16610 bits"),
          ("detect_peaks-unprintable-int", lambda k: detect_peaks(np.sin(np.arange(50.0)), k),
           -10**5000, "k must be >= 1, got an integer of 16610 bits"),
          ("detect_peaks-unprintable-int-in-list",
           lambda k: detect_peaks(np.sin(np.arange(50.0)), k), [10**5000],
           "k must be an integer, got a list holding an integer too long to print"),
          ("run_benchmark-unprintable-seed",
           lambda seed: run_benchmark(SimScenario(), [50], [0.0], {"ps": [1.0]}, [seed]),
           -10**5000, "seeds[0] must be >= 0, got an integer of 16610 bits"),
          ("run_benchmark-unprintable-resolution",
           lambda n: run_benchmark(SimScenario(), [n], [0.1], {"ps": [1.0]}, [0]), 10**5000,
           f"resolutions[0] must be <= {sys.maxsize}, got an integer of 16610 bits"),
          ("run_benchmark-unprintable-negative-resolution",
           lambda n: run_benchmark(SimScenario(), [n], [0.1], {"ps": [1.0]}, [0]), -10**5000,
           "resolutions[0] must be >= 5, got an integer of 16610 bits"),
          # A plan's n raised numpy's bare TypeError or ValueError for PS, and
          # was taken as it was by the other methods, a string '7' too.
          *((f"grid_plan-{method}-n-{case}", lambda n, method=method: grid_plan(n, method, [1]),
             n, message)
            for method in ("ps", "gaussian")
            for case, n, message in (
                ("float", 4.5, "n must be an integer, got 4.5"),
                ("bool", True, "n must be an integer, got True"),
                ("str", "7", "n must be an integer, got 7"),
                ("negative", -1, "n must be >= 0, got -1"),
                ("huge", 10**30, f"n must be <= {sys.maxsize}, got {10**30}"),
            )),
          # A clip that is not a bool was taken as truthy or falsy.
          ("smooth_lsa_ps-clip-str", lambda clip: smooth_lsa_ps(_with(0.0, 0), 2.5, clip), "off",
           "clip must be True or False, got 'off'"),
          ("smooth-lsa-ps-clip-None", lambda clip: smooth(_with(0.0, 0), "lsa-ps", 2.5, clip),
           None, "clip must be True or False, got None"),
          ("smooth-sg-clip-int", lambda clip: smooth(np.ones(6), "sg", (5, 2), clip), 1,
           "clip must be True or False, got 1"),
          ("grid_plan-clip-str", lambda clip: grid_plan(50, "lsa-ps", [1.0], clip), "on",
           "clip must be True or False, got 'on'"),
          ("select_parameter-clip-str",
           lambda clip: select_parameter(_with(0.0, 0), clip=clip), "off",
           "clip must be True or False, got 'off'"),
          ("penalized_weights-clip-None",
           lambda clip: penalized_weights(_with(0.0, 0), "lsa-ps", clip), None,
           "clip must be True or False, got None"),
      )),
]


@pytest.mark.parametrize("call, y, error, message", CASES)
def test_bad_input_is_an_lsaps_value_error(call, y, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call(y)
    assert isinstance(info.value, LsapsError) and isinstance(info.value, ValueError)


# Results beyond float64, which came back as inf or NaN or raised a numpy
# or math error.
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: local_quadratic_curvature(np.sin(np.arange(50.0)) * 1e200),
                 ResultOverflowError, "curvature weights exceed float64; scale y to unit size first",
                 id="local_quadratic_curvature"),
    pytest.param(lambda: loo_residuals(np.full(5, 1e300), np.zeros(5), np.full(5, 1 - 1e-10)),
                 ResultOverflowError, "leave-one-out residuals exceed float64", id="loo_residuals"),
    pytest.param(lambda: cv_loss_lsa(np.full(5, 1e200), np.ones(5)),
                 ResultOverflowError, "the CV loss exceeds float64", id="cv_loss_lsa"),
    pytest.param(lambda: cv_loss_lsa([], []), InvalidSizeError, "r must not be empty",
                 id="cv_loss_lsa-empty"),
    pytest.param(lambda: linalg.solve(linalg.assembler(np.full(5, 1e-10))(1.0), np.full(5, 1e300)),
                 ResultOverflowError, "the solution exceeds float64", id="solve"),
    # Subnormal weights and lam.
    pytest.param(lambda: linalg.hat_diagonal(linalg.assembler(np.full(10, 1e-310))(1e-310)),
                 SingularSystemError,
                 "the diagonal of M^{-1} exceeds float64: M is too small in scale",
                 id="hat_diagonal"),
    pytest.param(lambda: snr([1.0, 1e-310], [1.0, 2e-310]), UndefinedMetricError,
                 "the error energy of the estimate underflows float64", id="snr-underflow"),
    pytest.param(lambda: snr(np.full(10, 1e200), np.full(10, 1e200)), UndefinedMetricError,
                 "the energy of the reference overflows float64", id="snr-reference-overflow"),
    pytest.param(lambda: rrse_second_derivative(np.ones(10), np.r_[np.zeros(5), np.full(5, 1e300)]),
                 UndefinedMetricError,
                 "the second-difference energy of the truth overflows float64",
                 id="rrse-truth-overflow"),
    pytest.param(lambda: rrse_second_derivative([0.0, 1e150, 0.0, 0.0], [0.0, 1e-160, 0.0, 0.0]),
                 UndefinedMetricError, "the RRSE of the estimate overflows float64", id="rrse"),
])
def test_result_beyond_float64_is_an_lsaps_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert isinstance(info.value, LsapsError)


def test_snr_beyond_float64_is_taken_from_the_logs():
    # The energies' ratio underflows, and overflows, float64.
    reference, estimate = np.array([0.0, 1e-134]), np.array([0.0, 1e29])
    assert snr(reference, estimate) == pytest.approx(-3260.0, rel=1e-12)
    assert snr(estimate, estimate + [1e-134, 0.0]) == pytest.approx(3260.0, rel=1e-12)
    _, input_snr = add_noise(np.array([1e152]), 0.1, 0)
    assert math.isfinite(input_snr) and input_snr > 3000


@st.composite
def arrays(draw, shape=None):
    """A float array for a bad-input probe: of ``shape``, or else 1-d of 0
    to 40 points or 2-d; of arbitrary values up to 1e300 in size, or a
    sinusoid scaled by 10**p, |p| <= 300; with a NaN or an inf put in or
    not."""
    if shape is None:
        shape = draw(st.one_of(st.tuples(st.integers(0, 40)),
                               st.tuples(st.integers(1, 3), st.integers(1, 12))))
    size = math.prod(shape)
    if draw(st.booleans()):
        values = np.array(draw(st.lists(st.floats(-1e300, 1e300), min_size=size, max_size=size)))
    else:
        values = (np.sin(np.arange(size) * draw(st.floats(0.05, 2.0)))
                  * 10.0 ** draw(st.integers(-300, 300)))
    values = values.reshape(shape)
    if size and draw(st.booleans()):
        values.flat[draw(st.integers(0, size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return values


# What np.asarray(..., dtype=float) refused with a bare ValueError or
# TypeError, or took with a ComplexWarning and the imaginary part dropped:
# strings, numeric ones too; nested lists, mostly ragged; dicts; complex arrays.
NOT_REAL_ARRAYS = st.one_of(
    st.lists(st.text(max_size=3), max_size=6),
    st.lists(st.lists(st.floats(-1e3, 1e3), max_size=3), min_size=2, max_size=4),
    st.dictionaries(st.text(max_size=2), st.floats(-1e3, 1e3), max_size=3),
    arrays().map(lambda values: values + 1j),
)

# Bad scalar parameters: strings, None and complex numbers raised a bare
# TypeError or ValueError, bools ran as the integers 1 and 0, NaN and +-inf
# are not finite, ints beyond float64 raised a bare OverflowError, and ints
# of more digits than Python converts to text a bare ValueError.
BAD_SCALARS = ["1", None, 1j, True, False, np.True_, math.nan, math.inf, -math.inf,
               10**400, -10**400, 10**5000, -10**5000]


def _snr(reference, estimate):
    """``snr``, which scores an exact estimate NOISE_FREE_DB, inf, by design."""
    score = snr(reference, estimate)
    return [] if score == NOISE_FREE_DB and np.array_equal(reference, estimate) else [score]


def _sweep(resolution, sigma):
    """The scores of a one-cell sweep."""
    cells = run_benchmark(SimScenario(), [resolution], [sigma], {"ps": [1.0]}, [0]).cells
    return cells["output_snr_db"] + cells["rrse"]


# Each call takes its array arguments, then its scalar parameters by name,
# and returns the values that must be finite; beside it, each scalar
# parameter's good value. Left out are values that the docs let leave
# float64: the LSA-PS lambda, in units of y squared, and the CV losses, inf
# for a failed candidate and in units of y for PS.
API = {
    "smooth_ps": (smooth_ps, {"lam": 1.0}),
    "smooth_lsa_ps": (lambda y, lambda_bar: smooth_lsa_ps(y, lambda_bar)[0], {"lambda_bar": 1.0}),
    "smooth_savitzky_golay": (smooth_savitzky_golay, {"window": 5, "poly_order": 2}),
    "smooth_gaussian": (smooth_gaussian, {"window": 3}),
    "smooth": (lambda y, parameter: smooth(y, "ps", parameter)[0], {"parameter": 100.0}),
    "select_parameter-lsa-ps": (
        lambda y, candidate: select_parameter(y, grid=(*DEFAULT_GRID[:-1], candidate)).smoothed,
        {"candidate": DEFAULT_GRID[-1]}),
    "select_parameter-ps": (lambda y, grid: select_parameter(y, "ps", grid).smoothed,
                            {"grid": DEFAULT_GRID}),
    "detect_peaks": (lambda x, abscissa, k: [
        (p.abscissa, p.sharpness, p.intensity) for p in detect_peaks(x, k, abscissa)], {"k": 3}),
    "second_difference": (second_difference, {}),
    "local_quadratic_curvature": (local_quadratic_curvature, {}),
    "floor_weights": (floor_weights, {}),
    "add_noise": (add_noise, {"sigma": 0.1, "seed": 0}),
    "snr": (_snr, {}),
    "rrse_second_derivative": (rrse_second_derivative, {}),
    "assembler": (lambda weights, lam: linalg.assembler(weights)(lam).u, {"lam": 1.0}),
    "solve": (lambda weights, rhs: linalg.solve(
        linalg.assembler(np.abs(checked("weights", weights)))(1.0), rhs), {}),
    "loo_residuals": (loo_residuals, {}),
    "cv_loss_lsa": (cv_loss_lsa, {}),
    "run_benchmark": (_sweep, {"resolution": 50, "sigma": 0.1}),
}


@pytest.mark.parametrize("name", API)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bad_arrays_raise_lsaps_errors_or_give_finite_output(name, data):
    # Every array argument is a float array, maybe with a NaN or an inf, or
    # is not an array of real numbers; every scalar parameter is its good
    # value or is not a real number, or not an integer, or not finite.
    call, scalars = API[name]
    arguments = []
    for _ in range(call.__code__.co_argcount - len(scalars)):
        # Each further argument has the first one's shape or its own.
        shape = (data.draw(st.sampled_from([arguments[0].shape, None]))
                 if arguments and isinstance(arguments[0], np.ndarray) else None)
        arguments.append(data.draw(st.one_of(arrays(shape), NOT_REAL_ARRAYS)))
    parameters = {parameter: data.draw(st.one_of(st.just(good), st.sampled_from(BAD_SCALARS)))
                  for parameter, good in scalars.items()}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = call(*arguments, **parameters)
    except LsapsError:
        return
    out = out if isinstance(out, (list, tuple)) else [out]
    assert all(np.isfinite(np.asarray(v, dtype=float)).all() for v in out), out


# Sweep grid values of each type that JSON or a Python caller can give:
# integers, beyond float64 and beyond printing too, floats where a window is an integer, bools,
# None, strings, and lists, nested or not, among them Savitzky-Golay pairs
# given as lists.
GRID_VALUES = st.one_of(
    st.integers(-3, 40), st.sampled_from([10**400, -10**400, 10**5000, -10**5000]), st.floats(),
    st.booleans(),
    st.none(), st.text(max_size=2),
    st.lists(st.one_of(st.integers(-3, 40), st.floats(-40.0, 40.0)), max_size=3),
    st.tuples(st.integers(-3, 40), st.integers(-3, 40)),
    st.lists(st.lists(st.integers(0, 9), max_size=2), max_size=2),
)


@settings(max_examples=100, deadline=None)
@example(grids={"ps": [10**400], "gaussian": [10**400]}, t=np.zeros(3))
@example(grids={"lsa-ps": [-10**400], "gaussian": [-10**400]}, t=np.zeros(3))
@given(grids=st.dictionaries(st.sampled_from(["ps", "lsa-ps", "sg", "gaussian", "none"]),
                             st.lists(GRID_VALUES, max_size=3), max_size=3),
       t=st.one_of(arrays(), NOT_REAL_ARRAYS))
def test_bad_sweep_values_raise_lsaps_errors(grids, t):
    # run_benchmark's grid values and Background.evaluate's t: each call
    # returns or raises an LsapsError. A Savitzky-Golay pair given as a
    # list raised a bare TypeError from the check of repeats, and a t of
    # strings numpy's ValueError.
    for call in (lambda: run_benchmark(SimScenario(), [20], [0.1], grids, [0]),
                 lambda: Background().evaluate(t)):
        try:
            call()
        except LsapsError:
            pass
