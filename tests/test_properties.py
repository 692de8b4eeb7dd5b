"""Property tests of the paper's identities for the smoothers and the
peak detector.

- Exact power-of-two equivariance: every penalized and Savitzky-Golay
  fit runs on y scaled to unit size, so y * 2**k smooths to exactly
  x * 2**k, up to the edge of the float64 range; peaks are ranked on the
  second difference at unit size, so x * 2**k has the peaks of x.
- The closed-form leave-one-out residuals equal brute-force refits with
  the left-out point's weight set to zero.
- PS and LSA-PS are equivariant under shifts and under scales that are
  not powers of two, within a stated tolerance.
- lam -> 0 returns y, and lam -> inf the weighted straight-line fit, at
  the rates the normal equations give.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lsaps import linalg
from lsaps.peaks import detect_peaks
from lsaps.select import loo_residuals, select_parameter
from lsaps.sim import COMPARISON_GRIDS
from lsaps.smoothers import PENALIZED, penalized_weights, smooth

TINY = np.finfo(float).tiny


def unit_signal(n, seed, noise):
    """A noisy sinusoid scaled by a power of two so max|y| is in [0.5, 1)."""
    rng = np.random.default_rng(seed)
    y = np.sin(np.linspace(0.0, rng.uniform(3.0, 30.0), n)) + noise * rng.standard_normal(n)
    return np.ldexp(y, -int(np.frexp(np.max(np.abs(y)))[1]))


def exact_scaling(v, k):
    """Whether v * 2**k is exact: no entry lands in the subnormal range
    or beyond float64."""
    with np.errstate(over="ignore"):
        return np.array_equal(np.ldexp(np.ldexp(v, k), -k), v)


def alternating(n):
    """A unit sinusoid with every other sign flipped: its second
    difference is up to 4 max|x|."""
    t = np.arange(n)
    return np.sin(t / 10.0) * (-1.0) ** t


signals = st.builds(
    unit_signal,
    n=st.integers(20, 120),
    seed=st.integers(0, 2**32 - 1),
    noise=st.floats(0.01, 1.0),
)


@st.composite
def smoothing_cases(draw):
    """(y, method, parameter): a penalized method with a float parameter,
    or sg with a (window, order) pair of the comparison grid that fits y."""
    y = draw(signals)
    method = draw(st.sampled_from((*PENALIZED, "sg")))
    if method == "sg":
        grid = [p for p in COMPARISON_GRIDS["sg"] if p[0] <= y.shape[0]]
        return y, method, draw(st.sampled_from(grid))
    return y, method, draw(st.floats(1e-3, 1e3))


@settings(max_examples=150, deadline=None)
@given(
    case=smoothing_cases(),
    clip=st.booleans(),
    # max|y| * 2**k reaches up to 2**1023, the top binade of float64.
    k=st.integers(-1000, 1023),
)
@example(case=(unit_signal(200, 0, 0.3), "ps", 100.0), clip=True, k=1023)
# A signal large at its right edge, where the edge fit sums y itself.
@example(case=(unit_signal(200, 16, 0.3), "sg", (21, 6)), clip=True, k=1023)
def test_smooth_is_exactly_power_of_two_equivariant(case, clip, k):
    y, method, parameter = case
    x, lam = smooth(y, method, parameter, clip)
    if not (exact_scaling(y, k) and exact_scaling(x, k)):
        return  # 2**k y itself rounds: no exact identity to hold
    x_k, lam_k = smooth(np.ldexp(y, k), method, parameter, clip)
    assert np.array_equal(x_k, np.ldexp(x, k))
    if method == "ps":
        assert lam_k == lam == parameter
    elif method == "sg":
        assert lam_k is lam is None
    elif TINY <= lam < np.inf and TINY <= lam_k < np.inf:
        # The LSA-PS lambda is in units of y squared.
        assert lam_k == np.ldexp(lam, 2 * k)


@settings(max_examples=60, deadline=None)
@given(
    y=signals,
    method=st.sampled_from(PENALIZED),
    clip=st.booleans(),
    k=st.integers(-1000, 1023),
)
@example(y=unit_signal(200, 0, 0.3), method="ps", clip=True, k=1023)
def test_selection_is_exactly_power_of_two_equivariant(y, method, clip, k):
    base = select_parameter(y, method, clip=clip)
    if not (exact_scaling(y, k) and exact_scaling(base.smoothed, k)):
        return
    scaled = select_parameter(np.ldexp(y, k), method, clip=clip)
    assert scaled.best_parameter == base.best_parameter
    assert np.array_equal(scaled.smoothed, np.ldexp(base.smoothed, k))
    # The PS loss is in units of y, the LSA-PS loss has none.
    unit = k if method == "ps" else 0
    assert np.array_equal(scaled.curve.losses, np.ldexp(base.curve.losses, unit))


@settings(max_examples=150, deadline=None)
@given(x=signals, k=st.integers(-1000, 1023), k_peaks=st.integers(1, 20))
@example(x=alternating(200), k=1023, k_peaks=5)
def test_peaks_are_power_of_two_invariant(x, k, k_peaks):
    if not exact_scaling(x, k):
        return
    found = detect_peaks(x, k_peaks)
    scaled = detect_peaks(np.ldexp(x, k), k_peaks)
    assert [p.index for p in scaled] == [p.index for p in found]


def dense_refit(a, lam, y):
    """x of (diag(a) + lam * D^T D) x = a * y by dense elimination."""
    n = len(y)
    d = np.diff(np.eye(n), n=2, axis=0)
    return np.linalg.solve(np.diag(a) + lam * d.T @ d, a * y)


@settings(max_examples=100, deadline=None)
@given(
    y=st.builds(unit_signal, n=st.integers(8, 40), seed=st.integers(0, 2**32 - 1),
                noise=st.floats(0.05, 1.0)),
    method=st.sampled_from(PENALIZED),
    clip=st.booleans(),
    parameter=st.floats(1e-2, 1e3),
)
def test_loo_closed_form_matches_refits(y, method, clip, parameter):
    # PS leaves point i out by dropping it from the fidelity term, LSA-PS
    # by setting its curvature weight to zero; both are a zero weight.
    # y is of unit size already, as penalized_weights expects.
    a, scale = penalized_weights(y, method, clip)
    lam = parameter * scale
    system = linalg.assembler(a)(lam)
    x = linalg.solve(system, a * y)
    h = linalg.hat_diagonal(system)
    r = loo_residuals(y, x, h)
    for i in np.flatnonzero(h < 1.0 - 1e-6):
        a_drop = a.copy()
        a_drop[i] = 0.0
        refit = y[i] - dense_refit(a_drop, lam, y)[i]
        assert abs(r[i] - refit) <= 1e-8 * max(1.0, abs(refit))


@settings(max_examples=150, deadline=None)
@given(
    y=signals,
    method=st.sampled_from(PENALIZED),
    clip=st.booleans(),
    parameter=st.floats(1e-3, 1e3),
    c=st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
    b=st.floats(-1e3, 1e3),
)
def test_smooth_is_affine_equivariant(y, method, clip, parameter, c, b):
    # x(c y + b) = c x(y) + b: D^T D annihilates constants, and the LSA-PS
    # weights and penalty scale both take a factor c^2. Worst seen over
    # 3000 examples: 1.6e-12 of |c| max|y| + |b|.
    assume(math.frexp(c)[0] != 0.5)  # a power of two is exact, tested above
    x = smooth(y, method, parameter, clip)[0]
    x_cb = smooth(c * y + b, method, parameter, clip)[0]
    assert np.max(np.abs(x_cb - (c * x + b))) <= 1e-11 * (abs(c) * np.max(np.abs(y)) + abs(b))


@settings(max_examples=100, deadline=None)
@given(y=signals, method=st.sampled_from(PENALIZED), clip=st.booleans(), k=st.floats(3.0, 16.0))
def test_small_lambda_returns_y(y, method, clip, k):
    # A (y - x) = lam D^T D x, and a row of D^T D sums to at most 16 in
    # absolute value, so a_i |y_i - x_i| <= 16 lam max|x|: x -> y as lam -> 0
    # wherever a_i > 0. The slack is for rounding; worst seen over 3000
    # examples: 1.0e-17 of a_i max|y|.
    a = penalized_weights(y, method, clip)[0]  # y is of unit size already
    x, lam = smooth(y, method, 10.0**-k, clip)
    slack = 1e-15 * a * np.max(np.abs(y))
    assert np.all(a * np.abs(y - x) <= 16.0 * lam * np.max(np.abs(x)) + slack)


@settings(max_examples=100, deadline=None)
@given(y=signals, method=st.sampled_from(PENALIZED), clip=st.booleans(), k=st.floats(4.0, 8.0))
def test_large_lambda_gives_weighted_line(y, method, clip, k):
    # As lam -> inf, x tends to the A-weighted least-squares line at a
    # rate 1/lam that grows with n^4 and with the weight spread max(A) /
    # scale. Worst seen over 3000 examples: 2.0e-3 of that rate times max|y|.
    a, scale = penalized_weights(y, method, clip)
    n = y.shape[0]
    x = smooth(y, method, 10.0**k, clip)[0]
    basis = np.column_stack((np.ones(n), np.arange(n, dtype=float)))
    root = np.sqrt(a)
    line = basis @ np.linalg.lstsq(root[:, None] * basis, root * y, rcond=None)[0]
    rate = n**4 * (a.max() / scale) / 10.0**k
    assert np.max(np.abs(x - line)) <= 1e-2 * rate * np.max(np.abs(y))
