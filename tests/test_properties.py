"""Property tests of the paper's identities for the penalized smoothers.

- Exact power-of-two equivariance: every penalized fit runs on y scaled
  to unit size, so y * 2**k smooths to exactly x * 2**k, up to the edge
  of the float64 range.
- The closed-form leave-one-out residuals equal brute-force refits with
  the left-out point's weight set to zero.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsaps import linalg
from lsaps.select import loo_residuals, select_parameter
from lsaps.smoothers import PENALIZED, penalized_fit, penalized_weights, smooth

TINY = np.finfo(float).tiny


def unit_signal(n, seed, noise):
    """A noisy sinusoid scaled by a power of two so max|y| is in [0.5, 1)."""
    rng = np.random.default_rng(seed)
    y = np.sin(np.linspace(0.0, rng.uniform(3.0, 30.0), n)) + noise * rng.standard_normal(n)
    return np.ldexp(y, -int(np.frexp(np.max(np.abs(y)))[1]))


def exact_scaling(v, k):
    """Whether v * 2**k is exact: no entry lands in the subnormal range."""
    return np.array_equal(np.ldexp(np.ldexp(v, k), -k), v)


signals = st.builds(
    unit_signal,
    n=st.integers(20, 120),
    seed=st.integers(0, 2**32 - 1),
    noise=st.floats(0.01, 1.0),
)


@settings(max_examples=150, deadline=None)
@given(
    y=signals,
    method=st.sampled_from(PENALIZED),
    clip=st.booleans(),
    parameter=st.floats(1e-3, 1e3),
    # max|y| * 2**k reaches up to 2**1023, the top binade of float64.
    k=st.integers(-1000, 1023),
)
@example(y=unit_signal(200, 0, 0.3), method="ps", clip=True, parameter=100.0, k=1023)
def test_smooth_is_exactly_power_of_two_equivariant(y, method, clip, parameter, k):
    x, lam = smooth(y, method, parameter, clip)
    if not (exact_scaling(y, k) and exact_scaling(x, k)):
        return  # 2**k y itself rounds: no exact identity to hold
    x_k, lam_k = smooth(np.ldexp(y, k), method, parameter, clip)
    assert np.array_equal(x_k, np.ldexp(x, k))
    if method == "ps":
        assert lam_k == lam == parameter
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
    a, scale, e = penalized_weights(y, method, clip)
    lam = parameter * scale
    x, system = penalized_fit(y, a, lam, e)
    h = linalg.hat_diagonal(system)
    r = loo_residuals(y, x, h)
    for i in np.flatnonzero(h < 1.0 - 1e-6):
        a_drop = a.copy()
        a_drop[i] = 0.0
        refit = y[i] - dense_refit(a_drop, lam, y)[i]
        assert abs(r[i] - refit) <= 1e-8 * max(1.0, abs(refit))
