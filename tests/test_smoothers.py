import warnings

import mpmath
import numpy as np
import pytest

from lsaps.errors import (
    DegenerateSignalError,
    InvalidConfigError,
    InvalidSizeError,
    SingularSystemError,
)
from lsaps.localfit import local_quadratic_curvature
from lsaps.sim import COMPARISON_GRIDS
from lsaps.smoothers import (
    METHODS,
    penalized_weights,
    smooth,
    smooth_gaussian,
    smooth_lsa_ps,
    smooth_ps,
    smooth_savitzky_golay,
)


def dense_ps_oracle(y, lam):
    n = len(y)
    d = np.zeros((n - 2, n))
    for r in range(n - 2):
        d[r, r : r + 3] = (1.0, -2.0, 1.0)
    return np.linalg.solve(np.eye(n) + lam * d.T @ d, np.asarray(y, dtype=float))


def dense_weighted_oracle(y, a, lam):
    d = np.diff(np.eye(len(y)), n=2, axis=0)
    return np.linalg.solve(np.diag(a) + lam * d.T @ d, a * y)


def projection_oracle(y, window, order):
    """Savitzky-Golay with fit-to-window edges, as P = V (V^T V)^{-1} V^T
    in 80-digit arithmetic; V is the monomial basis on (i - h) / h."""
    mp = mpmath.mp
    h = window // 2
    n = len(y)
    m = order + 1
    with mpmath.workdps(80):
        t = [mpmath.mpf(i - h) / h for i in range(window)]
        v = [[ti**k for k in range(m)] for ti in t]
        ys = [mpmath.mpf(float(u)) for u in y]
        # Right-hand sides: V's centre row, and V^T times the first and
        # last windows of y.
        cols = [v[h]] + [
            [mp.fdot([row[k] for row in v], seg) for k in range(m)]
            for seg in (ys[:window], ys[n - window :])
        ]
        # V^T V is the Hankel matrix of the moments of t; it is SPD, so
        # elimination needs no pivoting.
        moments = [mp.fsum(ti**p for ti in t) for p in range(2 * m - 1)]
        a = [[moments[j + k] for k in range(m)] + [c[j] for c in cols] for j in range(m)]
        for p in range(m):
            for r in range(p + 1, m):
                f = a[r][p] / a[p][p]
                a[r] = [x - f * u for x, u in zip(a[r], a[p])]
        sol = [[None] * m for _ in cols]
        for r in reversed(range(m)):
            for c in range(len(cols)):
                sol[c][r] = (a[r][m + c] - mp.fdot(a[r][r + 1 : m], sol[c][r + 1 :])) / a[r][r]
        kernel = [mp.fdot(row, sol[0]) for row in v]
        out = np.empty(n)
        out[h : n - h] = [float(mp.fdot(kernel, ys[i : i + window])) for i in range(n - window + 1)]
        out[:h] = [float(mp.fdot(v[i], sol[1])) for i in range(h)]
        out[n - h :] = [float(mp.fdot(v[i], sol[2])) for i in range(h + 1, window)]
        return out


def lorentzian_plus_noise(n, seed):
    t = np.arange(n, dtype=float)
    clean = 5.0 / (1.0 + ((t - 0.4 * n) / 3.0) ** 2) + 2.0 / (1.0 + ((t - 0.9 * n) / 1.5) ** 2)
    return clean + 0.1 * np.random.default_rng(seed).standard_normal(n)


SG_WINDOWS = sorted({w for w, _ in COMPARISON_GRIDS["sg"] if w > 1})


class TestPs:
    def test_impulse_n3(self):
        assert np.allclose(
            smooth_ps([0.0, 1.0, 0.0], 1.0), [2 / 7, 3 / 7, 2 / 7], atol=1e-14
        )

    def test_lambda_zero_identity(self):
        y = np.random.default_rng(0).standard_normal(30)
        assert np.array_equal(smooth_ps(y, 0.0), y)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for lam in (0.01, 1.0, 100.0):
            y = rng.standard_normal(150)
            x = smooth_ps(y, lam)
            x_dense = dense_ps_oracle(y, lam)
            assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)

    def test_preserves_line_exactly(self):
        t = np.arange(40, dtype=float)
        y = 3.0 * t - 7.0
        assert np.allclose(smooth_ps(y, 50.0), y, atol=1e-9)

    def test_reduces_roughness(self):
        rng = np.random.default_rng(2)
        y = np.sin(np.linspace(0, 6, 200)) + 0.3 * rng.standard_normal(200)
        x = smooth_ps(y, 10.0)
        assert np.linalg.norm(np.diff(x, 2)) < np.linalg.norm(np.diff(y, 2))

    def test_mean_preserving_direction(self):
        # Smoothing shrinks toward the penalty null space but keeps scale.
        y = np.random.default_rng(3).standard_normal(100) + 5.0
        x = smooth_ps(y, 5.0)
        assert abs(x.mean() - y.mean()) < 0.1

    def test_rejects_non_finite_input(self):
        y = np.random.default_rng(4).standard_normal(20)
        with pytest.raises(ValueError, match="lam must be finite"):
            smooth_ps(y, np.nan)
        y[7] = np.nan
        with pytest.raises(ValueError, match="rhs must be finite"):
            smooth_ps(y, 1.0)


class TestLsaPs:
    def test_returns_pair(self):
        y = np.random.default_rng(4).standard_normal(50)
        x, lam = smooth_lsa_ps(y, 1.0)
        assert x.shape == y.shape
        # Clipping is on by default.
        assert np.array_equal(x, smooth_lsa_ps(y, 1.0, clip=True)[0])
        assert lam == pytest.approx(np.median(local_quadratic_curvature(y)))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(120)
        x, lam = smooth_lsa_ps(y, 2.5)
        raw = local_quadratic_curvature(y)
        x_dense = dense_weighted_oracle(y, np.minimum(raw, np.median(raw)), lam)
        assert np.linalg.norm(x - x_dense) <= 1e-9 * max(1.0, np.linalg.norm(x_dense))

    def test_lambda_scaling_uses_pre_clip_median(self):
        y = np.random.default_rng(6).standard_normal(80)
        raw = local_quadratic_curvature(y)
        _, lam = smooth_lsa_ps(y, 3.0, clip=True)
        assert lam == pytest.approx(3.0 * np.median(raw))
        assert lam == smooth_lsa_ps(y, 3.0, clip=False)[1]

    def test_clip_off(self):
        y = np.random.default_rng(7).standard_normal(80)
        x, lam = smooth_lsa_ps(y, 1.0, clip=False)
        x_dense = dense_weighted_oracle(y, local_quadratic_curvature(y), lam)
        assert np.linalg.norm(x - x_dense) <= 1e-9 * max(1.0, np.linalg.norm(x_dense))
        assert not np.array_equal(x, smooth_lsa_ps(y, 1.0, clip=True)[0])

    def test_lambda_bar_zero_is_identity(self):
        # All weights positive for generic noise, so A x = A y gives x = y.
        y = np.random.default_rng(8).standard_normal(60)
        x, lam = smooth_lsa_ps(y, 0.0)
        assert lam == 0.0
        assert np.allclose(x, y, atol=1e-12)

    def test_affine_signal_degenerate(self):
        # Integer-valued ramp: curvature is exactly zero in floating point.
        with pytest.raises(DegenerateSignalError):
            smooth_lsa_ps(np.arange(30.0), 1.0)

    def test_flat_baseline_peak_is_not_called_affine(self):
        # Curved, but flat on most points: the median weight is zero.
        y = np.zeros(200)
        y[100:110] = [1, 3, 6, 9, 10, 9, 6, 3, 1, 0.5]
        with pytest.raises(DegenerateSignalError, match="median curvature weight is zero"):
            smooth_lsa_ps(y, 1.0)

    def test_zero_weight_with_zero_lambda(self):
        # One locally-affine stretch zeroes a weight; lam = 0 then fails.
        y = np.concatenate([np.arange(10.0), np.arange(10.0) ** 2 + 9.0])
        with pytest.raises(SingularSystemError):
            smooth_lsa_ps(y, 0.0)

    def test_negative_lambda_bar(self):
        with pytest.raises(ValueError):
            smooth_lsa_ps(np.random.default_rng(9).standard_normal(20), -1.0)

    def test_rejects_non_finite_input(self):
        y = np.sin(np.linspace(0, 6, 40))
        y[5] = np.nan
        # Match the message: DegenerateSignalError is a ValueError too.
        with pytest.raises(ValueError, match="y must be finite, got nan at index 5"):
            smooth_lsa_ps(y, 1.0)

    def test_rejects_2d_input(self):
        y = np.random.default_rng(11).standard_normal((20, 3))
        for smooth in (smooth_ps, lambda y, lam: smooth_lsa_ps(y, lam)[0]):
            with pytest.raises(ValueError, match="y must be 1-d"):
                smooth(y, 1.0)

    def test_scale_shift_equivariance(self):
        y = np.random.default_rng(10).standard_normal(90)
        x, _ = smooth_lsa_ps(y, 2.0)
        x2, _ = smooth_lsa_ps(3.0 * y + 11.0, 2.0)
        assert np.allclose(x2, 3.0 * x + 11.0, atol=1e-9)

    def test_in_range_weights_and_lambda_are_exact(self):
        # The weights are taken on y scaled by a power of two; in range,
        # scaling them back is exact, so they equal the unscaled ones.
        y = 1e6 * np.random.default_rng(15).standard_normal(80)
        raw = local_quadratic_curvature(y)
        median = np.median(raw)
        a, scale, e = penalized_weights(y, "lsa-ps")
        assert np.array_equal(np.ldexp(a, 2 * e), np.minimum(raw, median))
        assert np.ldexp(scale, 2 * e) == median
        assert smooth_lsa_ps(y, 3.0)[1] == 3.0 * median

    @pytest.mark.parametrize("factor", [2.0**660, 2.0**-600], ids=["2**660", "2**-600"])
    def test_extreme_scale_is_exactly_equivariant(self, factor):
        # Squared curvature overflows beyond about 1e154 and underflows
        # below about 1e-154; the fit must not depend on it.
        y = np.sin(np.linspace(0, 6, 200)) + 0.1 * np.random.default_rng(16).standard_normal(200)
        x, _ = smooth_lsa_ps(y, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_scaled, _ = smooth_lsa_ps(y * factor, 1.0)
        assert np.array_equal(x_scaled, x * factor)

    def test_overflow_scale_data(self):
        y = np.sin(np.linspace(0, 6, 200)) + 0.1 * np.random.default_rng(17).standard_normal(200)
        x, _ = smooth_lsa_ps(y, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_big, lam = smooth_lsa_ps(y * 1e200, 1.0)
        assert np.max(np.abs(x_big / 1e200 - x)) <= 1e-14 * np.max(np.abs(x))
        # In units of y squared the penalty itself does not fit a float64.
        assert lam == np.inf


class TestSavitzkyGolay:
    def test_window_one_is_copy(self):
        y = np.random.default_rng(11).standard_normal(10)
        x = smooth_savitzky_golay(y, 1, 0)
        assert np.array_equal(x, y) and x is not y

    def test_interior_impulse_kernel(self):
        # Classic 5-point quadratic SG kernel (-3, 12, 17, 12, -3)/35,
        # read off the interior columns of the impulse response.
        y = np.zeros(15)
        y[7] = 1.0
        x = smooth_savitzky_golay(y, 5, 2)
        assert np.allclose(x[5:10], np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0, atol=1e-12)

    def test_reproduces_polynomial(self):
        t = np.arange(30, dtype=float)
        y = 0.5 * t**2 - t + 2.0
        assert np.allclose(smooth_savitzky_golay(y, 7, 2), y, atol=1e-9)

    def test_interpolating_order_is_copy(self):
        y = np.random.default_rng(12).standard_normal(40)
        for window in (3, 9, 35):
            x = smooth_savitzky_golay(y, window, window - 1)
            assert np.array_equal(x, y) and x is not y

    @pytest.mark.parametrize("window", SG_WINDOWS)
    def test_matches_projection_oracle(self, window):
        y = lorentzian_plus_noise(80, window)
        scale = np.abs(y).max()
        for order in sorted({1, 2, window // 2, window - 3, window - 2}):
            if 1 <= order < window:
                expected = projection_oracle(y, window, order)
                err = np.abs(smooth_savitzky_golay(y, window, order) - expected)
                assert err.max() <= 1e-8 * scale, (window, order, err.max() / scale)

    def test_matches_scipy_at_low_order(self):
        # scipy.signal is a reference here only; the library never imports it.
        from scipy.signal import savgol_filter

        y = lorentzian_plus_noise(200, 13)
        scale = np.abs(y).max()
        for window in SG_WINDOWS:
            for order in range(1, min(3, window - 1) + 1):
                expected = savgol_filter(y, window, order, mode="interp")
                err = np.abs(smooth_savitzky_golay(y, window, order) - expected).max()
                assert err <= 1e-12 * scale, (window, order, err / scale)

    def test_comparison_grid_raises_no_warning(self):
        y = lorentzian_plus_noise(500, 14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for window, order in COMPARISON_GRIDS["sg"]:
                smooth_savitzky_golay(y, window, order)

    def test_near_max_scale_fits_at_unit_size(self):
        # max|y| = 1.7e308: the edge fits summed y itself and overflowed;
        # the fit of y * 2**-1024, scaled back, is finite.
        y = np.sin(np.arange(200) / 10.0) + 0.1 * np.random.default_rng(0).standard_normal(200)
        y *= 1.7e308 / np.abs(y).max()
        x = smooth_savitzky_golay(y, 21, 6)
        assert np.isfinite(x).all()
        assert np.array_equal(x, np.ldexp(smooth_savitzky_golay(np.ldexp(y, -1024), 21, 6), 1024))

    def test_bad_window(self):
        y = np.ones(20)
        with pytest.raises(InvalidConfigError):
            smooth_savitzky_golay(y, 4, 2)
        with pytest.raises(InvalidConfigError):
            smooth_savitzky_golay(y, -3, 2)

    def test_bad_order(self):
        y = np.ones(20)
        with pytest.raises(InvalidConfigError):
            smooth_savitzky_golay(y, 5, 5)
        with pytest.raises(InvalidConfigError):
            smooth_savitzky_golay(y, 5, 0)

    def test_short_signal(self):
        with pytest.raises(InvalidSizeError):
            smooth_savitzky_golay(np.ones(5), 7, 2)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="y must be 1-d"):
            smooth_savitzky_golay(np.ones((3, 40)), 5, 2)


class TestGaussian:
    def test_window_one_is_copy(self):
        y = np.random.default_rng(12).standard_normal(10)
        x = smooth_gaussian(y, 1)
        assert np.array_equal(x, y) and x is not y

    def test_constant_preserved_including_edges(self):
        # Edge renormalization keeps constants exact everywhere.
        y = np.full(25, 4.2)
        assert np.allclose(smooth_gaussian(y, 9), y, atol=1e-12)

    def test_matches_direct_convolution_interior(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal(60)
        window = 7
        x = smooth_gaussian(y, window)
        sigma = window / 5.0
        pos = np.arange(window) - (window - 1) / 2.0
        kernel = np.exp(-0.5 * (pos / sigma) ** 2)
        kernel /= kernel.sum()
        full = np.convolve(y, kernel, mode="same")
        half = window // 2
        assert np.allclose(x[half:-half], full[half:-half], atol=1e-12)

    def test_reduces_variance(self):
        y = np.random.default_rng(14).standard_normal(500)
        assert smooth_gaussian(y, 9).var() < y.var()

    def test_bad_window(self):
        with pytest.raises(InvalidConfigError):
            smooth_gaussian(np.ones(10), 0)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="y must be 1-d"):
            smooth_gaussian(np.ones((3, 40)), 5)


class TestSmooth:
    def test_none_is_identity_copy(self):
        y = np.random.default_rng(2).standard_normal(20)
        out, lam = smooth(y, "none", None)
        assert np.array_equal(out, y) and out is not y and lam is None

    def test_dispatch(self):
        # Each method against its direct smoother call, bit for bit, with
        # the effective lambda: lam itself for PS, none for the baselines.
        y = np.random.default_rng(3).standard_normal(60)
        for clip in (True, False):
            x, lam = smooth_lsa_ps(y, 2.0, clip=clip)
            got, got_lam = smooth(y, "lsa-ps", 2.0, clip)
            assert np.array_equal(got, x) and got_lam == lam
        expected = {
            "ps": (2.0, smooth_ps(y, 2.0), 2.0),
            "sg": ((5, 2), smooth_savitzky_golay(y, 5, 2), None),
            "gaussian": (5, smooth_gaussian(y, 5), None),
            "none": (None, y, None),
        }
        assert {*expected, "lsa-ps"} == {*METHODS, "none"}
        for method, (parameter, x, lam) in expected.items():
            got, got_lam = smooth(y, method, parameter)
            assert np.array_equal(got, x) and got_lam == lam, method
        with pytest.raises(ValueError, match="unknown method"):
            smooth(y, "median", 3)
