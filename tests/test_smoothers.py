import math
import warnings

import mpmath
import numpy as np
import pytest

from lsaps.errors import (
    DegenerateSignalError,
    InvalidConfigError,
    InvalidInputError,
    InvalidSizeError,
    LsapsError,
    ResultOverflowError,
    SingularSystemError,
)
from lsaps.localfit import local_quadratic_curvature
from lsaps.sim import COMPARISON_GRIDS
from lsaps.smoothers import (
    METHODS,
    SG_SHARED_TOP,
    from_unit,
    grid_plan,
    penalized_weights,
    smooth,
    smooth_gaussian,
    smooth_lsa_ps,
    smooth_ps,
    smooth_savitzky_golay,
    to_unit,
)


def grid_results(y, method, grid, clip=True):
    """The results of a ``grid_plan`` run on y, one per parameter, in grid order."""
    return [result for _, results in grid_plan(len(y), method, grid, clip)(y) for result in results]


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
        with pytest.raises(ValueError, match="y must be finite, got nan at index 7"):
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
        # numpy's bools are bools (errors.boolean).
        assert np.array_equal(x, smooth_lsa_ps(y, 1.0, clip=np.False_)[0])

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
        y_unit, e = to_unit(y)
        a, scale = penalized_weights(y_unit, "lsa-ps")
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

    @pytest.mark.parametrize("n", [1, 5, 60])
    def test_plan_is_the_per_signal_convolution(self, n):
        # A plan's kernels, offsets and edge normalisations, made once per
        # length, give the bits of the convolution built for each signal,
        # and each bad window its own error, in grid order. The kernel is
        # normalised over the taps that reach the signal, |off| < n: every
        # tap of a window below 2n, so only windows 10 and 61 at n = 5 lose
        # taps.
        def convolve(y, window):
            if window == 1 or n == 1:
                return y
            positions = np.arange(window) - (window - 1) / 2.0
            offsets = np.arange(window) - window // 2
            reach = np.abs(offsets) < n
            kernel = np.exp(-0.5 * (positions[reach] / (window / 5.0)) ** 2)
            kernel /= kernel.sum()
            out, norm = np.zeros(n), np.zeros(n)
            for coeff, off in zip(kernel, offsets[reach]):
                lo, hi = max(0, -off), min(n, n - off)
                out[lo:hi] += coeff * y[lo + off : hi + off]
                norm[lo:hi] += coeff
            return out / norm

        grid = [*COMPARISON_GRIDS["gaussian"], 2.5, 0, -3, 5.0, 61]
        failures = {10: "window must be an integer, got 2.5", 11: "window must be >= 1, got 0",
                    12: "window must be >= 1, got -3", 13: "window must be an integer, got 5.0"}
        plan = grid_plan(n, "gaussian", grid)
        for seed in (34, 35):
            y = np.random.default_rng(seed).standard_normal(n)
            [(_, results)] = plan(y)
            for i, (window, result) in enumerate(zip(grid, results, strict=True)):
                if i in failures:
                    assert type(result) is InvalidConfigError and str(result) == failures[i]
                else:
                    assert result[0].tobytes() == convolve(y, window).tobytes(), window

    @pytest.mark.parametrize("window", [10**9, 10**9 + 1])
    def test_window_far_wider_than_n_builds_only_the_taps_that_reach(self, window):
        # At most 2n - 1 taps, not a window-long kernel: 10**9 taps would be
        # 8 GB. The result is each point's directly renormalised weighted mean.
        import tracemalloc

        n = 50
        y = np.random.default_rng(15).standard_normal(n)
        tracemalloc.start()
        try:
            x = smooth_gaussian(y, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak
        # Point j lies at off = j - i from output point i.
        distance = np.arange(n) - np.arange(n)[:, None] + (window + 1) % 2 / 2
        weights = np.exp(-0.5 * (distance / (window / 5.0)) ** 2)
        assert np.allclose(x, weights @ y / weights.sum(axis=1), rtol=0, atol=1e-12)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="y must be 1-d"):
            smooth_gaussian(np.ones((3, 40)), 5)


# A square wave at the float64 limit: smoothing overshoots its edges.
_t = np.arange(200)
SQUARE_AT_MAX = np.finfo(float).max * (
    0.97 * np.where(_t // 40 % 2 == 0, 1.0, -1.0) + 0.03 * np.sin(1.7 * _t))


class TestSmooth:
    def test_identity_controls_copy_y(self):
        # sg (1, 0) and gaussian 1, the comparison grids' identity controls,
        # return a copy of y; "none" is not a method.
        y = np.random.default_rng(2).standard_normal(20)
        for method, parameter in (("sg", (1, 0)), ("gaussian", 1)):
            out, lam = smooth(y, method, parameter)
            assert np.array_equal(out, y) and out is not y and lam is None
        with pytest.raises(InvalidConfigError, match="^unknown method 'none'$"):
            smooth(y, "none", None)

    def test_int_array_is_its_float_array(self):
        # An int y is taken as the floats it holds.
        assert smooth_ps(np.arange(10), 1.0).tobytes() == smooth_ps(np.arange(10.0), 1.0).tobytes()

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
        }
        assert {*expected, "lsa-ps"} == set(METHODS)
        for method, (parameter, x, lam) in expected.items():
            got, got_lam = smooth(y, method, parameter)
            assert np.array_equal(got, x) and got_lam == lam, method
        with pytest.raises(InvalidConfigError, match="unknown method 'median'"):
            smooth(y, "median", 3)

    @pytest.mark.parametrize("method, parameter, message", [
        ("sg", (5.0, 2), "window must be an integer, got 5.0"),
        ("sg", (5, 2.0), "poly_order must be an integer, got 2.0"),
        ("gaussian", 2.5, "window must be an integer, got 2.5"),
        ("gaussian", np.float64(5.0), "window must be an integer, got 5.0"),
    ], ids=["sg-window", "sg-order", "gaussian", "gaussian-numpy-float"])
    def test_windows_and_orders_are_integers(self, method, parameter, message):
        # A config error, not a TypeError from slicing; numpy integers are integers.
        y = np.random.default_rng(4).standard_normal(40)
        with pytest.raises(InvalidConfigError, match=f"^{message}$"):
            smooth(y, method, parameter)
        exact = (5, 2) if method == "sg" else 5
        numpy_ints = tuple(map(np.int64, exact)) if method == "sg" else np.int64(exact)
        assert np.array_equal(smooth(y, method, numpy_ints)[0], smooth(y, method, exact)[0])


class TestSmoothGrid:
    @pytest.mark.parametrize("shuffle", [False, True], ids=["grid-order", "shuffled"])
    def test_sg_matches_single_calls_bit_for_bit(self, shuffle):
        # Every (window, order) of the comparison grid, (1, 0) and the
        # interpolating orders among them; shuffled, the windows interleave
        # and each run of one window builds its own block.
        grid = list(COMPARISON_GRIDS["sg"])
        assert (1, 0) in grid and (35, 34) in grid
        if shuffle:
            grid = [grid[i] for i in np.random.default_rng(0).permutation(len(grid))]
        y = lorentzian_plus_noise(500, 21)
        for (window, order), fit in zip(grid, grid_results(y, "sg", grid), strict=True):
            x, lam = fit
            assert lam is None
            assert np.array_equal(x, smooth_savitzky_golay(y, window, order)), (window, order)

    def test_sg_orders_beyond_the_shared_basis(self):
        # Above SG_SHARED_TOP an order has a basis of its own; the orders
        # up to it share one, whatever else the grid holds.
        window = 2 * SG_SHARED_TOP + 15
        grid = [(window, o) for o in (2, SG_SHARED_TOP, SG_SHARED_TOP + 1, SG_SHARED_TOP + 9)]
        y = lorentzian_plus_noise(400, 22)
        for (w, o), (x, _) in zip(grid, grid_results(y, "sg", grid), strict=True):
            assert np.array_equal(x, smooth_savitzky_golay(y, w, o)), o

    @pytest.mark.parametrize("method", ["ps", "lsa-ps", "gaussian"])
    def test_matches_smooth_bit_for_bit(self, method):
        grid = COMPARISON_GRIDS[method]
        y = lorentzian_plus_noise(300, 23)
        for clip in (True, False):
            for parameter, (x, lam) in zip(grid, grid_results(y, method, grid, clip), strict=True):
                expected, expected_lam = smooth(y, method, parameter, clip)
                assert np.array_equal(x, expected) and lam == expected_lam, parameter

    @pytest.mark.parametrize(
        "y, method, grid",
        [
            # Per-parameter checks: even window, order >= window, order 0,
            # a window wider than the signal and a negative window.
            (np.sin(np.arange(50) / 4.0), "sg", [(5, 2), (4, 2), (5, 5), (5, 0), (61, 2), (-1, 2), (5, 4)]),
            (np.sin(np.arange(50) / 4.0), "ps", [1.0, -1.0, math.nan, math.inf]),
            (np.sin(np.arange(50) / 4.0), "gaussian", [3, 0, 1]),
            # The median curvature weight is zero: every lambda_bar but the
            # negative one, whose check comes first, shares the failure.
            (np.r_[1.0, np.zeros(49)], "lsa-ps", [1.0, -1.0, 0.0]),
            # Non-finite y, checked before any lambda_bar: the plan raises
            # the error that smooth raises for every parameter.
            (np.r_[np.nan, np.zeros(49)], "lsa-ps", [1.0, -1.0]),
            (np.r_[np.nan, np.zeros(49)], "sg", [(5, 2), (4, 2)]),
            # An unknown method, checked before y, raised as the plan is made.
            (np.r_[np.nan, np.zeros(49)], "none", [None]),
            (np.zeros(50), "median", [3, 5]),
            # One Savitzky-Golay block whose orders 2 and 6 overshoot
            # beyond float64 while order 1 and the copy at order 20 fit.
            (SQUARE_AT_MAX, "sg", [(21, 1), (21, 6), (21, 20), (21, 2), (3, 1)]),
        ],
    )
    def test_errors_match_smooth(self, y, method, grid):
        try:
            fits = grid_results(y, method, grid)
        except LsapsError as exc:  # raised by grid_plan or by its plan
            fits = [exc] * len(grid)
        seen = set()
        for parameter, fit in zip(grid, fits, strict=True):
            try:
                expected = smooth(y, method, parameter)
            except Exception as exc:
                assert isinstance(fit, Exception), parameter
                assert (type(fit), str(fit)) == (type(exc), str(exc)), parameter
                seen.add(type(exc))
            else:
                assert not isinstance(fit, Exception), parameter
                assert np.array_equal(fit[0], expected[0]), parameter
        assert seen

    @pytest.mark.parametrize("method", ["ps", "lsa-ps", "sg", "gaussian", "none"])
    def test_blocks_stack_their_good_fits(self, method):
        # Row i of a block's stack is the x of its i-th good result, the
        # same memory; the blocks' results are smooth's, in grid order.
        # "none" is not a method: no plan is made, with smooth's error.
        grid = list(COMPARISON_GRIDS.get(method, [None]))
        if method == "sg":
            grid += [(61, 2), (7, 3), (5, 0)]  # failures among the fits
        y = lorentzian_plus_noise(60, 25)
        if method == "none":
            for call in (lambda: grid_plan(60, method, grid), lambda: smooth(y, method, None)):
                with pytest.raises(InvalidConfigError, match="^unknown method 'none'$"):
                    call()
            return
        results = []
        for stack, block in grid_plan(60, method, grid)(y):
            good = [r for r in block if not isinstance(r, Exception)]
            assert stack.shape == (len(good), 60) if good else stack.size == 0
            for row, (x, _) in zip(stack, good, strict=True):
                assert np.shares_memory(row, x) and np.array_equal(row, x)
            results += block
        for parameter, result in zip(grid, results, strict=True):
            try:
                expected = smooth(y, method, parameter)
            except Exception as exc:
                assert (type(result), str(result)) == (type(exc), str(exc)), parameter
            else:
                assert np.array_equal(result[0], expected[0]), parameter

    def test_sg_blocks_are_window_runs(self):
        # One block per (window, top) run of the comparison grid, the copy
        # at order window - 1 in its window's block; (1, 0) joins the last.
        grid = COMPARISON_GRIDS["sg"]
        sizes = [len(block) for _, block in grid_plan(100, "sg", grid)(lorentzian_plus_noise(100, 26))]
        assert sizes == [w - 1 for w in range(3, 36, 2)][:-1] + [35]
        assert sum(sizes) == len(grid)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_sg_chunks_change_no_fit(self, monkeypatch, chunk):
        # The interior product taken in chunks of other sizes: each order's
        # fit stays within rounding of the default (worst seen 3.9e-16 of
        # max|x|, at chunk 1), and a grid fit and a lone fit stay the same
        # bits, since both take the chunks at the same offsets.
        from lsaps import smoothers

        y = lorentzian_plus_noise(300, 27)
        grid = [(w, o) for w in (5, 21, 35) for o in (1, 2, w // 2, w - 2)]
        default = [x for x, _ in grid_results(y, "sg", grid)]
        monkeypatch.setattr(smoothers, "SG_CHUNK", chunk)
        for (window, order), x, (got, _) in zip(grid, default, grid_results(y, "sg", grid), strict=True):
            assert np.abs(got - x).max() <= 4e-15 * np.abs(x).max(), (window, order)
            assert np.array_equal(got, smooth_savitzky_golay(y, window, order))

    @pytest.mark.parametrize("n, chunk", [(40, None), (500, None), (1000, None),
                                          (300, 1), (300, 7), (300, 64)])
    def test_window_matrix_product_is_the_sliding_window_product(self, monkeypatch, n, chunk):
        # Every comparison-grid window's interior product, all orders, read
        # from one window matrix as wide as the grid's widest window: the
        # bits of the kernels times the transposed sliding windows of the
        # same chunk, which this window matrix replaced.
        from numpy.lib.stride_tricks import sliding_window_view

        from lsaps import smoothers

        if chunk is not None:
            monkeypatch.setattr(smoothers, "SG_CHUNK", chunk)
        y_unit = to_unit(lorentzian_plus_noise(n, 33))[0]
        windows = smoothers._sg_windows(y_unit, 35)
        for window in sorted({w for w, _ in COMPARISON_GRIDS["sg"] if w > 1}):
            top = smoothers._sg_top(window, 1)
            kernels = smoothers._sg_basis(window, top)[1]
            h = window // 2
            stack = np.zeros((top + 1, n))
            smoothers._sg_fill(stack, slice(None), y_unit, windows, window, top, slice(None))
            for start in range(h, n - h, smoothers.SG_CHUNK):
                stop = min(start + smoothers.SG_CHUNK, n - h)
                expected = kernels @ sliding_window_view(y_unit[start - h : stop + h], window).T
                assert stack[:, start:stop].tobytes() == expected.tobytes(), (window, start)

    def test_lone_sg_fit_holds_one_chunk(self, monkeypatch):
        # A lone fit holds one (top + 1)-row chunk of the interior product,
        # not a (top + 1)-row copy of y: 34 x 40000 floats would be 10.9 MB.
        import tracemalloc

        from lsaps import smoothers

        monkeypatch.setattr(smoothers, "SG_CHUNK", 1000)
        n = 40_000
        y = lorentzian_plus_noise(n, 28)
        smooth_savitzky_golay(y, 35, 6)  # the basis is cached before tracing
        tracemalloc.start()
        try:
            smooth_savitzky_golay(y, 35, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * n * 8 + 3 * 34 * 1000 * 8, peak

    def test_lsa_ps_weights_are_taken_once(self, monkeypatch):
        from lsaps import smoothers

        calls = []
        original = smoothers.penalized_weights
        monkeypatch.setattr(smoothers, "penalized_weights",
                            lambda *args: calls.append(1) or original(*args))
        results = list(grid_results(lorentzian_plus_noise(200, 24), "lsa-ps", COMPARISON_GRIDS["lsa-ps"]))
        assert len(results) == len(COMPARISON_GRIDS["lsa-ps"]) and len(calls) == 1

    def test_ps_unit_weights_are_built_once(self, monkeypatch):
        from lsaps import linalg

        seen = []
        original = linalg.assembler
        monkeypatch.setattr(linalg, "assembler",
                            lambda weights: seen.append(weights) or original(weights))
        results = list(grid_results(lorentzian_plus_noise(200, 24), "ps", COMPARISON_GRIDS["ps"]))
        assert len(results) == len(COMPARISON_GRIDS["ps"]) and len(seen) == 1
        assert np.array_equal(seen[0], np.ones(200))


def assert_same_blocks(got, expected):
    """Two plan runs yield the same blocks: the same stack bits and, per
    parameter, the same x bits and lambda, or an exception of the same
    type and message."""
    got, expected = list(got), list(expected)
    assert len(got) == len(expected)
    for (stack, results), (stack_0, results_0) in zip(got, expected):
        assert stack.shape == stack_0.shape and stack.tobytes() == stack_0.tobytes()
        for result, result_0 in zip(results, results_0, strict=True):
            if isinstance(result_0, Exception):
                assert (type(result), str(result)) == (type(result_0), str(result_0))
            else:
                assert result[0].tobytes() == result_0[0].tobytes() and result[1] == result_0[1]


class TestGridPlan:
    # Parameters that fail among each method's grid: a window wider than
    # n, an even window, a negative and a NaN lambda, a zero window; "none"
    # and "median" are unknown methods.
    FAILING = {"sg": [(61, 2), (4, 2)], "ps": [-1.0, math.nan], "lsa-ps": [-1.0, math.nan],
               "gaussian": [0], "none": [], "median": []}

    @pytest.mark.parametrize("method", [*COMPARISON_GRIDS, "none", "median"])
    def test_plan_is_grid_blocks(self, method):
        # One plan run on three signals of one length: each run yields the
        # blocks of a fresh plan for its signal, bit for bit, with their
        # errors, so PS's kept factors and failing lambdas and Savitzky-
        # Golay's checks and runs serve every signal alike and carry
        # nothing from one signal to the next. An unknown method is
        # raised when the plan is made, before any y.
        grid = [*COMPARISON_GRIDS.get(method, [None]), *self.FAILING[method]]
        if method not in METHODS:
            with pytest.raises(InvalidConfigError, match=f"^unknown method '{method}'$"):
                grid_plan(60, method, grid)
            return
        plan = grid_plan(60, method, grid)
        for y in (lorentzian_plus_noise(60, 27), lorentzian_plus_noise(60, 28),
                  lorentzian_plus_noise(60, 29)):
            assert_same_blocks(plan(y), grid_plan(60, method, grid)(y))

    @pytest.mark.parametrize("method", METHODS)
    def test_plan_raises_for_non_finite_y(self, method):
        plan = grid_plan(60, method, COMPARISON_GRIDS[method])
        y = lorentzian_plus_noise(60, 30)
        y[7] = np.nan
        with pytest.raises(InvalidInputError, match="^y must be finite, got nan at index 7$"):
            plan(y)

    def test_ps_plan_assembles_each_good_lam_once(self, monkeypatch):
        # Three signals, one factor per good lambda; lam = 1e308 overflows
        # the system's band and fails again, with its message, per signal.
        from lsaps import linalg

        lams = []
        original = linalg.assembler

        def assembler(weights):
            assemble = original(weights)
            return lambda lam: lams.append(lam) or assemble(lam)

        monkeypatch.setattr(linalg, "assembler", assembler)
        grid = [*COMPARISON_GRIDS["ps"], 1e308]
        plan = grid_plan(60, "ps", grid)
        failures = []
        for seed in (27, 28, 29):
            [(_, results)] = plan(lorentzian_plus_noise(60, seed))
            failures += [(type(r), str(r)) for r in results if isinstance(r, Exception)]
        assert sorted(lams) == sorted([*COMPARISON_GRIDS["ps"], 1e308, 1e308, 1e308])
        assert failures == [(InvalidConfigError, "lam = 1e+308 is too large: entries of "
                             "M = diag(weights) + lam * D^T D overflow float64")] * 3

    def test_plan_keys_parameters_by_position(self):
        # (5, 2) == (5.0, 2) as values; the second is no window.
        grid = [(5, 2), (5.0, 2)]
        y = lorentzian_plus_noise(40, 31)
        [(_, [(x, _), error])] = grid_plan(40, "sg", grid)(y)
        assert np.array_equal(x, smooth_savitzky_golay(y, 5, 2))
        assert type(error) is InvalidConfigError
        assert str(error) == "window must be an integer, got 5.0"

    def test_plan_takes_signals_of_its_length(self):
        plan = grid_plan(40, "ps", [1.0])
        with pytest.raises(InvalidSizeError, match="^the plan smooths signals of length 40, got 41$"):
            plan(lorentzian_plus_noise(41, 32))


# A parameter of each method that fails its own check.
BAD_PARAMETER = {"sg": (4, 2), "gaussian": 0, "ps": -1.0, "lsa-ps": -1.0}


class TestUnitScale:
    @pytest.mark.parametrize("method, parameter", [
        ("sg", (5, 2)), ("gaussian", 5), ("gaussian", 1), ("ps", 1.0), ("lsa-ps", 2.5),
        ("lsa-ps", -1.0),
    ])
    def test_rejects_non_finite_input(self, method, parameter):
        # sg and gaussian, its identity window 1 too, used to return nan. y
        # is checked before any parameter, a negative lambda_bar too.
        y = np.sin(np.arange(60) / 5.0)
        # A grid of a good and a bad parameter: plan(y) raises y's error.
        plan = grid_plan(60, method, (parameter, BAD_PARAMETER[method], parameter))
        for bad in (np.nan, np.inf):
            y[10] = bad
            message = f"y must be finite, got {bad} at index 10"
            for call in (lambda: smooth(y, method, parameter), lambda: plan(y)):
                with pytest.raises(InvalidInputError, match=f"^{message}$"):
                    call()

    def test_to_unit(self):
        y = np.array([3.0, -6.0, 0.5])
        unit, e = to_unit(y)
        assert e == 3 and np.array_equal(unit, y / 8.0) and to_unit([0.0, 0.0])[1] == 0

    def test_identity_paths_copy_y_exactly(self):
        # Through the unit scale, 5e-324 beside 1e308 would come back as 0.
        y = np.array([1e308, 5e-324, -5e-324, 1.0, 2.0, 3.0, 4.0])
        for x in (
            smooth_savitzky_golay(y, 1, 0),
            smooth_savitzky_golay(y, 5, 4),
            smooth_gaussian(y, 1),
        ):
            assert np.array_equal(x, y) and x is not y

    def test_from_unit_raises_beyond_float64(self):
        x = np.array([0.5, -1.5])
        with pytest.raises(ResultOverflowError, match="exceeds float64"):
            from_unit(x, 1024)
        assert issubclass(ResultOverflowError, LsapsError)
        assert issubclass(ResultOverflowError, OverflowError)
        assert np.array_equal(from_unit(np.array([0.5, -0.75]), 1024), [2.0**1023, -1.5 * 2.0**1023])

    @pytest.mark.parametrize(
        "method, parameter", [("ps", 1.0), ("lsa-ps", 1.0), ("sg", (21, 6))]
    )
    def test_overshoot_beyond_float64_raises(self, method, parameter):
        # A square wave at the float64 limit: smoothing overshoots its
        # edges, so the result does not fit a float64. It used to come
        # back as inf.
        with pytest.raises(ResultOverflowError):
            smooth(SQUARE_AT_MAX, method, parameter)
