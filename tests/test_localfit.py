import numpy as np
import pytest

from lsaps.errors import DegenerateSignalError, InvalidSizeError
from lsaps.localfit import (
    clip_weights,
    floor_weights,
    local_quadratic_curvature,
)


def brute_force_quadratic_coeff(window):
    """Oracle: solve the 3x3 normal equations of a 5-point parabola fit."""
    xi = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    v = np.vander(xi, 3)  # columns xi^2, xi, 1
    coef, *_ = np.linalg.lstsq(v, np.asarray(window, dtype=float), rcond=None)
    return coef[0]


class TestCurvature:
    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            local_quadratic_curvature(np.ones(4))

    def test_matches_brute_force_fit(self):
        rng = np.random.default_rng(42)
        y = rng.standard_normal(60)
        w = local_quadratic_curvature(y)
        for i in range(2, 58):
            a = brute_force_quadratic_coeff(y[i - 2 : i + 3])
            assert w.values[i] == pytest.approx((2.0 * a) ** 2, abs=1e-12)

    def test_pure_quadratic_window(self):
        # y = t^2 on (-2..2): a = 1, weight = (2a)^2 = 4 exactly.
        w = local_quadratic_curvature([4.0, 1.0, 0.0, 1.0, 4.0])
        assert w.values[2] == 4.0

    def test_affine_gives_zero(self):
        w = local_quadratic_curvature(2.0 * np.arange(12) - 3.0)
        assert np.allclose(w.values, 0.0, atol=1e-24)
        assert w.median == 0.0

    def test_boundary_replication(self):
        y = np.random.default_rng(1).standard_normal(10)
        w = local_quadratic_curvature(y)
        assert w.values[0] == w.values[1] == w.values[2]
        assert w.values[9] == w.values[8] == w.values[7]

    def test_nonnegative(self):
        y = np.random.default_rng(2).standard_normal(100)
        assert np.all(local_quadratic_curvature(y).values >= 0)

    def test_median_is_pre_clip(self):
        y = np.random.default_rng(3).standard_normal(50)
        w = local_quadratic_curvature(y)
        assert w.median == float(np.median(w.values))


class TestClip:
    def test_matches_sort_and_min_oracle(self):
        y = np.random.default_rng(4).standard_normal(80)
        w = local_quadratic_curvature(y)
        clipped = clip_weights(w)
        oracle = np.minimum(w.values, np.median(w.values))
        assert np.array_equal(clipped.values, oracle)

    def test_preserves_pre_clip_median(self):
        y = np.random.default_rng(5).standard_normal(30)
        w = local_quadratic_curvature(y)
        assert clip_weights(w).median == w.median

    def test_idempotent(self):
        y = np.random.default_rng(6).standard_normal(30)
        once = clip_weights(local_quadratic_curvature(y))
        twice = clip_weights(once)
        assert np.array_equal(once.values, twice.values)

    def test_max_is_median(self):
        y = np.random.default_rng(7).standard_normal(101)
        clipped = clip_weights(local_quadratic_curvature(y))
        assert clipped.values.max() <= clipped.median


class TestFloor:
    def test_zeros_raised(self):
        y = np.sin(np.linspace(0, 4, 40))
        w = local_quadratic_curvature(y)
        w.values[5] = 0.0
        floored = floor_weights(w)
        assert np.all(floored.values > 0)
        positive = w.values[w.values > 0]
        assert floored.values[5] == pytest.approx(1e-8 * np.median(positive))

    def test_positives_untouched(self):
        y = np.random.default_rng(8).standard_normal(40)
        w = local_quadratic_curvature(y)
        floored = floor_weights(w)
        mask = w.values > floored.values.min()
        assert np.array_equal(floored.values[mask], w.values[mask])

    def test_all_zero_raises(self):
        w = local_quadratic_curvature(np.arange(20.0))
        with pytest.raises(DegenerateSignalError):
            floor_weights(w)
