import numpy as np
import pytest

from lsaps.errors import DegenerateSignalError, InvalidSizeError
from lsaps.localfit import floor_weights, local_quadratic_curvature
from lsaps.smoothers import penalized_weights, to_unit


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
            assert w[i] == pytest.approx((2.0 * a) ** 2, abs=1e-12)

    def test_pure_quadratic_window(self):
        # y = t^2 on (-2..2): a = 1, weight = (2a)^2 = 4 exactly.
        w = local_quadratic_curvature([4.0, 1.0, 0.0, 1.0, 4.0])
        assert w[2] == 4.0

    def test_affine_gives_zero(self):
        w = local_quadratic_curvature(2.0 * np.arange(12) - 3.0)
        assert np.allclose(w, 0.0, atol=1e-24)
        assert np.median(w) == 0.0

    def test_boundary_replication(self):
        y = np.random.default_rng(1).standard_normal(10)
        w = local_quadratic_curvature(y)
        assert w[0] == w[1] == w[2]
        assert w[9] == w[8] == w[7]

    def test_nonnegative(self):
        y = np.random.default_rng(2).standard_normal(100)
        assert np.all(local_quadratic_curvature(y) >= 0)

    def test_median_is_pre_clip(self):
        # penalized_weights takes y on a unit scale; this y is already there.
        y = np.random.default_rng(3).standard_normal(50)
        y /= 2 * np.max(np.abs(y))
        w = local_quadratic_curvature(y)
        _, scale = penalized_weights(y, "lsa-ps", clip=True)
        assert to_unit(y)[1] == 0 and scale == float(np.median(w))


class TestClip:
    """The clip inside ``penalized_weights``, on y of unit scale, where
    its weights are exactly the curvature of y."""

    @staticmethod
    def unit(y):
        return y / (2 * np.max(np.abs(y)))

    def test_matches_sort_and_min_oracle(self):
        y = self.unit(np.random.default_rng(4).standard_normal(80))
        w = local_quadratic_curvature(y)
        clipped, _ = penalized_weights(y, "lsa-ps", clip=True)
        oracle = np.minimum(w, np.median(w))
        assert to_unit(y)[1] == 0 and np.array_equal(clipped, oracle)

    def test_preserves_pre_clip_median(self):
        y = self.unit(np.random.default_rng(5).standard_normal(30))
        _, scale_on = penalized_weights(y, "lsa-ps", clip=True)
        _, scale_off = penalized_weights(y, "lsa-ps", clip=False)
        assert scale_on == scale_off == float(np.median(local_quadratic_curvature(y)))

    def test_idempotent(self):
        # A second clip at the same pre-clip median changes nothing.
        y = np.random.default_rng(6).standard_normal(30)
        once, scale = penalized_weights(y, "lsa-ps", clip=True)
        assert np.array_equal(np.minimum(once, scale), once)

    def test_max_is_median(self):
        y = np.random.default_rng(7).standard_normal(101)
        clipped, scale = penalized_weights(y, "lsa-ps", clip=True)
        assert clipped.max() <= scale


class TestFloor:
    def test_zeros_raised(self):
        y = np.sin(np.linspace(0, 4, 40))
        w = local_quadratic_curvature(y)
        w[5] = 0.0
        floored = floor_weights(w)
        assert np.all(floored > 0)
        positive = w[w > 0]
        assert floored[5] == pytest.approx(1e-8 * np.median(positive))

    def test_positives_untouched(self):
        y = np.random.default_rng(8).standard_normal(40)
        w = local_quadratic_curvature(y)
        floored = floor_weights(w)
        mask = w > floored.min()
        assert np.array_equal(floored[mask], w[mask])

    def test_all_zero_raises(self):
        w = local_quadratic_curvature(np.arange(20.0))
        with pytest.raises(DegenerateSignalError):
            floor_weights(w)
