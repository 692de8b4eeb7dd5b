import numpy as np
import pytest

from lsaps import linalg
from lsaps.errors import (
    DegenerateSignalError,
    InvalidConfigError,
    LeverageSaturationError,
    ResultOverflowError,
    SelectionFailedError,
)
from lsaps.localfit import floor_weights, local_quadratic_curvature
from lsaps.select import (
    DEFAULT_GRID,
    cv_loss_lsa,
    loo_residuals,
    select_parameter,
)
from lsaps.smoothers import penalized_weights, smooth_lsa_ps, smooth_ps, to_unit
from mp_oracle import solve_and_inverse_diagonal


def loo_refit_oracle(y, weights, lam, i):
    """Leave point i out by zeroing its weight and re-solving.

    For a weighted penalized smoother the LOO prediction at i equals the
    solution of the same system with w_i = 0, read off at i.
    """
    w = np.array(weights, dtype=float)
    w[i] = 0.0
    system = linalg.assembler(w)(lam)
    x = linalg.solve(system, w * y)
    return x[i]


class TestLooResiduals:
    def test_closed_form_matches_refit_ps(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(40)
        lam = 2.0
        w = np.ones(40)
        system = linalg.assembler(w)(lam)
        x = linalg.solve(system, y)
        h = linalg.hat_diagonal(system)
        r = loo_residuals(y, x, h)
        for i in (0, 7, 20, 39):
            pred = loo_refit_oracle(y, w, lam, i)
            assert r[i] == pytest.approx(y[i] - pred, abs=1e-8)

    def test_closed_form_matches_refit_weighted(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(35)
        raw = local_quadratic_curvature(y)
        w = np.minimum(raw, np.median(raw))
        lam = 1.5 * np.median(raw)
        system = linalg.assembler(w)(lam)
        x = linalg.solve(system, w * y)
        h = linalg.hat_diagonal(system)
        r = loo_residuals(y, x, h)
        for i in (3, 17, 30):
            pred = loo_refit_oracle(y, w, lam, i)
            assert r[i] == pytest.approx(y[i] - pred, abs=1e-8)

    def test_saturated_leverage_raises(self):
        with pytest.raises(LeverageSaturationError):
            loo_residuals(np.ones(3), np.ones(3), np.array([0.5, 1.0, 0.5]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loo_residuals(np.ones(3), np.ones(4), np.zeros(3))


class TestLosses:
    def test_ps_loss_naive_oracle(self):
        # PS passes unit weights.
        r = np.array([1.0, -2.0, 3.0])
        assert cv_loss_lsa(r, np.ones(3)) == pytest.approx(np.sqrt((1 + 4 + 9) / 3), abs=1e-14)

    def test_lsa_loss_naive_oracle(self):
        r = np.array([1.0, 2.0])
        w = np.array([0.5, 4.0])
        assert cv_loss_lsa(r, w) == pytest.approx(np.sqrt((2.0 + 1.0) / 2), abs=1e-14)

    def test_lsa_loss_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            cv_loss_lsa(np.ones(2), np.array([1.0, 0.0]))

    def test_unit_weights_reduce_to_ps_loss(self):
        # Bit-equal to the standard loss, so PS losses did not change when
        # PS took the weighted loss with unit weights.
        rng = np.random.default_rng(2)
        for n in (5, 20, 1001):
            r = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100)
            assert cv_loss_lsa(r, np.ones(n)) == float(np.sqrt(np.mean(np.square(r))))


class TestSelectParameter:
    def test_white_noise_around_constant_prefers_max(self):
        # Pure noise: the smoothest candidate should win for PS.
        for seed in range(10):
            y = 5.0 + np.random.default_rng(seed).standard_normal(200)
            result = select_parameter(y, method="ps")
            assert result.best_parameter == max(DEFAULT_GRID)

    def test_losses_match_manual_ps(self):
        y = np.random.default_rng(3).standard_normal(60)
        result = select_parameter(y, method="ps", grid=(0.5, 5.0))
        # Exact: the loss is taken on residuals scaled by a power of two
        # and scaled back, which in range changes no bit.
        for j, lam in enumerate((0.5, 5.0)):
            system = linalg.assembler(np.ones(60))(lam)
            x = linalg.solve(system, y)
            h = linalg.hat_diagonal(system)
            expected = cv_loss_lsa(loo_residuals(y, x, h), np.ones(60))
            assert result.curve.losses[j] == expected

    def test_losses_match_manual_lsa(self):
        y = np.random.default_rng(4).standard_normal(60)
        raw = local_quadratic_curvature(y)
        median = np.median(raw)
        solve_w = np.minimum(raw, median)
        loss_w = floor_weights(solve_w)
        result = select_parameter(y, method="lsa-ps", grid=(1.0, 10.0))
        for j, cand in enumerate((1.0, 10.0)):
            lam = cand * median
            system = linalg.assembler(solve_w)(lam)
            x = linalg.solve(system, solve_w * y)
            h = linalg.hat_diagonal(system)
            expected = cv_loss_lsa(loo_residuals(y, x, h), loss_w)
            assert result.curve.losses[j] == expected

    def test_smoothed_output_matches_best(self):
        # CV fits each candidate exactly as the smoother does.
        y = np.random.default_rng(5).standard_normal(80)
        result = select_parameter(y, method="ps")
        assert np.array_equal(result.smoothed, smooth_ps(y, result.best_parameter))
        result = select_parameter(y, method="lsa-ps")
        assert np.array_equal(result.smoothed, smooth_lsa_ps(y, result.best_parameter)[0])

    def test_effective_lambda_scaling(self):
        y = np.random.default_rng(6).standard_normal(80)
        raw = local_quadratic_curvature(y)
        result = select_parameter(y, method="lsa-ps")
        assert result.effective_lambda == result.best_parameter * np.median(raw)

    def test_tie_breaks_toward_larger(self):
        y = np.random.default_rng(8).standard_normal(60)
        result = select_parameter(y, method="ps", grid=(2.0, 2.0))
        assert result.best_parameter == 2.0
        # Duplicate candidates have identical losses; argmin picks one,
        # and a reversed grid must agree.
        rev = select_parameter(y, method="ps", grid=(5.0, 0.5, 5.0))
        fwd = select_parameter(y, method="ps", grid=(0.5, 5.0, 5.0))
        assert rev.best_parameter == fwd.best_parameter

    def test_grid_order_invariance(self):
        y = np.random.default_rng(9).standard_normal(100)
        fwd = select_parameter(y, method="lsa-ps", grid=DEFAULT_GRID)
        rev = select_parameter(y, method="lsa-ps", grid=tuple(reversed(DEFAULT_GRID)))
        assert fwd.best_parameter == rev.best_parameter
        assert np.allclose(fwd.smoothed, rev.smoothed, atol=1e-12)

    def test_saturated_candidate_soft_excluded(self):
        # lam = 0 for PS gives H = I: saturated, loss +inf, but the other
        # candidate still wins.
        y = np.random.default_rng(10).standard_normal(40)
        result = select_parameter(y, method="ps", grid=(0.0, 1.0))
        assert np.isinf(result.curve.losses[0])
        assert result.best_parameter == 1.0

    def test_choice_on_a_grid_past_1e9(self):
        # A noisy ramp: the LSA-PS penalty scale is 2.1e-5, so lam =
        # lambda_bar * scale runs from 0.02 to 2.1e11 and crosses 1e9 at
        # 1e14. The two largest candidates fall below the conditioning
        # limit and score inf. The exact losses, from an 80-digit solve of
        # the same weights and lam, fall monotonically to 8.7792747 at
        # 1e14; the computed ones are flat to within their error past 1e9,
        # so the choice must be one whose exact loss is within 1e-6 of the
        # least (1e11 is 1.1e-7 above it, 1e9 1.1e-5).
        t = np.arange(200) / 200.0
        y = 2.0 + 3.0 * t + 0.1 * np.random.default_rng(8).standard_normal(200)
        grid = (1e3, 1e6, 1e9, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16)
        y_unit = to_unit(y)[0]
        a, scale = penalized_weights(y_unit, "lsa-ps")
        assert grid[5] * scale < 1e9 < grid[6] * scale
        result = select_parameter(y, method="lsa-ps", grid=grid)
        finite = np.isfinite(result.curve.losses)
        assert finite.tolist() == [True] * 7 + [False] * 2

        def exact_loss(lambda_bar):
            x, z = solve_and_inverse_diagonal(a, lambda_bar * scale, a * y_unit, dps=80)
            return cv_loss_lsa((y_unit - x) / (1.0 - z * a), floor_weights(a))

        exact = {g: exact_loss(g) for g, ok in zip(grid, finite) if ok}
        least = min(exact.values())
        assert exact[result.best_parameter] - least <= 1e-6 * least

    def test_all_saturated_fails(self):
        y = np.random.default_rng(11).standard_normal(40)
        with pytest.raises(SelectionFailedError):
            select_parameter(y, method="ps", grid=(0.0,))

    def test_affine_signal_rejected_for_lsa(self):
        with pytest.raises(DegenerateSignalError):
            select_parameter(np.arange(50.0), method="lsa-ps")

    def test_nan_input_is_not_called_affine(self):
        y = np.sin(np.linspace(0, 6, 40))
        y[5] = np.nan
        # Match the message: DegenerateSignalError is a ValueError too.
        with pytest.raises(ValueError, match="y must be finite, got nan at index 5"):
            select_parameter(y, method="lsa-ps")

    def test_bad_inputs(self):
        y = np.random.default_rng(12).standard_normal(30)
        with pytest.raises(ValueError):
            select_parameter(y, method="nope")
        with pytest.raises(ValueError):
            select_parameter(y, grid=())
        with pytest.raises(ValueError):
            select_parameter(y, grid=(-1.0, 1.0))
        # A candidate whose band overflows is a bad grid, not a failed fit.
        with pytest.raises(InvalidConfigError, match=r"lam = 1e\+308 is too large"):
            select_parameter(y, method="ps", grid=(1.0, 1e308))

    @pytest.mark.parametrize("method", ["ps", "lsa-ps"])
    @pytest.mark.parametrize("factor", [2.0**660, 2.0**-600], ids=["2**660", "2**-600"])
    def test_extreme_scale_is_exactly_equivariant(self, method, factor):
        # Squared residuals and curvature overflow beyond about 1e154 and
        # underflow below about 1e-154; the choice must not depend on it.
        y = np.sin(np.linspace(0, 30, 200)) + 0.2 * np.random.default_rng(18).standard_normal(200)
        base = select_parameter(y, method=method)
        assert base.best_parameter < max(DEFAULT_GRID)  # not the tie-break of equal losses
        scaled = select_parameter(y * factor, method=method)
        assert scaled.best_parameter == base.best_parameter
        assert np.array_equal(scaled.smoothed, base.smoothed * factor)
        # The PS loss is in units of y, the LSA-PS loss has none.
        unit = factor if method == "ps" else 1.0
        assert np.array_equal(scaled.curve.losses, base.curve.losses * unit)

    @pytest.mark.parametrize("method", ["ps", "lsa-ps"])
    def test_overflow_scale_data(self, method):
        y = np.sin(np.linspace(0, 30, 200)) + 0.2 * np.random.default_rng(18).standard_normal(200)
        base = select_parameter(y, method=method)
        big = select_parameter(y * 1e200, method=method)
        assert big.best_parameter == base.best_parameter
        # 1e200 is not a power of two, so y * 1e200 is rounded; the LSA-PS
        # fit amplifies that rounding to about 200 ulps of max|y|.
        assert np.max(np.abs(big.smoothed / 1e200 - base.smoothed)) <= 1e-12 * np.max(np.abs(y))


@pytest.mark.parametrize("method", ["ps", "lsa-ps"])
def test_selected_fit_beyond_float64_raises(method):
    # A square wave at the float64 limit: every candidate overshoots its
    # edges, so the selected fit does not fit a float64.
    t = np.arange(200)
    y = np.finfo(float).max * (0.97 * np.where(t // 40 % 2 == 0, 1.0, -1.0) + 0.03 * np.sin(1.7 * t))
    with pytest.raises(ResultOverflowError):
        select_parameter(y, method=method)
