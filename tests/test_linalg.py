import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsaps import linalg, select, smoothers
from lsaps.errors import (
    InvalidSizeError,
    NotPositiveDefiniteError,
    SingularSystemError,
)


def dense_system(weights, lam):
    """Dense expansion oracle for diag(w) + lam * D^T D."""
    n = len(weights)
    d = np.zeros((n - 2, n))
    for r in range(n - 2):
        d[r, r : r + 3] = (1.0, -2.0, 1.0)
    return np.diag(np.asarray(weights, dtype=float)) + lam * d.T @ d


class TestAssemble:
    def test_n3_unit_weights(self):
        s = linalg.assemble_system([1.0, 1.0, 1.0], 1.0)
        assert np.array_equal(s.main, [2.0, 5.0, 2.0])
        assert np.array_equal(s.off1, [-2.0, -2.0])
        assert np.array_equal(s.off2, [1.0])

    def test_lambda_zero_identity(self):
        s = linalg.assemble_system(np.ones(7), 0.0)
        assert np.array_equal(s.main, np.ones(7))
        assert np.array_equal(s.off1, np.zeros(6))
        assert np.array_equal(s.off2, np.zeros(5))

    def test_n3_with_zero_weight(self):
        s = linalg.assemble_system([4.0, 0.0, 4.0], 2.0)
        assert np.array_equal(s.main, [6.0, 8.0, 6.0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for n in (3, 4, 5, 20):
            w = rng.uniform(0.1, 3.0, n)
            lam = rng.uniform(0.0, 5.0)
            s = linalg.assemble_system(w, lam)
            assert np.allclose(s.toarray(), dense_system(w, lam), atol=1e-12)

    def test_singular_assembly(self):
        with pytest.raises(SingularSystemError):
            linalg.assemble_system([1.0, 0.0, 1.0], 0.0)

    def test_bad_inputs(self):
        with pytest.raises(InvalidSizeError):
            linalg.assemble_system([1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            linalg.assemble_system(np.ones(5), -1.0)
        with pytest.raises(ValueError):
            linalg.assemble_system([1.0, -1.0, 1.0], 1.0)

    def test_non_finite_lam(self):
        for lam in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"lam must be finite, got {lam}"):
                linalg.assemble_system(np.ones(5), lam)

    def test_non_finite_weights(self):
        with pytest.raises(ValueError, match="got nan at index 2"):
            linalg.assemble_system([1.0, 1.0, np.nan, 1.0], 1.0)


class TestSolve:
    def test_identity(self):
        s = linalg.assemble_system(np.ones(3), 0.0)
        assert np.allclose(linalg.solve(s, [3.0, 1.0, 4.0]), [3.0, 1.0, 4.0])

    def test_spot_check(self):
        s = linalg.assemble_system(np.ones(3), 1.0)
        x = linalg.solve(s, [0.0, 1.0, 0.0])
        assert np.allclose(x, [2 / 7, 3 / 7, 2 / 7], atol=1e-14)

    def test_matches_dense_n200(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0.2, 2.0, 200)
        lam = 3.0
        s = linalg.assemble_system(w, lam)
        b = rng.standard_normal(200)
        x = linalg.solve(s, b)
        x_dense = np.linalg.solve(dense_system(w, lam), b)
        assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)

    def test_residual_small(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 1.5, 120)
        s = linalg.assemble_system(w, 10.0)
        b = rng.standard_normal(120)
        x = linalg.solve(s, b)
        res = s.toarray() @ x - b
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(b)

    def test_not_positive_definite(self):
        # all-zero weights with lam > 0 leave the affine null space.
        s = linalg.assemble_system(np.zeros(10), 1.0)
        with pytest.raises(NotPositiveDefiniteError):
            linalg.solve(s, np.ones(10))

    def test_rhs_length_check(self):
        s = linalg.assemble_system(np.ones(5), 1.0)
        with pytest.raises(ValueError):
            linalg.solve(s, np.ones(4))

    def test_rhs_must_be_1d(self):
        s = linalg.assemble_system(np.ones(5), 1.0)
        with pytest.raises(ValueError, match=r"got \(5, 2\)"):
            linalg.solve(s, np.ones((5, 2)))

    def test_rhs_must_be_finite(self):
        s = linalg.assemble_system(np.ones(5), 1.0)
        with pytest.raises(ValueError, match="got inf at index 3"):
            linalg.solve(s, [0.0, 1.0, 2.0, np.inf, 4.0])


class TestHatDiagonal:
    def test_lambda_zero_gives_ones(self):
        s = linalg.assemble_system(np.full(6, 2.0), 0.0)
        assert np.allclose(linalg.hat_diagonal(s), np.ones(6), atol=1e-14)

    def test_n3_matches_dense_inverse(self):
        s = linalg.assemble_system(np.ones(3), 1.0)
        h = linalg.hat_diagonal(s)
        h_dense = np.diagonal(np.linalg.inv(dense_system(np.ones(3), 1.0)))
        assert np.allclose(h, h_dense, atol=1e-14)

    def test_n50_matches_dense(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.1, 4.0, 50)
        lam = 2.5
        s = linalg.assemble_system(w, lam)
        h = linalg.hat_diagonal(s)
        h_dense = np.diagonal(np.linalg.inv(dense_system(w, lam)) @ np.diag(w))
        assert np.max(np.abs(h - h_dense)) <= 1e-10

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(0.3, 2.0, 40)
        lambdas = [0.0, 0.1, 1.0, 10.0, 100.0]
        diags = [linalg.hat_diagonal(linalg.assemble_system(w, lam)) for lam in lambdas]
        for h in diags:
            assert np.all(h >= -1e-12) and np.all(h <= 1.0 + 1e-12)
        for lo, hi in zip(diags, diags[1:]):
            assert np.all(hi <= lo + 1e-10)

    def test_trace_decreases(self):
        w = np.ones(30)
        traces = [
            float(np.sum(linalg.hat_diagonal(linalg.assemble_system(w, lam))))
            for lam in (0.1, 1.0, 10.0)
        ]
        assert traces[0] > traces[1] > traces[2]


@st.composite
def band_systems(draw):
    """Weights in [0.05, 3] for n in [3, 60], lam log-uniform in [1e-4, 1e4]."""
    n = draw(st.integers(3, 60))
    w = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)))
    lam = 10.0 ** draw(st.floats(-4.0, 4.0))
    rhs = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    return w, lam, rhs


class TestAgainstDenseOracle:
    @settings(max_examples=200, deadline=None)
    @given(band_systems())
    def test_solve_and_hat_diagonal(self, case):
        w, lam, rhs = case
        s = linalg.assemble_system(w, lam)
        dense = dense_system(w, lam)
        x = linalg.solve(s, rhs)
        x_dense = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(x - x_dense) <= 1e-8 * np.linalg.norm(x_dense)
        h = linalg.hat_diagonal(s)
        h_dense = np.diagonal(np.linalg.inv(dense)) * w
        assert np.max(np.abs(h - h_dense)) <= 1e-9


def test_select_factors_each_candidate_once(monkeypatch):
    calls = []
    real = linalg.cholesky_banded

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "cholesky_banded", counting)
    y = np.sin(np.linspace(0, 6, 80)) + 0.1 * np.random.default_rng(4).standard_normal(80)
    for method in smoothers.PENALIZED:
        calls.clear()
        select.select_parameter(y, method=method)
        assert len(calls) == len(select.DEFAULT_GRID)
