import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpbtrf

from lsaps import linalg, select, sim, smoothers
from lsaps.errors import (
    InvalidConfigError,
    InvalidSizeError,
    NotPositiveDefiniteError,
    SingularSystemError,
)
from mp_oracle import solve_and_inverse_diagonal


def dense_system(weights, lam):
    """Dense expansion oracle for diag(w) + lam * D^T D."""
    n = len(weights)
    d = np.zeros((n - 2, n))
    for r in range(n - 2):
        d[r, r : r + 3] = (1.0, -2.0, 1.0)
    return np.diag(np.asarray(weights, dtype=float)) + lam * d.T @ d


def convolved_bands(weights, lam):
    """Oracle: the lower band storage of M built from the stencil
    convolutions of D^T D, as the assembly once built it."""
    n = len(weights)
    ones = np.ones(n - 2)
    ab = np.zeros((3, n))
    ab[0] = weights + lam * np.convolve(ones, [1.0, 4.0, 1.0])
    ab[1, :-1] = lam * np.convolve(ones, [-2.0, -2.0])
    ab[2, :-2] = lam
    return ab


def lapack_factor(ab):
    """Oracle: LAPACK's lower band Cholesky factor of ``ab``, which must
    succeed."""
    u, info = dpbtrf(ab, lower=1)
    assert info == 0, info
    return u


def upper_bands(ab):
    """The upper band storage of the same M: row 2 the main diagonal, row
    1 from column 1 on the first superdiagonal, row 0 from column 2 on the
    second."""
    upper = np.zeros_like(ab)
    upper[2] = ab[0]
    upper[1, 1:] = ab[1, :-1]
    upper[0, 2:] = ab[2, :-2]
    return upper


def recurrence_hat_diagonal(system):
    """Oracle: the selected-inverse recurrence of ``linalg.hat_diagonal``
    as a Python sweep from i = n-1 down to 0, one row of Z = M^{-1} at a
    time, keeping Z[i+1, i+1], Z[i+1, i+2] and Z[i+2, i+2]."""
    u = system.u
    diag = u[0]
    c = (np.append(u[1, :-1], 0.0) / diag).tolist()
    e = (np.append(u[2, :-2], [0.0, 0.0]) / diag).tolist()
    inv_pivot = (1.0 / np.square(diag)).tolist()
    z = [0.0] * system.n
    z_11 = z_22 = 0.0  # Z[i+1, i+1], Z[i+2, i+2]
    z_12 = 0.0  # Z[i+1, i+2]
    for i in range(system.n - 1, -1, -1):
        z_02 = -(c[i] * z_12 + e[i] * z_22)
        z_01 = -(c[i] * z_11 + e[i] * z_12)
        z[i] = inv_pivot[i] - (c[i] * z_01 + e[i] * z_02)
        z_11, z_22, z_12 = z[i], z_11, z_01
    return np.array(z) * system.weights


class TestAssemble:
    def test_n3_unit_weights(self):
        ab = [[2.0, 5.0, 2.0], [-2.0, -2.0, 0.0], [1.0, 0.0, 0.0]]
        assert np.array_equal(convolved_bands(np.ones(3), 1.0), ab)
        s = linalg.assembler([1.0, 1.0, 1.0])(1.0)
        assert np.array_equal(s.u, lapack_factor(ab))
        assert s.lam == 1.0 and s.n == 3

    def test_lambda_zero_identity(self):
        s = linalg.assembler(np.ones(7))(0.0)
        assert np.array_equal(s.u, lapack_factor(convolved_bands(np.ones(7), 0.0)))
        assert np.array_equal(s.u[0], np.ones(7))
        assert np.array_equal(s.u[1:], np.zeros((2, 7)))

    def test_n3_with_zero_weight(self):
        ab = convolved_bands(np.array([4.0, 0.0, 4.0]), 2.0)
        assert np.array_equal(ab[0], [6.0, 8.0, 6.0])
        s = linalg.assembler([4.0, 0.0, 4.0])(2.0)
        assert np.array_equal(s.u, lapack_factor(ab))

    def test_matches_dense_oracle(self):
        # L L^T from the factor's three bands is the dense M.
        rng = np.random.default_rng(3)
        for n in (3, 4, 5, 20):
            w = rng.uniform(0.1, 3.0, n)
            lam = rng.uniform(0.0, 5.0)
            s = linalg.assembler(w)(lam)
            assert s.n == n
            low = np.diag(s.u[0]) + np.diag(s.u[1, :-1], -1) + np.diag(s.u[2, :-2], -2)
            assert np.allclose(low @ low.T, dense_system(w, lam), atol=1e-12)

    def test_singular_assembly(self):
        with pytest.raises(SingularSystemError):
            linalg.assembler([1.0, 0.0, 1.0])(0.0)

    def test_bad_inputs(self):
        with pytest.raises(InvalidSizeError):
            linalg.assembler([1.0, 1.0])(1.0)
        with pytest.raises(ValueError):
            linalg.assembler(np.ones(5))(-1.0)
        with pytest.raises(ValueError):
            linalg.assembler([1.0, -1.0, 1.0])(1.0)

    def test_overflowing_band_names_lam(self):
        # 6 lam overflows on the main diagonal, and no warning escapes.
        message = r"lam = 1e\+308 is too large: entries of M .* overflow float64"
        with pytest.raises(InvalidConfigError, match=message):
            smoothers.smooth_ps(np.sin(np.arange(20) / 3.0), 1e308)
        # n = 3 has diagonal coefficients (1, 4, 1): 4 lam still fits, so
        # the bands pass and the factor fails at a pivot instead.
        lam = np.finfo(float).max / 4.5
        assert np.isfinite(convolved_bands(np.ones(3), lam)).all()
        with pytest.raises(NotPositiveDefiniteError, match="below the conditioning limit"):
            linalg.assembler(np.ones(3))(lam)
        with pytest.raises(InvalidConfigError, match="too large"):
            linalg.assembler(np.ones(4))(lam)

    def test_non_finite_lam(self):
        for lam in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"lam must be finite, got {lam}"):
                linalg.assembler(np.ones(5))(lam)

    def test_non_finite_weights(self):
        with pytest.raises(ValueError, match="got nan at index 2"):
            linalg.assembler([1.0, 1.0, np.nan, 1.0])(1.0)

    def test_bands_match_the_convolutions_bit_for_bit(self):
        # The factor is LAPACK's factor of the convolved bands, bit for
        # bit, and fails exactly where that factor has a pivot at or below
        # the conditioning limit. n = 3 and 4 have their own main
        # diagonals, (1, 4, 1) and (1, 5, 5, 1); lam * 5 and lam * 6 round.
        rng = np.random.default_rng(12)
        lams = (0.0, 5e-324, 1e-7, 0.37, 3.0, 7.3e4, 1e13, 1.1e300)
        factors = failures = 0
        for n in (3, 4, 5, 6, 7, 50, 1001):
            w = rng.uniform(0.05, 5.0, n)
            w[rng.random(n) < 0.2] = 0.0
            assemble = linalg.assembler(w)
            for lam in lams[1:] if (w == 0).any() else lams:
                ab = convolved_bands(w, lam)
                u, info = dpbtrf(ab, lower=1)
                limit = linalg.PIVOT_RTOL * float(ab[0].max())
                if info > 0 or not np.square(u[0]).min() > limit:
                    with pytest.raises(NotPositiveDefiniteError):
                        assemble(lam)
                    failures += 1
                else:
                    assert np.array_equal(assemble(lam).u, u), (n, lam)
                    factors += 1
        # 38 factors and 12 failures, at lam = 5e-324 and 1.1e300.
        assert factors >= 35 and failures >= 10, (factors, failures)

    def test_assembler_keeps_each_lam_error(self):
        assemble = linalg.assembler([1.0, 0.0, 1.0, 1.0])
        for lam, error, message in (
            (np.nan, InvalidConfigError, "lam must be finite, got nan"),
            (-1.0, InvalidConfigError, "lam must be >= 0, got -1.0"),
            (0.0, SingularSystemError, "lam = 0 with a zero weight"),
            (1e308, InvalidConfigError, r"lam = 1e\+308 is too large"),
        ):
            with pytest.raises(error, match=message):
                assemble(lam)
        assert np.array_equal(assemble(2.0).u, lapack_factor(convolved_bands(np.array([1.0, 0.0, 1.0, 1.0]), 2.0)))


class TestSolve:
    def test_identity(self):
        s = linalg.assembler(np.ones(3))(0.0)
        assert np.allclose(linalg.solve(s, [3.0, 1.0, 4.0]), [3.0, 1.0, 4.0])

    def test_spot_check(self):
        s = linalg.assembler(np.ones(3))(1.0)
        x = linalg.solve(s, [0.0, 1.0, 0.0])
        assert np.allclose(x, [2 / 7, 3 / 7, 2 / 7], atol=1e-14)

    def test_matches_dense_n200(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0.2, 2.0, 200)
        lam = 3.0
        s = linalg.assembler(w)(lam)
        b = rng.standard_normal(200)
        x = linalg.solve(s, b)
        x_dense = np.linalg.solve(dense_system(w, lam), b)
        assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)

    def test_residual_small(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 1.5, 120)
        s = linalg.assembler(w)(10.0)
        b = rng.standard_normal(120)
        x = linalg.solve(s, b)
        res = dense_system(w, 10.0) @ x - b
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(b)

    def test_not_positive_definite(self):
        # all-zero weights with lam > 0 leave the affine null space; the
        # factor fails as the system is assembled.
        with pytest.raises(NotPositiveDefiniteError):
            linalg.assembler(np.zeros(10))(1.0)

    def test_small_positive_pivot_is_not_called_non_positive(self):
        # I + lam D^T D has every eigenvalue >= 1, but at lam = 1e14 its
        # last pivot falls below PIVOT_RTOL x the largest diagonal entry,
        # 6e14. It used to be reported as a non-positive pivot.
        with pytest.raises(NotPositiveDefiniteError) as info:
            smoothers.smooth_ps(np.sin(np.arange(20) / 3.0), 1e14)
        assert str(info.value) == (
            "pivot 5.457e+00 at row 19 is below the conditioning limit 6.000e+00 "
            "(1e-14 x the largest diagonal entry); the system is too ill-conditioned to solve"
        )

    @pytest.mark.parametrize("lam, row, limit", [(1e300, 18, "6.000e+286"), (2.9e307, 19, "1.740e+294")])
    def test_weights_absorbed_by_lam_are_below_the_limit(self, lam, row, limit):
        # 1 + 6 lam rounds to 6 lam, so the stored M is lam D^T D, which
        # is singular; at 1e300 LAPACK meets a pivot <= 0 in row 18. M is
        # SPD, so that is no proof of indefiniteness: the message must not
        # say "not SPD".
        with pytest.raises(NotPositiveDefiniteError) as info:
            smoothers.smooth_ps(np.sin(np.arange(20) / 3.0), lam)
        assert re.fullmatch(
            rf"pivot \S+ at row {row} is below the conditioning limit {re.escape(limit)} "
            r"\(1e-14 x the largest diagonal entry\); the system is too ill-conditioned to solve",
            str(info.value),
        ), str(info.value)

    def test_nan_pivot_is_not_positive(self):
        ab = np.zeros((3, 6))
        ab[0] = [1.0, np.nan, 1.0, 1.0, 1.0, 1.0]
        with pytest.raises(NotPositiveDefiniteError, match="pivot nan at row 1 is not positive"):
            linalg._cholesky(ab)

    @pytest.mark.parametrize("routine", ["dpbtrf", "dpbtrs"])
    def test_bad_lapack_argument_raises(self, monkeypatch, routine):
        monkeypatch.setattr(linalg, routine, lambda ab, *args, **kwargs: ((args or [ab])[0], -1))
        with pytest.raises(np.linalg.LinAlgError, match=f"{routine} returned info = -1"):
            linalg.solve(linalg.assembler(np.ones(5))(1.0), np.ones(5))

    def test_rhs_length_check(self):
        s = linalg.assembler(np.ones(5))(1.0)
        with pytest.raises(ValueError):
            linalg.solve(s, np.ones(4))

    def test_rhs_must_be_1d(self):
        s = linalg.assembler(np.ones(5))(1.0)
        with pytest.raises(ValueError, match=r"got \(5, 2\)"):
            linalg.solve(s, np.ones((5, 2)))

    def test_rhs_must_be_finite(self):
        s = linalg.assembler(np.ones(5))(1.0)
        with pytest.raises(ValueError, match="got inf at index 3"):
            linalg.solve(s, [0.0, 1.0, 2.0, np.inf, 4.0])


class TestFactor:
    """The lower band factor against LAPACK's upper one, on 450 systems:
    n in [3, 400], weights U(0.05, 5), with one in ten zero when lam > 0.
    lam is 0 for one seed in ten, log-uniform in [1e14, 1e300] for
    another, where the pivots fail, and log-uniform in [1e-4, 1e14]
    otherwise. Both layouts run the same unblocked recurrence at kd = 2."""

    def test_lower_factor_is_the_upper_factor(self):
        factors = failures = lapack_failures = 0
        for seed in range(450):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 401))
            lam = 10.0 ** rng.uniform(*((14.0, 300.0) if seed % 10 == 1 else (-4.0, 14.0)))
            lam = 0.0 if seed % 10 == 0 else lam
            w = rng.uniform(0.05, 5.0, n)
            if lam > 0:
                w[rng.random(n) < 0.1] = 0.0
            ab = convolved_bands(w, lam)
            u, info = dpbtrf(upper_bands(ab))
            assert info >= 0, seed
            limit = linalg.PIVOT_RTOL * float(ab[0].max())
            if info > 0:
                # LAPACK left the pivot that is not positive in place.
                failed = [(info - 1, u[2, info - 1])]
                lapack_failures += 1
            else:
                pivots = np.square(u[2])
                failed = [(i, pivots[i]) for i in np.flatnonzero(np.isnan(pivots) | (pivots <= limit))]
            if failed:
                # The same row and pivot as the upper factor gives.
                i, pivot = failed[0]
                with pytest.raises(NotPositiveDefiniteError) as error:
                    linalg.assembler(w)(lam)
                assert str(error.value) == str(linalg._pivot_error(int(i), float(pivot), limit)), seed
                failures += 1
                continue
            lower = linalg.assembler(w)(lam).u
            assert np.array_equal(lower[0], u[2]), seed
            assert np.array_equal(lower[1, :-1], u[1, 1:]), seed
            assert np.array_equal(lower[2, :-2], u[0, 2:]), seed
            factors += 1
        # 405 factors and 45 failures, 29 of them found by LAPACK.
        assert factors >= 400 and failures >= 40 and lapack_failures >= 20


class TestRefinement:
    """``solve`` refines with the float64 residual of the exact problem,
    rhs - w * x - lam * D^T (D x), until the error estimate
    max|d_k|^2 / max|d_{k-1}| reaches ``REFINE_TOL`` of max|x_k|, or a
    correction fails to halve: one ``dpbtrs`` call for x0 and one per
    correction."""

    @pytest.fixture
    def substitutions(self, monkeypatch):
        calls = []
        real = linalg.dpbtrs

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg, "dpbtrs", counting)
        return calls

    def systems(self, lam_values):
        """The sweep's systems: PS and LSA-PS on its Lorentzian spectrum
        with noise sigma 0.2."""
        for n in (500, 1000):
            y = sim.add_noise(sim.generate_clean(sim.SimScenario(n=n)), 0.2, 3)[0]
            y_unit = smoothers.to_unit(y)[0]
            for method in smoothers.PENALIZED:
                a, scale = smoothers.penalized_weights(y_unit, method)
                assemble = linalg.assembler(a)
                for lam in lam_values:
                    yield assemble(lam * scale), a * y_unit

    def test_one_step_up_to_lam_100(self, substitutions):
        for system, rhs in self.systems(sim.COMPARISON_GRIDS["ps"]):
            substitutions.clear()
            linalg.solve(system, rhs)
            assert len(substitutions) == 2

    def test_two_steps_at_lam_1e9(self, substitutions):
        for system, rhs in self.systems((1e9,)):
            substitutions.clear()
            linalg.solve(system, rhs)
            assert len(substitutions) == 3

    @pytest.mark.parametrize("lam, fewest, most", [
        (1e-3, 2, 2), (1.0, 2, 2), (1e3, 2, 2), (1e6, 2, 2), (1e9, 2, 3), (1e13, 4, 5),
    ])
    def test_corrections_by_lam(self, substitutions, lam, fewest, most):
        # The systems of ``TestAgainstMpOracle``: one correction up to
        # lam = 1e6, at most two at 1e9 and three or four at 1e13.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            w = rng.uniform(0.05, 5.0, 300)
            substitutions.clear()
            linalg.solve(linalg.assembler(w)(lam), rng.standard_normal(300))
            assert fewest <= len(substitutions) <= most, seed

    @staticmethod
    def random_system(seed, n_max):
        """(system, rhs): n in [3, n_max], lam log-uniform in [1e-6, 1e13],
        weights U(0.05, 5) with one in ten zero. A system below the
        conditioning limit raises NotPositiveDefiniteError."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, n_max + 1))
        lam = 10.0 ** rng.uniform(-6.0, 13.0)
        w = rng.uniform(0.05, 5.0, n)
        w[rng.random(n) < 0.1] = 0.0
        return linalg.assembler(w)(lam), rng.standard_normal(n)

    @staticmethod
    def exact(system, rhs):
        return solve_and_inverse_diagonal(system.weights, system.lam, rhs)[0]

    def test_matches_the_exact_problem(self, substitutions):
        # Every solve lands within a few eps of the exact solution,
        # whatever the number of corrections.
        corrections = []
        for seed in range(400):
            substitutions.clear()
            try:
                system, rhs = self.random_system(seed, 60)
            except NotPositiveDefiniteError:
                continue  # below the conditioning limit
            x = linalg.solve(system, rhs)
            corrections.append(len(substitutions) - 1)
            x_star = self.exact(system, rhs)
            assert np.max(np.abs(x - x_star)) <= 2e-14 * np.max(np.abs(x_star)), seed
        assert len(corrections) >= 380
        assert corrections.count(1) >= 200 and len(corrections) - corrections.count(1) >= 50
        assert max(corrections) <= linalg.REFINE_STEPS

    def test_stagnating_correction_is_dropped(self, substitutions, monkeypatch):
        # Seed 5603: n = 3, lam = 9.6e4, one zero weight. The long-double
        # refinement took a second step here that moved x from 2.1e-15 to
        # 1.07e-14 of max|x*| away from the exact solution. One correction
        # now reaches it.
        system, rhs = self.random_system(5603, 20)
        assert system.n == 3 and 9.6e4 < system.lam < 9.7e4
        eps = np.finfo(float).eps
        x_star = self.exact(system, rhs)
        scale = np.max(np.abs(x_star))
        assert np.max(np.abs(linalg.solve(system, rhs) - x_star)) <= eps * scale
        assert len(substitutions) == 2
        # Without the error estimate, refinement runs on to the rounding
        # floor and stops at the first correction that fails to halve,
        # before the cap. That correction is computed but not added.
        monkeypatch.setattr(linalg, "REFINE_TOL", 0.0)
        substitutions.clear()
        x = linalg.solve(system, rhs)
        computed = len(substitutions) - 1
        assert 2 <= computed < linalg.REFINE_STEPS
        u = system.u
        replay = linalg._substitute(u, rhs)
        for _ in range(computed - 1):
            replay = replay + linalg._substitute(u, linalg._residual(system, rhs, replay))
        assert np.array_equal(x, replay)
        assert np.max(np.abs(x - x_star)) <= 2 * eps * scale


class TestHatDiagonal:
    def test_lambda_zero_gives_ones(self):
        s = linalg.assembler(np.full(6, 2.0))(0.0)
        assert np.allclose(linalg.hat_diagonal(s), np.ones(6), atol=1e-14)

    def test_n3_matches_dense_inverse(self):
        s = linalg.assembler(np.ones(3))(1.0)
        h = linalg.hat_diagonal(s)
        h_dense = np.diagonal(np.linalg.inv(dense_system(np.ones(3), 1.0)))
        assert np.allclose(h, h_dense, atol=1e-14)

    def test_n50_matches_dense(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.1, 4.0, 50)
        lam = 2.5
        s = linalg.assembler(w)(lam)
        h = linalg.hat_diagonal(s)
        h_dense = np.diagonal(np.linalg.inv(dense_system(w, lam)) @ np.diag(w))
        assert np.max(np.abs(h - h_dense)) <= 1e-10

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(0.3, 2.0, 40)
        lambdas = [0.0, 0.1, 1.0, 10.0, 100.0]
        diags = [linalg.hat_diagonal(linalg.assembler(w)(lam)) for lam in lambdas]
        for h in diags:
            assert np.all(h >= -1e-12) and np.all(h <= 1.0 + 1e-12)
        for lo, hi in zip(diags, diags[1:]):
            assert np.all(hi <= lo + 1e-10)

    def test_trace_decreases(self):
        w = np.ones(30)
        traces = [
            float(np.sum(linalg.hat_diagonal(linalg.assembler(w)(lam))))
            for lam in (0.1, 1.0, 10.0)
        ]
        assert traces[0] > traces[1] > traces[2]


class TestAgainstRecurrence:
    """``hat_diagonal`` against the recurrence as a Python sweep, on 420
    systems: n in [3, 60] (n = 3 or 4 for every tenth seed, where the
    zero padding of c and e is read), weights U(0.1, 2) with the interior
    ones zero with probability 0.2 when lam > 0. Both read the same
    factor, so they differ only in rounding. Each bound is about 10x the
    largest relative difference seen over 2000 seeds."""

    TOLERANCES = {
        0.0: 1e-15,
        1e-3: 2e-15,
        1.0: 1e-14,
        1e3: 2.5e-13,
        1e6: 2e-11,
        1e9: 1e-11,
        1e13: 1e-11,
    }

    def test_matches_recurrence(self):
        compared = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.choice([3, 4])) if seed % 10 == 0 else int(rng.integers(3, 61))
            positive = rng.uniform(0.1, 2.0, n)
            for lam, tol in self.TOLERANCES.items():
                w = positive.copy()
                if lam > 0:
                    w[1:-1][rng.random(n - 2) < 0.2] = 0.0
                try:
                    s = linalg.assembler(w)(lam)
                except NotPositiveDefiniteError:
                    continue  # below the conditioning limit at lam = 1e13
                expected = recurrence_hat_diagonal(s)
                h = linalg.hat_diagonal(s)
                zero = w == 0
                assert np.array_equal(h[zero], np.zeros(zero.sum())), (seed, lam)
                rel = np.abs(h[~zero] - expected[~zero]) / expected[~zero]
                assert np.max(rel) <= tol, (seed, lam, np.max(rel))
                compared += 1
        assert compared >= 400

    def test_bad_lapack_argument_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "dtbtrs", lambda ab, b, **kwargs: (b, -1))
        with pytest.raises(np.linalg.LinAlgError, match="info = -1"):
            linalg.hat_diagonal(linalg.assembler(np.ones(5))(1.0))


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
        s = linalg.assembler(w)(lam)
        dense = dense_system(w, lam)
        x = linalg.solve(s, rhs)
        x_dense = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(x - x_dense) <= 1e-8 * np.linalg.norm(x_dense)
        h = linalg.hat_diagonal(s)
        h_dense = np.diagonal(np.linalg.inv(dense)) * w
        assert np.max(np.abs(h - h_dense)) <= 1e-9


class TestAgainstMpOracle:
    """``solve`` and diag(M^{-1}) against a 60-digit Cholesky of the exact
    problem, M built in mpmath from the float64 weights and lam, n = 300,
    weights U(0.05, 5), a standard normal rhs, ten seeds. The solve error
    is max|x - x*| / max|x*|, the diagonal error the largest relative
    error of an entry. Each solve bound is about 10x the worst error seen
    over 30 seeds: 2.1e-16, 2.0e-16, 3.9e-16, 2.1e-16, 9.1e-16 and
    1.2e-15 from lam = 1e-3 to 1e13. The leverages come from the factor
    of the rounded bands, unrefined; their worst errors, 5.4e-16 to
    4.0e-4, are within the bounds that held against the rounded
    problem, which stay."""

    TOLERANCES = {  # lam: (solve, diag(M^{-1}))
        1e-3: (2e-15, 5e-15),
        1.0: (2e-15, 1e-14),
        1e3: (4e-15, 1.5e-12),
        1e6: (2e-15, 4e-10),
        1e9: (1e-14, 4e-7),
        1e13: (1.2e-14, 3e-3),
    }

    def test_oracle_matches_dense(self):
        w = np.random.default_rng(0).uniform(0.05, 5.0, 40)
        rhs = np.random.default_rng(1).standard_normal(40)
        x, z = solve_and_inverse_diagonal(w, 2.0, rhs)
        dense = dense_system(w, 2.0)
        assert np.max(np.abs(x - np.linalg.solve(dense, rhs))) <= 1e-14
        assert np.max(np.abs(z - np.diagonal(np.linalg.inv(dense)))) <= 1e-14

    @pytest.mark.parametrize("lam", sorted(TOLERANCES))
    def test_extreme_lambda(self, lam):
        solve_tol, diag_tol = self.TOLERANCES[lam]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            w = rng.uniform(0.05, 5.0, 300)
            rhs = rng.standard_normal(300)
            s = linalg.assembler(w)(lam)
            x_star, z_star = solve_and_inverse_diagonal(w, lam, rhs)
            x = linalg.solve(s, rhs)
            z = linalg.hat_diagonal(s) / w
            assert np.max(np.abs(x - x_star)) <= solve_tol * np.max(np.abs(x_star)), seed
            assert np.max(np.abs(z - z_star) / z_star) <= diag_tol, seed


def test_select_factors_each_candidate_once(monkeypatch):
    calls = []
    real = linalg.dpbtrf

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "dpbtrf", counting)
    y = np.sin(np.linspace(0, 6, 80)) + 0.1 * np.random.default_rng(4).standard_normal(80)
    for method in smoothers.PENALIZED:
        calls.clear()
        select.select_parameter(y, method=method)
        assert len(calls) == len(select.DEFAULT_GRID)


def fresh_interpreter(code):
    """The printed words of ``code`` run in a fresh interpreter with this
    checkout's src/ first on its path, so no module of this process counts."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r})\n{code}"],
        capture_output=True, text=True, check=True,
    )
    return result.stdout.split()


# A solve and a hat diagonal through all three routines; the digest of
# their bytes.
SOLVE_DIGEST = (
    "import hashlib, numpy as np\n"
    "rng = np.random.default_rng(7)\n"
    "system = linalg.assembler(rng.uniform(0.05, 5.0, 300))(1e3)\n"
    "x = linalg.solve(system, rng.standard_normal(300))\n"
    "print(hashlib.sha256(x.tobytes() + linalg.hat_diagonal(system).tobytes()).hexdigest())\n"
)


class TestLapackLoad:
    @pytest.mark.parametrize("first", ["lsaps.linalg", "scipy.linalg.lapack"])
    def test_routines_are_scipys(self, first):
        # Either import order: the three routines are the objects that
        # scipy.linalg.lapack exports, from one extension module object.
        code = (
            f"import {first}\n"
            "import scipy.linalg\n"
            "from lsaps import linalg\n"
            "from scipy.linalg import lapack\n"
            "print(*(getattr(linalg, f) is getattr(lapack, f) for f in ('dpbtrf', 'dpbtrs', 'dtbtrs')))\n"
            "print(sys.modules['scipy.linalg._flapack'] is lapack._flapack is linalg._lapack)\n"
            "print(linalg.LinAlgError is scipy.linalg.LinAlgError)\n"
        )
        assert fresh_interpreter(code) == ["True"] * 5

    def test_fallback_without_the_extension(self):
        # With no extension suffix to search for, the direct load finds
        # nothing and the routines come from scipy.linalg.lapack; the
        # interpreter's own import system keeps its suffixes.
        hidden = fresh_interpreter(
            "import importlib.machinery\n"
            "importlib.machinery.EXTENSION_SUFFIXES.clear()\n"
            "from lsaps import linalg\n"
            "from scipy.linalg import lapack\n"
            "print(linalg._lapack is lapack)\n" + SOLVE_DIGEST
        )
        direct = fresh_interpreter("from lsaps import linalg\n" + SOLVE_DIGEST)
        assert hidden[0] == "True"
        assert hidden[1:] == direct

    @pytest.mark.parametrize("step", ["create_module", "exec_module"])
    def test_fallback_when_the_extension_does_not_load(self, step):
        # Where scipy's package init sets up the library path, the direct
        # load fails: the extension loader raises once, for _flapack, and
        # the routines come from scipy.linalg.lapack, with no half-loaded
        # module left in sys.modules.
        failed = fresh_interpreter(
            "from importlib.machinery import ExtensionFileLoader\n"
            f"load = ExtensionFileLoader.{step}\n"
            "failed = []\n"
            "def failing(self, arg):\n"
            "    if self.name == 'scipy.linalg._flapack' and not failed:\n"
            "        failed.append(arg)\n"
            "        raise ImportError('the library path is not set up')\n"
            "    return load(self, arg)\n"
            f"ExtensionFileLoader.{step} = failing\n"
            "from lsaps import linalg\n"
            "from scipy.linalg import lapack\n"
            "print(bool(failed), linalg._lapack is lapack)\n"
            "print(sys.modules['scipy.linalg._flapack'] is lapack._flapack is not failed[0])\n"
            + SOLVE_DIGEST
        )
        direct = fresh_interpreter("from lsaps import linalg\n" + SOLVE_DIGEST)
        assert failed[:3] == ["True"] * 3
        assert failed[3:] == direct
