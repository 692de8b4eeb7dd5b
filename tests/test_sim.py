import math
import statistics
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsaps import sim, smoothers
from lsaps.errors import (InvalidConfigError, InvalidInputError, InvalidSizeError,
                          UndefinedMetricError)
from lsaps.sim import (
    COMPARISON_GRIDS,
    DEFAULT_PEAKS,
    NOISE_FREE_DB,
    Background,
    LorentzianPeak,
    SimScenario,
    add_noise,
    generate_clean,
    rrse_second_derivative,
    run_benchmark,
    snr,
)
from lsaps.smoothers import grid_blocks, smooth
from scoring import sigma_for_target_snr, true_peak_indices


class TestScenario:
    def test_defaults(self):
        sc = SimScenario()
        assert sc.n == 1000
        assert len(sc.peaks) == 15
        t = sc.grid()
        assert t[0] == 0.0 and t[-1] == 100.0 and len(t) == 1000

    def test_true_peak_indices_nearest(self):
        sc = SimScenario(peaks=(LorentzianPeak(50.0, 1.0, 1.0),), n=101, x_range=(0.0, 100.0))
        assert true_peak_indices(sc) == [50]

    def test_validation(self):
        with pytest.raises(ValueError):
            SimScenario(peaks=())
        with pytest.raises(InvalidSizeError):
            SimScenario(n=4)
        with pytest.raises(ValueError):
            SimScenario(x_range=(5.0, 1.0))
        with pytest.raises(ValueError):
            SimScenario(peaks=(LorentzianPeak(200.0, 1.0, 1.0),))

    def test_peak_validation(self):
        with pytest.raises(ValueError):
            LorentzianPeak(0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            LorentzianPeak(0.0, 1.0, 0.0)


class TestGenerate:
    def test_single_lorentzian_closed_form(self):
        sc = SimScenario(peaks=(LorentzianPeak(5.0, 2.0, 1.0),), n=11, x_range=(0.0, 10.0))
        clean = generate_clean(sc)
        # Height at the center, half height one halfwidth away.
        assert clean[5] == pytest.approx(2.0)
        assert clean[4] == pytest.approx(1.0)
        assert clean[6] == pytest.approx(1.0)
        # Value at distance d: h / (1 + (d / hw)^2).
        assert clean[8] == pytest.approx(2.0 / (1.0 + 9.0), abs=1e-12)

    def test_superposition(self):
        p1 = LorentzianPeak(3.0, 1.0, 0.5)
        p2 = LorentzianPeak(7.0, 2.0, 0.8)
        kw = dict(n=51, x_range=(0.0, 10.0))
        both = generate_clean(SimScenario(peaks=(p1, p2), **kw))
        a = generate_clean(SimScenario(peaks=(p1,), **kw))
        b = generate_clean(SimScenario(peaks=(p2,), **kw))
        assert np.allclose(both, a + b, atol=1e-12)

    def test_background_added(self):
        bg = Background(hump_amplitude=2.0, hump_center=5.0, hump_width=3.0, slope=0.1, offset=1.0)
        sc = SimScenario(peaks=(LorentzianPeak(5.0, 1.0, 0.5),), n=21, x_range=(0.0, 10.0), background=bg)
        plain = generate_clean(SimScenario(peaks=sc.peaks, n=21, x_range=(0.0, 10.0)))
        with_bg = generate_clean(sc)
        t = sc.grid()
        assert np.allclose(with_bg - plain, bg.evaluate(t), atol=1e-12)


class TestNoise:
    def test_sigma_zero_noise_free(self):
        clean = generate_clean(SimScenario(n=50))
        noisy, db = add_noise(clean, 0.0, 3)
        assert db == NOISE_FREE_DB
        assert np.array_equal(noisy, clean)
        assert noisy is not clean

    def test_seeded_reproducibility(self):
        clean = generate_clean(SimScenario(n=200))
        a, db_a = add_noise(clean, 0.5, 42)
        b, db_b = add_noise(clean, 0.5, 42)
        c, _ = add_noise(clean, 0.5, 43)
        assert np.array_equal(a, b) and db_a == db_b
        assert not np.array_equal(a, c)

    def test_realized_snr_matches_naive_oracle(self):
        clean = generate_clean(SimScenario(n=300))
        noisy, db = add_noise(clean, 0.3, 7)
        eps = noisy - clean
        oracle = 10.0 * math.log10(
            sum(v * v for v in clean) / sum(e * e for e in eps)
        )
        assert db == pytest.approx(oracle, abs=1e-9)

    def test_negative_sigma(self):
        clean = generate_clean(SimScenario(n=50))
        with pytest.raises(InvalidConfigError):
            add_noise(clean, -0.1, 0)


class TestMetrics:
    def test_snr_naive_oracle(self):
        rng = np.random.default_rng(0)
        ref = rng.standard_normal(100)
        est = ref + 0.1 * rng.standard_normal(100)
        oracle = 10.0 * math.log10(
            sum(v * v for v in ref) / sum((a - b) ** 2 for a, b in zip(est, ref))
        )
        assert snr(ref, est) == pytest.approx(oracle, abs=1e-9)

    def test_snr_exact_match_is_inf(self):
        ref = np.ones(10)
        assert snr(ref, ref.copy()) == NOISE_FREE_DB

    def test_snr_zero_reference(self):
        with pytest.raises(UndefinedMetricError):
            snr(np.zeros(5), np.ones(5))

    def test_snr_ten_db_per_decade(self):
        ref = np.ones(1000)
        assert snr(ref, ref + 0.1) == pytest.approx(20.0, abs=1e-9)
        assert snr(ref, ref + 0.01) == pytest.approx(40.0, abs=1e-9)

    def test_sigma_for_target_snr_round_trip(self):
        clean = generate_clean(SimScenario(n=2000))
        sigma = sigma_for_target_snr(clean, 25.0)
        realized = [add_noise(clean, sigma, s)[1] for s in range(8)]
        assert abs(np.mean(realized) - 25.0) < 0.5

    def test_rrse_naive_oracle(self):
        rng = np.random.default_rng(1)
        true = np.cumsum(rng.standard_normal(50))
        est = true + 0.05 * rng.standard_normal(50)
        d_true = [true[i] - 2 * true[i + 1] + true[i + 2] for i in range(48)]
        d_est = [est[i] - 2 * est[i + 1] + est[i + 2] for i in range(48)]
        oracle = math.sqrt(
            sum((a - b) ** 2 for a, b in zip(d_est, d_true)) / sum(v * v for v in d_true)
        )
        assert rrse_second_derivative(est, true) == pytest.approx(oracle, abs=1e-12)

    def test_rrse_perfect_is_zero(self):
        x = np.sin(np.linspace(0, 5, 40))
        assert rrse_second_derivative(x, x) == 0.0

    def test_rrse_affine_truth_undefined(self):
        with pytest.raises(UndefinedMetricError):
            rrse_second_derivative(np.ones(10), np.arange(10.0))

    def test_two_d_reference_or_truth_is_a_size_error(self):
        # A square pair made snr raise TypeError from float() of a matrix.
        with pytest.raises(InvalidSizeError, match=r"^reference must be 1-d, got shape \(3, 3\)$"):
            snr(np.eye(3), np.ones((3, 3)))

    def test_constant_two_d_pair_is_not_called_affine(self):
        # np.diff took the last axis of each row, all zeros: "true signal is affine".
        with pytest.raises(InvalidSizeError, match=r"^truth must be 1-d, got shape \(3, 4\)$"):
            rrse_second_derivative(np.ones((3, 4)), np.ones((3, 4)))

    def test_infinite_estimate_names_its_index(self):
        # It raised ValueError: math domain error, from log10(ref / inf).
        est = np.ones(10)
        est[6] = -np.inf
        with pytest.raises(InvalidInputError, match="^estimate must be finite, got -inf at index 6$"):
            snr(np.arange(10.0), est)

    def test_nan_estimate_is_not_scored(self):
        # Both scores used to come back as nan, silently.
        x = np.sin(np.arange(20) / 3.0)
        est = x.copy()
        est[4] = np.nan
        for score in (lambda: snr(x, est), lambda: rrse_second_derivative(est, x)):
            with pytest.raises(InvalidInputError, match="^estimate must be finite, got nan at index 4$"):
                score()

    def test_overflowing_error_energy_says_so(self):
        # A finite 1e200 squares past float64: it warned about overflow and
        # then raised ValueError: math domain error.
        est = np.ones(10)
        est[3] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UndefinedMetricError,
                               match="^the error energy of the estimate overflows float64$"):
                snr(np.ones(10), est)
            with pytest.raises(UndefinedMetricError, match="^the second-difference error energy "
                                                           "of the estimate overflows float64$"):
                rrse_second_derivative(est, np.arange(10.0) ** 2)

    def test_reference_or_truth_that_is_not_finite_is_named(self):
        x = np.sin(np.arange(20) / 3.0)
        bad = x.copy()
        bad[2] = np.inf
        with pytest.raises(InvalidInputError, match="^reference must be finite, got inf at index 2$"):
            snr(bad, x)
        with pytest.raises(InvalidInputError, match="^truth must be finite, got inf at index 2$"):
            rrse_second_derivative(x, bad)
        with pytest.raises(InvalidSizeError, match=r"^truth must be 1-d, got shape \(4, 4\)$"):
            rrse_second_derivative(np.eye(4), np.eye(4))

    @given(st.lists(st.none() | st.floats(-150, 150), min_size=1, max_size=40),
           st.integers(1, 3000), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_row_dots_are_per_row_np_dot(self, exponents, n, seed):
        # The batched product against one np.dot per row, bit for bit: one
        # row per exponent, scaled by 10**exponent, or of zeros for None.
        from lsaps.sim import _row_dots

        scales = [[0.0 if x is None else 10.0 ** x] for x in exponents]
        rows = np.random.default_rng(seed).standard_normal((len(exponents), n)) * scales
        assert np.array_equal(_row_dots(rows), np.array([np.dot(r, r) for r in rows]))

    def test_mismatched_shapes_are_a_size_error(self):
        with pytest.raises(InvalidSizeError, match=r"^estimate must have shape \(3,\), got \(4,\)$"):
            snr(np.ones(3), np.ones(4))
        with pytest.raises(InvalidSizeError, match=r"^estimate must have shape \(3,\), got \(4,\)$"):
            rrse_second_derivative(np.ones(4), np.ones(3))


def rows(table):
    """The rows of a report table held as columns, with the fields as attributes."""
    assert len({len(column) for column in table.values()}) == 1
    return [SimpleNamespace(**dict(zip(table, values))) for values in zip(*table.values())]


@pytest.fixture(scope="module")
def small_report():
    sc = SimScenario(peaks=DEFAULT_PEAKS[:4], x_range=(0.0, 30.0))
    grids = {"ps": [1.0, 10.0], "gaussian": [3], "sg": [(1, 0)]}
    return sc, grids, run_benchmark(sc, [120], [0.2], grids, [0, 1])


class TestBenchmark:
    def test_comparison_grids_cover_methods(self):
        assert set(COMPARISON_GRIDS) == {"ps", "lsa-ps", "sg", "gaussian"}
        assert (1, 0) in COMPARISON_GRIDS["sg"]
        assert all(w % 2 == 1 and 0 <= o < w for w, o in COMPARISON_GRIDS["sg"])

    def test_cell_count(self, small_report):
        _, grids, report = small_report
        per_seed = sum(len(g) for g in grids.values())
        assert len(rows(report.cells)) == 2 * per_seed

    def test_aggregates_match_cells(self, small_report):
        _, _, report = small_report
        for row in rows(report.aggregates):
            members = [
                c for c in rows(report.cells)
                if (c.resolution, c.sigma, c.method, c.parameter)
                == (row.resolution, row.sigma, row.method, row.parameter)
            ]
            assert row.seeds == len(members) == 2
            assert row.output_snr_mean == pytest.approx(
                np.mean([c.output_snr_db for c in members]), abs=1e-12
            )
            assert row.rrse_std == pytest.approx(
                np.std([c.rrse for c in members], ddof=1), abs=1e-12
            )

    def test_best_rows(self, small_report):
        _, grids, report = small_report
        # One snr row and one rrse row per method.
        assert len(rows(report.best)) == 2 * len(grids)
        for b in rows(report.best):
            method_rows = [
                r for r in rows(report.aggregates)
                if (r.resolution, r.sigma, r.method) == (b.resolution, b.sigma, b.method)
            ]
            if b.criterion == "snr":
                assert b.value == max(r.output_snr_mean for r in method_rows)
            else:
                assert b.criterion == "rrse"
                assert b.value == min(r.rrse_mean for r in method_rows)

    def test_deterministic_rerun(self, small_report):
        sc, grids, report = small_report
        again = run_benchmark(sc, [120], [0.2], grids, [0, 1])
        assert len(rows(report.cells)) == len(rows(again.cells))
        for a, b in zip(rows(report.cells), rows(again.cells)):
            assert (a.resolution, a.sigma, a.method, a.parameter, a.seed) == (
                b.resolution, b.sigma, b.method, b.parameter, b.seed
            )
            assert a.input_snr_db == b.input_snr_db
            assert a.output_snr_db == b.output_snr_db
            assert a.rrse == b.rrse

    def test_ps_factors_once_per_resolution(self, monkeypatch):
        # 2 resolutions x 2 sigmas x 3 seeds on the 18-lambda grid: PS's
        # factors depend on the resolution alone, 36 of them, while LSA-PS
        # factors its own weights for each of the 12 signals. A second
        # sweep factors again: no plan outlives its run_benchmark.
        from lsaps import linalg

        calls = []
        cholesky = linalg._cholesky
        monkeypatch.setattr(linalg, "_cholesky", lambda ab: calls.append(1) or cholesky(ab))
        for method, factors in (("ps", 36), ("lsa-ps", 216), ("ps", 36)):
            calls.clear()
            grids = {method: COMPARISON_GRIDS[method]}
            report = run_benchmark(SimScenario(n=100), [100, 150], [0.05, 0.2], grids, [0, 1, 2])
            assert len(report.cells["method"]) == 12 * 18 and set(report.cells["error"]) == {None}
            assert len(calls) == factors, method

    def test_error_cells_recorded_not_fatal(self):
        sc = SimScenario(peaks=DEFAULT_PEAKS[:2], x_range=(0.0, 15.0))
        # sg window 21 > n = 10: per-cell error, run continues.
        report = run_benchmark(sc, [10], [0.1], {"sg": [(21, 2)], "ps": [1.0]}, [0])
        errs = [c for c in rows(report.cells) if c.error is not None]
        assert len(errs) == 1 and errs[0].method == "sg"
        assert "InvalidSizeError" in errs[0].error
        assert any(r.method == "ps" for r in rows(report.aggregates))
        assert all(r.method != "sg" for r in rows(report.aggregates))

    @pytest.mark.parametrize("resolutions, sigmas, grids, seeds, message", [
        ([200], [0.1], {"ps": [1, 1.0, 2]}, [0], "'methods.ps' repeats the value 1.0"),
        ([200, 200], [0.1], {"ps": [1.0]}, [0], "'resolutions' repeats the value 200"),
        ([200], [0.1, 0.1], {"ps": [1.0]}, [0], "'noise_sigmas' repeats the value 0.1"),
        ([200], [0.1], {"ps": [1.0]}, [0, 0], "'seeds' repeats the value 0"),
        ([200], [0.1], {"sg": [(5, 2), (7, 2), [5, 2]]}, [0],
         r"'methods.sg' repeats the value \(5, 2\)"),
    ])
    def test_repeated_axis_value_is_rejected(self, resolutions, sigmas, grids, seeds, message):
        # Cells are aggregated by value, so a repeat would fold two grid
        # points, or two copies of one cell, into one row.
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_benchmark(SimScenario(n=200), resolutions, sigmas, grids, seeds)

    @pytest.mark.parametrize("resolutions, seeds, message", [
        ([50, 50.5], [0], r"resolutions\[1\] must be an integer, got 50.5"),
        ([50], [0, 0.5], r"seeds\[1\] must be an integer, got 0.5"),
    ])
    def test_non_integer_resolution_or_seed_is_rejected(self, resolutions, seeds, message):
        # int(50.5) would fold the second resolution into the first.
        with pytest.raises(InvalidConfigError, match=f"^{message}$"):
            run_benchmark(SimScenario(n=50), resolutions, [0.1], {"ps": [1.0]}, seeds)

    @pytest.mark.parametrize("resolutions, sigmas, grids, seeds, key", [
        ([], [0.1], {"ps": [1.0]}, [0], "resolutions"),
        ([50], [], {"ps": [1.0]}, [0], "noise_sigmas"),
        ([50], [0.1], {}, [0], "methods"),
        ([50], [0.1], {"gaussian": [], "ps": [1.0]}, [0], "methods.gaussian"),
        ([50], [0.1], {"ps": [1.0]}, [], "seeds"),
    ], ids=["resolutions", "noise_sigmas", "methods", "methods.gaussian", "seeds"])
    def test_empty_axis_is_rejected(self, resolutions, sigmas, grids, seeds, key):
        # An empty axis or grid would make a sweep of no cells, whose
        # tables hold their headers only.
        with pytest.raises(InvalidConfigError, match=f"^'{key}' must not be empty$"):
            run_benchmark(SimScenario(n=50), resolutions, sigmas, grids, seeds)

    def test_type_errors_fail_before_any_cell(self, monkeypatch):
        # A grid value of the wrong type or an unknown method fails the
        # sweep before a signal is made; a value of the right type but out
        # of range fails its own cells. An sg pair may be any 2-sequence.
        monkeypatch.setattr(sim, "generate_clean", lambda scenario: pytest.fail("a cell ran"))
        for grids, message in (
            ({"gaussian": ["a", 3]}, r"methods.gaussian\[0\] must be an integer, got a"),
            ({"median": [1]}, "unknown method 'median' in 'methods'"),
            ({"none": [None]}, "unknown method 'none' in 'methods'"),
            ({"sg": [(5, 2.0)]}, r"methods.sg\[0\]\[1\] must be an integer, got 2.0"),
        ):
            with pytest.raises(InvalidConfigError, match=f"^{message}$"):
                run_benchmark(SimScenario(n=50), [50], [0.1], grids, [0])
        monkeypatch.undo()
        report = run_benchmark(SimScenario(n=50), [50], [0.1], {"sg": [[5, 2], [61, 2]]}, [0])
        assert report.cells["parameter"] == [(5, 2), (61, 2)]
        assert report.cells["error"] == [None, "InvalidSizeError: signal length 50 < window 61"]

    def test_default_sweep_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_benchmark(SimScenario(n=500), [500], [0.2], COMPARISON_GRIDS, [0])
        assert all(c.error is None for c in rows(report.cells))


class TestReportColumns:
    def test_every_cell_matches_lone_calls(self):
        # Every cell of a small sweep recomputed alone with smooth, snr and
        # rrse_second_derivative: the same bits, Savitzky-Golay included,
        # since a lone fit takes the same interior product as its block.
        # Sigma 0 makes the identity cells, sg (1, 0) and gaussian 1,
        # noise-free; the sg grid holds failures and copies between fits of
        # one window.
        sc = SimScenario(peaks=DEFAULT_PEAKS[:5], x_range=(0.0, 40.0))
        # n = 50 fails the window 61; n = 1000 is the benchmark's size.
        grids = {
            "ps": [0.1, 10.0, -1.0],
            "lsa-ps": [1.0, 5.0],
            "sg": [(5, 2), (5, 5), (5, 3), (5, 4), (9, 2), (9, 7), (61, 2), (21, 4), (1, 0)],
            "gaussian": [1, 3, 7],
        }
        report = run_benchmark(sc, [50, 1000], [0.0, 0.1], grids, [0, 1])
        cells = rows(report.cells)
        assert len(cells) == 2 * 2 * 2 * sum(map(len, grids.values()))
        failed = 0
        for c in cells:
            clean = generate_clean(replace(sc, n=c.resolution))
            noisy, input_snr = add_noise(clean, c.sigma, c.seed)
            assert c.input_snr_db == input_snr
            try:
                x, _ = smooth(noisy, c.method, c.parameter)
            except Exception as exc:
                assert c.error == f"{type(exc).__name__}: {exc}"
                assert c.output_snr_db is None and c.rrse is None
                failed += 1
                continue
            assert c.error is None
            assert c.output_snr_db == snr(clean, x), (c.method, c.parameter)
            assert c.rrse == rrse_second_derivative(x, clean), (c.method, c.parameter)
        # ps -1 and sg (5, 5) everywhere, sg (61, 2) where n = 50.
        assert failed == 2 * 2 * (3 + 2)
        assert NOISE_FREE_DB in report.cells["output_snr_db"]

    def test_noise_free_replicates_have_zero_spread(self):
        # Sigma 0: every seed gives the same noise-free cells, whose output
        # SNR is inf; (inf - inf)**2 made their spread nan.
        from lsaps.sim import _mean_std

        report = run_benchmark(SimScenario(n=100), [100], [0.0],
                               {"sg": [(1, 0)], "gaussian": [1]}, [0, 1])
        assert report.aggregates["output_snr_mean"] == [NOISE_FREE_DB, NOISE_FREE_DB]
        assert report.aggregates["output_snr_std"] == [0.0, 0.0]
        # A mix of infinite and finite replicates has no finite spread.
        mean, std = _mean_std([NOISE_FREE_DB, 20.0])
        assert mean == NOISE_FREE_DB and math.isnan(std)

    def test_stack_scores_are_the_per_fit_formulas(self):
        # A stack scored at once against the per-fit formulas, bit for bit:
        # one np.dot per row, and np.linalg.norm's sqrt(dot(r, r)). A
        # reduction over the whole stack (einsum, sum(axis=1)) rounds
        # differently at n = 1001.
        from lsaps.sim import _Reference, _rrse_rows, _snr_rows

        rng = np.random.default_rng(3)
        clean = np.sin(np.arange(1001) / 7.0)
        stack = clean + 0.1 * rng.standard_normal((5, 1001))
        stack[2] = clean
        snrs, rrses = [], []
        for x in stack:
            err = x - clean
            energy = float(np.dot(err, err))
            snrs.append(NOISE_FREE_DB if energy == 0
                        else 10.0 * math.log10(float(np.dot(clean, clean)) / energy))
            d_true = np.diff(clean, n=2)
            rrses.append(float(np.linalg.norm(np.diff(x, n=2) - d_true))
                         / float(np.linalg.norm(d_true)))
        assert _snr_rows(_Reference(clean), stack) == snrs and snrs[2] == NOISE_FREE_DB
        assert _rrse_rows(_Reference(clean), stack) == rrses and rrses[2] == 0.0
        assert [snr(clean, x) for x in stack] == snrs
        assert [rrse_second_derivative(x, clean) for x in stack] == rrses

    def test_sg_basis_is_computed_once_per_window_and_top(self, monkeypatch):
        # A default-grid sweep over two signals: one QR per (window, top)
        # of the grid, 17 in all, and none for the second signal.
        smoothers._sg_basis.cache_clear()
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(a.shape) or qr(a))
        grid = COMPARISON_GRIDS["sg"]
        report = run_benchmark(SimScenario(n=200), [200], [0.2], {"sg": grid}, [0, 1])
        assert len(report.cells["method"]) == 2 * len(grid)
        bases = {(w, smoothers._sg_top(w, o)) for w, o in grid if 1 < w and o < w - 1}
        assert len(bases) == 17
        assert sorted(calls) == sorted((w, top + 1) for w, top in bases)

    def test_cached_basis_is_read_only(self):
        q, kernels = smoothers._sg_basis(9, 7)
        assert smoothers._sg_basis(9, 7)[0] is q
        for array in (q, kernels):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0


def _spread(values):
    """The sample standard deviation by ``statistics``, 0 for one value
    and for equal values, infinite ones included; ``statistics`` cannot
    take inf, and a mix of inf and finite values has spread nan."""
    if len(set(values)) == 1:
        return 0.0
    if not all(map(math.isfinite, values)):
        return math.nan
    return statistics.stdev(values)


def reference_report(scenario, resolutions, sigmas, grids, seeds):
    """Oracle: ``run_benchmark``'s three tables, as lists of rows, built
    naively: each cell from ``smooth``, ``snr`` and
    ``rrse_second_derivative`` alone, the aggregates with ``statistics``
    and the best rows with ``max`` and ``min``. Each fit taken alone is
    also checked against its result in ``grid_blocks``."""
    cells = []
    for n in resolutions:
        clean = generate_clean(replace(scenario, n=n))
        for sigma in sigmas:
            for seed in seeds:
                noisy, input_snr = add_noise(clean, sigma, seed)
                for method, grid in grids.items():
                    blocks = [r for _, results in grid_blocks(noisy, method, grid) for r in results]
                    assert len(blocks) == len(grid)
                    for parameter, in_grid in zip(grid, blocks):
                        row = [n, float(sigma), method, parameter, seed, input_snr]
                        try:
                            x, lam = smooth(noisy, method, parameter)
                        except Exception as exc:
                            assert (type(in_grid), str(in_grid)) == (type(exc), str(exc))
                            cells.append(row + [None, None, f"{type(exc).__name__}: {exc}"])
                            continue
                        assert np.array_equal(in_grid[0], x) and in_grid[1] == lam
                        cells.append(row + [snr(clean, x), rrse_second_derivative(x, clean), None])
    groups = {}
    for cell in cells:
        if cell[-1] is None:
            groups.setdefault(tuple(cell[:4]), []).append(cell)
    aggregates = []
    for key, members in groups.items():
        snrs, rrses = [c[6] for c in members], [c[7] for c in members]
        aggregates.append([*key, len(members), statistics.fmean(c[5] for c in members),
                           statistics.fmean(snrs), _spread(snrs),
                           statistics.fmean(rrses), _spread(rrses)])
    by_method = {}
    for row in aggregates:
        by_method.setdefault(tuple(row[:3]), []).append(row)
    best = []
    for key, rows_ in by_method.items():
        top = max(rows_, key=lambda r: r[6])
        best.append([*key, "snr", top[3], top[6]])
        top = min(rows_, key=lambda r: r[8])
        best.append([*key, "rrse", top[3], top[8]])
    return cells, aggregates, best


def _same(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


@st.composite
def sweeps(draw):
    """Small sweeps: one to five of the default peaks, one or two
    resolutions from 5 to 80, up to two sigmas (0 among them), up to
    three seeds, and non-empty grids of one to four methods holding
    failing cells: negative and overflowing lambdas, even and oversized
    windows, orders out of range."""
    k = draw(st.integers(1, 5))
    x_hi = DEFAULT_PEAKS[k - 1].center + draw(st.floats(1.0, 30.0))
    scenario = SimScenario(peaks=DEFAULT_PEAKS[:k], x_range=(0.0, x_hi))
    resolutions = draw(st.lists(st.integers(5, 80), min_size=1, max_size=2, unique=True))
    sigmas = draw(st.lists(st.sampled_from([0.0, 0.01, 0.2, 1.0]), min_size=1, max_size=2, unique=True))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=3, unique=True))
    lams = st.one_of(st.floats(-1.0, 1e4), st.sampled_from([0.0, 1e14, 1e300]))
    options = {
        "ps": st.lists(lams, min_size=1, max_size=4, unique=True),
        "lsa-ps": st.lists(lams, min_size=1, max_size=4, unique=True),
        "sg": st.lists(st.tuples(st.integers(-1, 25), st.integers(-1, 24)), min_size=1, max_size=6,
                       unique=True),
        "gaussian": st.lists(st.integers(-1, 15), min_size=1, max_size=3, unique=True),
    }
    methods = draw(st.lists(st.sampled_from(list(options)), min_size=1, max_size=4, unique=True))
    grids = {method: draw(options[method]) for method in methods}
    return scenario, resolutions, sigmas, grids, seeds


class TestAgainstNaiveReport:
    @settings(max_examples=60, deadline=None)
    @given(sweeps())
    def test_tables_match_the_naive_reference(self, sweep):
        report = run_benchmark(*sweep)
        cells, aggregates, best = reference_report(*sweep)
        assert len(report.cells["error"]) == len(cells)
        for name, column in zip(report.cells, zip(*cells)):
            assert report.cells[name] == list(column), name
        names = list(report.aggregates)
        assert len(report.aggregates["seeds"]) == len(aggregates)
        eps = np.finfo(float).eps
        for name, column in zip(names, zip(*aggregates)):
            if name.endswith("_std"):
                # The deviations from the rounded mean against statistics'
                # exact ones: the std moves by about the mean's rounding.
                means = report.aggregates[name.replace("_std", "_mean")]
                for got, want, mean in zip(report.aggregates[name], column, means):
                    assert _same(got, want) or math.isclose(
                        got, want, rel_tol=1e-12, abs_tol=4 * eps * abs(mean)), (name, got, want)
            else:
                assert all(map(_same, report.aggregates[name], column)), name
        names = list(report.best)
        assert len(report.best["value"]) == len(best)
        for name, column in zip(names, zip(*best)):
            assert all(map(_same, report.best[name], column)), name
