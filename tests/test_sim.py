import math
import warnings

import numpy as np
import pytest

from lsaps.errors import InvalidSizeError, UndefinedMetricError
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
        with pytest.raises(ValueError):
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


@pytest.fixture(scope="module")
def small_report():
    sc = SimScenario(peaks=DEFAULT_PEAKS[:4], x_range=(0.0, 30.0))
    grids = {"ps": [1.0, 10.0], "gaussian": [3], "none": [None]}
    return sc, grids, run_benchmark(sc, [120], [0.2], grids, [0, 1])


class TestBenchmark:
    def test_comparison_grids_cover_methods(self):
        assert set(COMPARISON_GRIDS) == {"ps", "lsa-ps", "sg", "gaussian"}
        assert (1, 0) in COMPARISON_GRIDS["sg"]
        assert all(w % 2 == 1 and 0 <= o < w for w, o in COMPARISON_GRIDS["sg"])

    def test_cell_count(self, small_report):
        _, grids, report = small_report
        per_seed = sum(len(g) for g in grids.values())
        assert len(report.cells) == 2 * per_seed

    def test_aggregates_match_cells(self, small_report):
        _, _, report = small_report
        for row in report.aggregates:
            members = [
                c for c in report.cells
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
        assert len(report.best) == 2 * len(grids)
        for b in report.best:
            rows = [
                r for r in report.aggregates
                if (r.resolution, r.sigma, r.method) == (b.resolution, b.sigma, b.method)
            ]
            if b.criterion == "snr":
                assert b.value == max(r.output_snr_mean for r in rows)
            else:
                assert b.criterion == "rrse"
                assert b.value == min(r.rrse_mean for r in rows)

    def test_deterministic_rerun(self, small_report):
        sc, grids, report = small_report
        again = run_benchmark(sc, [120], [0.2], grids, [0, 1])
        for a, b in zip(report.cells, again.cells):
            assert (a.resolution, a.sigma, a.method, a.parameter, a.seed) == (
                b.resolution, b.sigma, b.method, b.parameter, b.seed
            )
            assert a.input_snr_db == b.input_snr_db
            assert a.output_snr_db == b.output_snr_db
            assert a.rrse == b.rrse

    def test_error_cells_recorded_not_fatal(self):
        sc = SimScenario(peaks=DEFAULT_PEAKS[:2], x_range=(0.0, 15.0))
        # sg window 21 > n = 10: per-cell error, run continues.
        report = run_benchmark(sc, [10], [0.1], {"sg": [(21, 2)], "ps": [1.0]}, [0])
        errs = [c for c in report.cells if c.error is not None]
        assert len(errs) == 1 and errs[0].method == "sg"
        assert "InvalidSizeError" in errs[0].error
        assert any(r.method == "ps" for r in report.aggregates)
        assert all(r.method != "sg" for r in report.aggregates)

    def test_default_sweep_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_benchmark(SimScenario(n=500), [500], [0.2], COMPARISON_GRIDS, [0])
        assert all(c.error is None for c in report.cells)
