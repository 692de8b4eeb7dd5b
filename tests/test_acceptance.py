"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run pytest with ``-s`` or rely on
captured output on failure) and then asserts, so a red run still shows
exactly which gates were met.
"""

import time

import numpy as np
import pytest

from lsaps import linalg
from lsaps.localfit import local_quadratic_curvature
from lsaps.peaks import detect_peaks
from lsaps.select import loo_residuals, select_parameter
from lsaps.sim import (
    COMPARISON_GRIDS,
    SimScenario,
    add_noise,
    generate_clean,
    rrse_second_derivative,
    run_benchmark,
    snr,
)
from lsaps.smoothers import smooth, smooth_lsa_ps, smooth_ps
from scoring import match_peaks, sigma_for_target_snr, true_peak_indices


def _report(number, label, ok):
    print(f"\nCRITERION {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def dense_matrix(weights, lam):
    n = len(weights)
    d = np.zeros((n - 2, n))
    for r in range(n - 2):
        d[r, r : r + 3] = (1.0, -2.0, 1.0)
    return np.diag(np.asarray(weights, dtype=float)) + lam * d.T @ d


def test_criterion_1_solver_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = int(rng.choice([10, 50, 200]))
        w = rng.uniform(0.05, 5.0, n)
        lam = float(10.0 ** rng.uniform(-3, 3))
        system = linalg.assembler(w)(lam)
        b = rng.standard_normal(n)
        x = linalg.solve(system, b)
        x_dense = np.linalg.solve(dense_matrix(w, lam), b)
        rel = np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    print(f"\n  worst relative error {worst:.3e}, runtime {elapsed:.2f} s")
    _report(1, "solver oracle equivalence", ok)


def test_criterion_2_closed_form_spot_check():
    x = smooth_ps(np.array([0.0, 1.0, 0.0]), 1.0)
    expected = np.array([2.0, 3.0, 2.0]) / 7.0
    dev = float(np.max(np.abs(x - expected)))
    print(f"\n  max deviation {dev:.3e}")
    _report(2, "closed-form PS spot check", dev <= 1e-12)


def test_criterion_3_limit_behavior():
    rng = np.random.default_rng(1003)
    n = 100
    t = np.arange(n, dtype=float)
    vander = np.vstack([t, np.ones(n)]).T
    worst_identity = 0.0
    worst_line = 0.0
    for _ in range(20):
        y = rng.standard_normal(n) * rng.uniform(0.5, 3.0) + rng.uniform(-5, 5)
        worst_identity = max(
            worst_identity, float(np.max(np.abs(smooth_ps(y, 0.0) - y)))
        )
        coef, *_ = np.linalg.lstsq(vander, y, rcond=None)
        line = vander @ coef
        x = smooth_ps(y, 1e12)
        worst_line = max(
            worst_line, float(np.linalg.norm(x - line) / np.linalg.norm(line))
        )
    ok = worst_identity == 0.0 and worst_line <= 1e-6
    print(f"\n  lam=0 max deviation {worst_identity:.3e}, "
          f"lam=1e12 worst relative line error {worst_line:.3e}")
    _report(3, "limit behavior", ok)


def test_criterion_4_curvature_closed_form():
    rng = np.random.default_rng(1004)
    xi = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    vander = np.vander(xi, 3)
    worst = 0.0
    for _ in range(1000):
        window = rng.standard_normal(5) * rng.uniform(0.1, 10.0)
        # Embed the window so the interior point sees exactly it.
        w = local_quadratic_curvature(window)
        coef, *_ = np.linalg.lstsq(vander, window, rcond=None)
        worst = max(worst, abs(w[2] - (2.0 * coef[0]) ** 2))
    exact = local_quadratic_curvature(np.array([4.0, 1.0, 0.0, 1.0, 4.0]))[2]
    ok = worst <= 1e-12 and exact == 4.0
    print(f"\n  worst deviation {worst:.3e}, xi^2 window weight {exact}")
    _report(4, "curvature closed form", ok)


def test_criterion_5_loo_identity():
    rng = np.random.default_rng(1005)
    n = 50
    y = np.cumsum(rng.standard_normal(n)) + 0.3 * rng.standard_normal(n)
    worst = 0.0
    checked = 0
    for method in ("ps", "lsa-ps"):
        if method == "ps":
            weights = np.ones(n)
            lambdas = 10.0 ** rng.uniform(-2, 3, 4)
        else:
            raw = local_quadratic_curvature(y)
            weights = np.minimum(raw, np.median(raw))
            lambdas = 10.0 ** rng.uniform(-2, 3, 4) * np.median(raw)
        for lam in lambdas:
            system = linalg.assembler(weights)(float(lam))
            x = linalg.solve(system, weights * y)
            h = linalg.hat_diagonal(system)
            r = loo_residuals(y, x, h)
            for i in range(n):
                if h[i] >= 1.0 - 1e-6:
                    continue
                w_drop = weights.copy()
                w_drop[i] = 0.0
                sys_drop = linalg.assembler(w_drop)(float(lam))
                x_drop = linalg.solve(sys_drop, w_drop * y)
                worst = max(worst, abs(r[i] - (y[i] - x_drop[i])))
                checked += 1
    ok = worst <= 1e-8 and checked > 0
    print(f"\n  worst LOO deviation {worst:.3e} over {checked} points")
    _report(5, "leave-one-out identity", ok)


def test_criterion_6_equivariance():
    rng = np.random.default_rng(1006)
    worst_lsa = 0.0
    worst_rev = 0.0
    for trial in range(5):
        y = np.cumsum(rng.standard_normal(80)) + rng.standard_normal(80)
        for clip in (True, False):
            base, _ = smooth_lsa_ps(y, 2.0, clip=clip)
            scale = float(rng.uniform(0.5, 10.0))
            shift = float(rng.uniform(-20.0, 20.0))
            xs, _ = smooth_lsa_ps(scale * y, 2.0, clip=clip)
            xc, _ = smooth_lsa_ps(y + shift, 2.0, clip=clip)
            ref = np.linalg.norm(base)
            worst_lsa = max(worst_lsa, np.linalg.norm(xs - scale * base) / (scale * ref))
            worst_lsa = max(worst_lsa, np.linalg.norm(xc - (base + shift)) / ref)
        for lam in (0.1, 10.0):
            fwd = smooth_ps(y, lam)
            rev = smooth_ps(y[::-1], lam)[::-1]
            worst_rev = max(worst_rev, float(np.max(np.abs(fwd - rev))))
    ok = worst_lsa <= 1e-10 and worst_rev <= 1e-12
    print(f"\n  LSA-PS worst relative equivariance error {worst_lsa:.3e}, "
          f"PS worst reversal deviation {worst_rev:.3e}")
    _report(6, "equivariance suite", ok)


def _best_parameter_scores(clean, noisy, method):
    best_snr = -np.inf
    best_rrse = np.inf
    for parameter in COMPARISON_GRIDS[method]:
        smoothed = smooth(noisy, method, parameter)[0]
        best_snr = max(best_snr, snr(clean, smoothed))
        best_rrse = min(best_rrse, rrse_second_derivative(smoothed, clean))
    return best_snr, best_rrse


def test_criterion_7_best_parameter_ordering():
    t0 = time.perf_counter()
    ok_all = True
    for n in (500, 1000):
        scenario = SimScenario(n=n)
        clean = generate_clean(scenario)
        sigma = sigma_for_target_snr(clean, 34.0)
        snr_wins = 0
        rrse_wins = 0
        input_dbs = []
        for seed in range(10):
            noisy, input_db = add_noise(clean, sigma, seed)
            input_dbs.append(input_db)
            ps_snr, ps_rrse = _best_parameter_scores(clean, noisy, "ps")
            lsa_snr, lsa_rrse = _best_parameter_scores(clean, noisy, "lsa-ps")
            snr_wins += lsa_snr > ps_snr
            rrse_wins += lsa_rrse < ps_rrse
        in_band = all(20.0 <= db <= 35.0 for db in input_dbs)
        print(f"\n  n={n}: SNR wins {snr_wins}/10, RRSE wins {rrse_wins}/10, "
              f"input SNR {min(input_dbs):.1f}-{max(input_dbs):.1f} dB")
        ok_all = ok_all and snr_wins >= 7 and rrse_wins >= 7 and in_band
    elapsed = time.perf_counter() - t0
    print(f"  runtime {elapsed:.1f} s")
    _report(7, "best-parameter ordering", ok_all and elapsed < 300.0)


def test_criterion_8_auto_pipeline_peak_recovery():
    t0 = time.perf_counter()
    scenario = SimScenario(n=1000)
    clean = generate_clean(scenario)
    truth = true_peak_indices(scenario)
    sigma = sigma_for_target_snr(clean, 34.0)
    at_least = 0
    strictly_more = 0
    for seed in range(10):
        noisy, _ = add_noise(clean, sigma, seed)
        hits = {}
        for method in ("ps", "lsa-ps"):
            result = select_parameter(noisy, method=method)
            found = detect_peaks(result.smoothed, 20)
            hits[method] = match_peaks(found, truth, tolerance=3).hits
        at_least += hits["lsa-ps"] >= hits["ps"]
        strictly_more += hits["lsa-ps"] > hits["ps"]
    elapsed = time.perf_counter() - t0
    print(f"\n  >= in {at_least}/10 seeds, > in {strictly_more}/10 seeds, "
          f"runtime {elapsed:.1f} s")
    _report(8, "auto pipeline peak recovery",
            at_least >= 8 and strictly_more >= 5 and elapsed < 120.0)


def test_criterion_9_peak_detector_invariance():
    rng = np.random.default_rng(1009)
    ok = True
    for _ in range(100):
        n = int(rng.integers(50, 200))
        t = np.linspace(0.0, 1.0, n)
        # Random smooth signal: a few sinusoids plus a gentle polynomial.
        y = np.zeros(n)
        for _ in range(int(rng.integers(2, 5))):
            y += rng.uniform(0.5, 2.0) * np.sin(
                2.0 * np.pi * rng.uniform(0.5, 6.0) * t + rng.uniform(0, 2 * np.pi)
            )
        base = [p.index for p in detect_peaks(y, 10)]
        scale = float(rng.uniform(0.1, 50.0))
        slope = float(rng.uniform(-10.0, 10.0))
        offset = float(rng.uniform(-100.0, 100.0))
        scaled = [p.index for p in detect_peaks(scale * y, 10)]
        trended = [p.index for p in detect_peaks(y + slope * np.arange(n) + offset, 10)]
        ok = ok and scaled == base and trended == base
    print(f"\n  invariance held on all trials: {ok}")
    _report(9, "peak-detector invariance", ok)


def test_criterion_10_benchmark_determinism():
    scenario = SimScenario(peaks=SimScenario().peaks[:5], x_range=(0.0, 40.0))
    grids = {"ps": [1.0, 10.0], "lsa-ps": [1.0], "gaussian": [3, 5], "sg": [(5, 2)]}
    runs = [
        run_benchmark(scenario, [200, 350], [0.05, 0.2], grids, [0, 1, 2])
        for _ in range(2)
    ]

    def value_columns(report):
        # Every column of the three tables but the cells' time_s.
        cells = {name: column for name, column in report.cells.items() if name != "time_s"}
        return cells, report.aggregates, report.best

    ok = value_columns(runs[0]) == value_columns(runs[1])
    print(f"\n  identical value columns across reruns: {ok}")
    _report(10, "benchmark determinism", ok)
