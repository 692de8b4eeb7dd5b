"""The benchmark's own input generator, reference solver and output checks.

Nothing here imports ``lsaps``: the inputs a workload feeds the program and
the answers its outputs are checked against come from this file alone, so a
change to ``lsaps.sim`` or to the solver cannot move either.

The reference fits solve the same banded systems as the program with
LAPACK (``scipy.linalg`` banded Cholesky) plus one step of iterative
refinement.
"""

import csv
import json
import math

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

# The 15-Lorentzian reference spectrum on [0, 100]: (center, height, halfwidth).
PEAKS = (
    (6.0, 3.0, 0.36), (12.0, 6.0, 0.24), (19.0, 1.5, 0.15), (26.0, 9.0, 0.66),
    (33.0, 0.8, 0.3), (39.0, 4.5, 0.09), (46.0, 10.0, 0.48), (52.0, 2.2, 0.27),
    (58.0, 7.5, 0.9), (65.0, 1.0, 0.3), (71.0, 5.0, 0.3), (77.0, 0.5, 0.22),
    (83.0, 8.0, 0.78), (89.0, 2.8, 0.21), (89.85, 3.5, 0.132),
)
X_RANGE = (0.0, 100.0)
# Broad Gaussian hump plus a linear ramp, as in the README's scenario.
BACKGROUND = {"hump_amplitude": 2.0, "hump_center": 50.0, "hump_width": 20.0,
              "slope": 0.01, "offset": 1.0}

# Candidate grid of ``--auto`` and the leverage cut-off of the LOO-CV loss.
AUTO_GRID = (0.001, 0.01, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0)
LEVERAGE_TOL = 1e-12
LOSS_FLOOR_RATIO = 1e-8

# Cells per (resolution, sigma, seed) of the built-in comparison grids:
# 18 PS + 18 LSA-PS lambdas, 306 SG (window, order) pairs for odd windows
# 3..35 plus the identity (1, 0), and 10 Gaussian windows.
SWEEP_CELLS_PER_COMBO = 18 + 18 + 307 + 10

# Tolerances, relative to the largest magnitude of the compared signal.
# The program prints 12 significant digits; the reference and the program
# solve the same system by different factorizations.
SMOOTH_RTOL = 1e-9
SNR_ATOL_DB = 1e-8
RRSE_RTOL = 1e-9


# ---------------------------------------------------------------- inputs

def clean_spectrum(n):
    """Grid and noise-free intensity of the reference spectrum at n points."""
    t = np.linspace(X_RANGE[0], X_RANGE[1], n)
    y = np.zeros(n)
    for center, height, halfwidth in PEAKS:
        y += height / (1.0 + ((t - center) / halfwidth) ** 2)
    b = BACKGROUND
    y += b["hump_amplitude"] * np.exp(-0.5 * ((t - b["hump_center"]) / b["hump_width"]) ** 2)
    y += b["slope"] * t + b["offset"]
    return t, y


def noise(n, sigma, seed):
    """Seeded i.i.d. Gaussian noise from numpy's PCG64 generator."""
    return np.random.default_rng(seed).standard_normal(n) * sigma


def write_spectrum(path, t, y):
    """Two tab-separated columns at full double precision."""
    np.savetxt(path, np.column_stack([t, y]), fmt="%.17g", delimiter="\t")


def sweep_scenario(resolutions, sigmas, seeds):
    """Scenario JSON for ``lsaps benchmark``; methods default to the built-in grids."""
    return {
        "peaks": [{"center": c, "height": h, "halfwidth": w} for c, h, w in PEAKS],
        "x_range": list(X_RANGE),
        "background": dict(BACKGROUND),
        "resolutions": list(resolutions),
        "noise_sigmas": list(sigmas),
        "seeds": list(seeds),
    }


# ---------------------------------------------------------------- solver

def _bands(weights, lam):
    """Upper band storage of diag(weights) + lam * D^T D for scipy."""
    n = weights.shape[0]
    d0 = np.full(n, 6.0)
    d0[[0, -1]] = 1.0
    d0[[1, -2]] = 5.0
    d1 = np.full(n - 1, -4.0)
    d1[[0, -1]] = -2.0
    ab = np.zeros((3, n))
    ab[0, 2:] = lam
    ab[1, 1:] = lam * d1
    ab[2] = weights + lam * d0
    return ab


def _matvec(ab, x):
    out = ab[2] * x
    out[:-1] += ab[1, 1:] * x[1:]
    out[1:] += ab[1, 1:] * x[:-1]
    out[:-2] += ab[0, 2:] * x[2:]
    out[2:] += ab[0, 2:] * x[:-2]
    return out


def _solve(ab, rhs):
    factor = (cholesky_banded(ab), False)
    x = cho_solve_banded(factor, rhs)
    return x + cho_solve_banded(factor, rhs - _matvec(ab, x)), factor


def curvature(y):
    """Five-point local-quadratic curvature weights (2a)^2."""
    a = np.convolve(y, [2.0, -1.0, -2.0, -1.0, 2.0], mode="valid") / 14.0
    w = np.empty(y.shape[0])
    w[2:-2] = np.square(2.0 * a)
    w[:2] = w[2]
    w[-2:] = w[-3]
    return w


def smooth_ps(y, lam):
    return _solve(_bands(np.ones(y.shape[0]), lam), y)[0]


def smooth_lsa_ps(y, lambda_bar):
    """LSA-PS with median clipping: (A + lam D^T D) x = A y, lam = lambda_bar * median."""
    raw = curvature(y)
    median = float(np.median(raw))
    w = np.minimum(raw, median)
    return _solve(_bands(w, lambda_bar * median), w * y)[0]


def _inverse_diagonal(factor):
    """diag(M^{-1}) from the banded Cholesky factor, O(n) (Takahashi et al. 1973).

    With M = L D L^T, L unit lower with bands c and e, Z = M^{-1} satisfies
    Z = D^{-1} L^{-1} + (I - L^T) Z; sweeping i from n-1 down needs only the
    entries of Z within the band.
    """
    u = factor[0]
    n = u.shape[1]
    diag = u[2]
    d = (diag * diag).tolist()
    c = (np.append(u[1, 1:], 0.0) / diag).tolist()
    e = (np.append(u[0, 2:], [0.0, 0.0]) / diag).tolist()
    z = [0.0] * n
    z1 = z2 = 0.0      # Z[i+1, i+2], Z[i+2, i+3] carried down the sweep
    zz1 = zz2 = 0.0    # Z[i+1, i+1], Z[i+2, i+2]
    for i in range(n - 1, -1, -1):
        zi2 = -(c[i] * z1 + e[i] * zz2)
        zi1 = -(c[i] * zz1 + e[i] * z1)
        zii = 1.0 / d[i] - (c[i] * zi1 + e[i] * zi2)
        z[i] = zii
        z1, zz1, zz2 = zi1, zii, zz1
    return np.array(z)


def select_lsa_ps(y, grid=AUTO_GRID):
    """LOO-CV choice of lambda_bar for clipped LSA-PS; returns (best, smoothed, losses)."""
    raw = curvature(y)
    median = float(np.median(raw))
    w = np.minimum(raw, median)
    loss_w = np.maximum(w, LOSS_FLOOR_RATIO * float(np.median(w[w > 0])))
    losses, fits = [], []
    for g in grid:
        ab = _bands(w, g * median)
        x, factor = _solve(ab, w * y)
        h = _inverse_diagonal(factor) * w
        if np.any(h >= 1.0 - LEVERAGE_TOL):
            losses.append(math.inf)
        else:
            r = (y - x) / (1.0 - h)
            losses.append(float(np.sqrt(np.mean(np.square(r) / loss_w))))
        fits.append(x)
    best = min(range(len(grid)), key=lambda j: (losses[j], -grid[j]))
    return grid[best], fits[best], losses


def peak_indices(x, k):
    """Top-k negative strict local minima of the second difference, by sharpness.

    A run of equal second differences counts once, at its leftmost index.
    """
    d = np.diff(x, n=2)
    starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
    v = d[starts]
    inner = starts[1:-1]
    keep = (v[1:-1] < 0) & (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
    cand = inner[keep]
    order = np.lexsort((cand, -np.abs(d[cand])))
    return [int(j) + 1 for j in cand[order][:k]]


def snr_db(reference, estimate):
    err = estimate - reference
    return 10.0 * math.log10(float(reference @ reference) / float(err @ err))


def rrse(estimate, truth):
    d_true = np.diff(truth, n=2)
    return float(np.linalg.norm(np.diff(estimate, n=2) - d_true) / np.linalg.norm(d_true))


# ---------------------------------------------------------------- checks

def _max_abs_diff(a, b):
    return float(np.max(np.abs(a - b))) if a.shape == b.shape else math.inf


def _read_peak_indices(path):
    with open(path) as fh:
        next(fh)
        return [int(line.split("\t")[0]) for line in fh if line.strip()]


class SmoothCheck:
    """Checks one ``lsaps smooth`` output directory against the reference fit.

    ``lambda_bar`` None means ``--auto``: the selected parameter must then
    equal the reference LOO-CV choice exactly.
    """

    def __init__(self, t, y, lambda_bar, k):
        self.t = t
        self.lambda_bar = lambda_bar
        if lambda_bar is None:
            self.selected, self.x, _ = select_lsa_ps(y)
        else:
            self.selected, self.x = lambda_bar, smooth_lsa_ps(y, lambda_bar)
        self.peaks = peak_indices(self.x, k)

    def __call__(self, out):
        """Return a list of problems; empty when the output is correct."""
        problems = []
        atol = SMOOTH_RTOL * float(np.max(np.abs(self.x)))
        smoothed = np.loadtxt(out / "smoothed.txt")
        if (smoothed.shape != (self.x.shape[0], 2)
                or _max_abs_diff(smoothed[:, 0], self.t) > SMOOTH_RTOL * float(np.max(np.abs(self.t)))
                or _max_abs_diff(smoothed[:, 1], self.x) > atol):
            problems.append("smoothed.txt differs from the reference fit")
        d2 = np.loadtxt(out / "second_derivative.txt")
        if d2.ndim != 2 or _max_abs_diff(d2[:, 1], np.diff(self.x, n=2)) > 4 * atol:
            problems.append("second_derivative.txt differs from the reference fit")
        if _read_peak_indices(out / "peaks.txt") != self.peaks:
            problems.append("peaks.txt indices differ from the reference peaks")
        summary = json.loads((out / "summary.json").read_text())
        chosen = summary.get("selected_parameter" if self.lambda_bar is None else "parameter")
        if chosen != self.selected:
            problems.append(f"parameter {chosen} != reference {self.selected}")
        return problems


def candidates_ok_ratio(out):
    """Finite-loss CV candidates over candidates tried, from summary.json."""
    curve = json.loads((out / "summary.json").read_text()).get("cv_curve")
    if not curve:
        return None
    losses = curve["losses"]
    return sum(v is not None for v in losses) / len(losses)


class SweepCheck:
    """Checks one ``lsaps benchmark`` output directory.

    Every cell must be present and error-free, every input SNR must match
    the reference noise, and a seeded sample of PS / LSA-PS cells is refit
    with the reference solver and its SNR and RRSE compared.
    """

    def __init__(self, resolutions, sigmas, seeds, sample_seed, sample_size=8):
        self.expected = SWEEP_CELLS_PER_COMBO * len(resolutions) * len(sigmas) * len(seeds)
        self.clean = {n: clean_spectrum(n)[1] for n in resolutions}
        self.noisy = {}
        self.input_snr = {}
        for n in resolutions:
            for sigma in sigmas:
                for seed in seeds:
                    y = self.clean[n] + noise(n, sigma, seed)
                    self.noisy[n, sigma, seed] = y
                    self.input_snr[n, sigma, seed] = snr_db(self.clean[n], y)
        self.sample_seed = sample_seed
        self.sample_size = sample_size
        self.cache = {}

    def _reference(self, n, sigma, seed, method, param):
        key = (n, sigma, seed, method, param)
        if key not in self.cache:
            y = self.noisy[n, sigma, seed]
            x = smooth_ps(y, param) if method == "ps" else smooth_lsa_ps(y, param)
            self.cache[key] = (snr_db(self.clean[n], x), rrse(x, self.clean[n]))
        return self.cache[key]

    def __call__(self, out):
        with open(out / "cells.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.expected:
            return [f"{len(rows)} cells, expected {self.expected}"]
        problems = []
        errors = [r for r in rows if r["error"]]
        if errors:
            problems.append(f"{len(errors)} cells failed, first: {errors[0]['error']}")
        for r in rows:
            key = (int(r["resolution"]), float(r["sigma"]), int(r["seed"]))
            if key not in self.input_snr or abs(float(r["input_snr_db"]) - self.input_snr[key]) > SNR_ATOL_DB:
                problems.append(f"input SNR of cell {key} differs from the reference noise")
                break
        fits = [r for r in rows if r["method"] in ("ps", "lsa-ps")]
        pick = np.random.default_rng(self.sample_seed).choice(len(fits), self.sample_size, replace=False)
        for i in sorted(pick):
            r = fits[i]
            ref_snr, ref_rrse = self._reference(
                int(r["resolution"]), float(r["sigma"]), int(r["seed"]), r["method"], float(r["parameter"]))
            if abs(float(r["output_snr_db"]) - ref_snr) > SNR_ATOL_DB or abs(float(r["rrse"]) - ref_rrse) > RRSE_RTOL * ref_rrse:
                problems.append(f"cell {r['method']} {r['parameter']} n={r['resolution']} differs from the reference fit")
        for name in ("aggregates.csv", "best.csv", "summary.json"):
            if not (out / name).is_file():
                problems.append(f"{name} missing")
        return problems
