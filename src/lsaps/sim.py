"""Synthetic Lorentzian benchmark harness.

Generates mixtures of Lorentzian peaks on a uniform grid, corrupts them
with seeded Gaussian noise, sweeps smoothing methods over parameter
grids, and scores output SNR and the root relative squared error (RRSE)
of the second differences. Noise comes from numpy's PCG64 generator via
``default_rng(seed)`` using the standard normal transform, so reports
are reproducible across platforms.
"""

import math
import numbers
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InvalidConfigError, InvalidSizeError, UndefinedMetricError
from .smoothers import smooth

NOISE_FREE_DB = math.inf


def _is_finite_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class LorentzianPeak:
    center: float
    height: float
    halfwidth: float

    def __post_init__(self):
        if not all(map(_is_finite_number, (self.center, self.height, self.halfwidth))):
            raise ValueError("peak center, height and halfwidth must be finite numbers")
        if self.height <= 0 or self.halfwidth <= 0:
            raise ValueError("height and halfwidth must be > 0")


@dataclass(frozen=True)
class Background:
    """Optional additive baseline: one broad Gaussian hump plus a ramp."""

    hump_amplitude: float = 0.0
    hump_center: float = 0.0
    hump_width: float = 1.0
    slope: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if not all(_is_finite_number(getattr(self, f.name)) for f in fields(self)):
            raise ValueError("background values must be finite numbers")
        if self.hump_width <= 0:
            raise ValueError("background hump_width must be > 0")

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        hump = self.hump_amplitude * np.exp(
            -0.5 * ((t - self.hump_center) / self.hump_width) ** 2
        )
        return hump + self.slope * t + self.offset


# Fixed default scenario: 15 Lorentzians on [0, 100] with heights
# spanning a 20x range (0.5 to 10), halfwidths spanning a 10x range
# (0.09 to 0.9), and one close pair at centers 89.0 and 89.85. Several
# weak, narrow peaks sit near the noise floor at moderate SNR, which is
# what makes peak-preservation differences between smoothers visible.
DEFAULT_PEAKS = (
    LorentzianPeak(6.0, 3.0, 0.36),
    LorentzianPeak(12.0, 6.0, 0.24),
    LorentzianPeak(19.0, 1.5, 0.15),
    LorentzianPeak(26.0, 9.0, 0.66),
    LorentzianPeak(33.0, 0.8, 0.3),
    LorentzianPeak(39.0, 4.5, 0.09),
    LorentzianPeak(46.0, 10.0, 0.48),
    LorentzianPeak(52.0, 2.2, 0.27),
    LorentzianPeak(58.0, 7.5, 0.9),
    LorentzianPeak(65.0, 1.0, 0.3),
    LorentzianPeak(71.0, 5.0, 0.3),
    LorentzianPeak(77.0, 0.5, 0.22),
    LorentzianPeak(83.0, 8.0, 0.78),
    LorentzianPeak(89.0, 2.8, 0.21),
    LorentzianPeak(89.85, 3.5, 0.132),
)

DEFAULT_RANGE = (0.0, 100.0)

# Parameter grids for the quantitative best-parameter comparison.
_LAMBDA_GRID = (
    0.0001, 0.001, 0.01, 0.1, 0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 50, 100,
)
COMPARISON_GRIDS = {
    "ps": _LAMBDA_GRID,
    "lsa-ps": _LAMBDA_GRID,
    "sg": tuple(
        (w, o) for w in range(3, 36, 2) for o in range(1, w)
    ) + ((1, 0),),
    "gaussian": tuple(range(1, 11)),
}


@dataclass(frozen=True)
class SimScenario:
    peaks: tuple = DEFAULT_PEAKS
    n: int = 1000
    x_range: tuple = DEFAULT_RANGE
    background: Background | None = None

    def __post_init__(self):
        if len(self.peaks) < 1:
            raise ValueError("scenario needs at least one peak")
        if self.n < 5:
            raise InvalidSizeError(f"scenario needs n >= 5, got n={self.n}")
        lo, hi = self.x_range
        if not (_is_finite_number(lo) and _is_finite_number(hi) and lo < hi):
            raise ValueError("x_range must be two increasing finite numbers")
        for p in self.peaks:
            if not lo <= p.center <= hi:
                raise ValueError(f"peak center {p.center} outside x_range")

    def grid(self):
        lo, hi = self.x_range
        return np.linspace(lo, hi, self.n)


def generate_clean(scenario: SimScenario):
    """The Lorentzian mixture, plus the optional background, sampled on
    ``scenario.grid()``: one intensity array.

    Raises InvalidConfigError if the signal's sum of squares is not
    finite: its SNR could not be scored.
    """
    t = scenario.grid()
    intensity = np.zeros_like(t)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in scenario.peaks:
            intensity += p.height / (1.0 + ((t - p.center) / p.halfwidth) ** 2)
        if scenario.background is not None:
            intensity += scenario.background.evaluate(t)
        energy = float(np.dot(intensity, intensity))
    if not math.isfinite(energy):
        raise InvalidConfigError("the clean signal overflows: its sum of squares is not finite")
    return intensity


def add_noise(clean, sigma: float, seed: int):
    """Add seeded i.i.d. Gaussian noise to the intensity array ``clean``.

    Returns (noisy, realized SNR in dB); for sigma = 0, a copy of
    ``clean`` and ``NOISE_FREE_DB``. Raises InvalidConfigError, for
    sigma > 0, unless the sums of squares of the clean signal and of the
    noise are both positive and finite: the realized SNR is their ratio.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    clean = np.asarray(clean, dtype=float)
    if sigma == 0:
        return clean.copy(), NOISE_FREE_DB
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        eps = rng.standard_normal(clean.shape[0]) * sigma
        signal = float(np.dot(clean, clean))
        noise = float(np.dot(eps, eps))
    if not (0 < signal < math.inf and 0 < noise < math.inf):
        raise InvalidConfigError(
            f"noise sigma {sigma:g}: the sum of squares of the clean signal or of the "
            "noise is not a positive finite number"
        )
    return clean + eps, 10.0 * math.log10(signal / noise)


def snr(reference, estimate) -> float:
    """10 log10(||reference||^2 / ||estimate - reference||^2) in dB."""
    reference = np.asarray(reference, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if reference.shape != estimate.shape:
        raise ValueError("reference and estimate must have equal shapes")
    ref_energy = float(np.dot(reference, reference))
    if ref_energy == 0:
        raise UndefinedMetricError("SNR undefined for a zero reference")
    err = estimate - reference
    err_energy = float(np.dot(err, err))
    if err_energy == 0:
        return NOISE_FREE_DB
    return 10.0 * math.log10(ref_energy / err_energy)


def rrse_second_derivative(x_star, x_true) -> float:
    """||D x* - D x_true|| / ||D x_true|| over second differences."""
    x_star = np.asarray(x_star, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    if x_star.shape != x_true.shape:
        raise ValueError("inputs must have equal shapes")
    if x_star.shape[0] < 3:
        raise InvalidSizeError("RRSE needs n >= 3")
    d_true = np.diff(x_true, n=2)
    denom = float(np.linalg.norm(d_true))
    if denom == 0:
        raise UndefinedMetricError("RRSE undefined: true signal is affine")
    return float(np.linalg.norm(np.diff(x_star, n=2) - d_true)) / denom


@dataclass(frozen=True)
class BenchmarkCell:
    resolution: int
    sigma: float
    method: str
    parameter: object
    seed: int
    input_snr_db: float
    output_snr_db: float | None
    rrse: float | None
    time_s: float
    error: str | None = None


@dataclass(frozen=True)
class AggregateRow:
    resolution: int
    sigma: float
    method: str
    parameter: object
    seeds: int
    input_snr_mean: float
    output_snr_mean: float
    output_snr_std: float
    rrse_mean: float
    rrse_std: float


@dataclass(frozen=True)
class BestRow:
    resolution: int
    sigma: float
    method: str
    criterion: str
    parameter: object
    value: float


@dataclass(frozen=True)
class BenchmarkReport:
    cells: tuple
    aggregates: tuple
    best: tuple


def _mean_std(values):
    # fsum keeps the aggregation order-independent.
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def run_benchmark(
    scenario: SimScenario,
    resolutions,
    sigmas,
    method_grids,
    seeds,
) -> BenchmarkReport:
    """Full sweep over (resolution, sigma, seed, method, parameter).

    Per-cell smoother errors are recorded in the cell and excluded from
    the aggregates rather than aborting the run. Value columns are
    deterministic under fixed seeds; only ``time_s`` varies.
    """
    cells = []
    for n in resolutions:
        sc = replace(scenario, n=int(n))
        clean = generate_clean(sc)
        for sigma in sigmas:
            for seed in seeds:
                noisy, input_snr = add_noise(clean, sigma, seed)
                for method, grid in method_grids.items():
                    for parameter in grid:
                        t0 = time.perf_counter()
                        try:
                            smoothed = smooth(noisy, method, parameter)[0]
                            err = None
                        except Exception as exc:  # recorded per-cell
                            smoothed = None
                            err = f"{type(exc).__name__}: {exc}"
                        elapsed = time.perf_counter() - t0
                        if smoothed is None:
                            out_snr = out_rrse = None
                        else:
                            out_snr = snr(clean, smoothed)
                            out_rrse = rrse_second_derivative(smoothed, clean)
                        cells.append(
                            BenchmarkCell(
                                resolution=int(n),
                                sigma=float(sigma),
                                method=method,
                                parameter=parameter,
                                seed=int(seed),
                                input_snr_db=input_snr,
                                output_snr_db=out_snr,
                                rrse=out_rrse,
                                time_s=elapsed,
                                error=err,
                            )
                        )

    aggregates = []
    groups = {}
    for cell in cells:
        if cell.error is not None:
            continue
        groups.setdefault(
            (cell.resolution, cell.sigma, cell.method, cell.parameter), []
        ).append(cell)
    for (n, sigma, method, parameter), members in groups.items():
        snr_mean, snr_std = _mean_std([c.output_snr_db for c in members])
        rrse_mean, rrse_std = _mean_std([c.rrse for c in members])
        in_mean, _ = _mean_std([c.input_snr_db for c in members])
        aggregates.append(
            AggregateRow(
                resolution=n,
                sigma=sigma,
                method=method,
                parameter=parameter,
                seeds=len(members),
                input_snr_mean=in_mean,
                output_snr_mean=snr_mean,
                output_snr_std=snr_std,
                rrse_mean=rrse_mean,
                rrse_std=rrse_std,
            )
        )

    best = []
    by_method = {}
    for row in aggregates:
        by_method.setdefault((row.resolution, row.sigma, row.method), []).append(row)
    for (n, sigma, method), rows in by_method.items():
        top_snr = max(rows, key=lambda r: r.output_snr_mean)
        best.append(
            BestRow(n, sigma, method, "snr", top_snr.parameter, top_snr.output_snr_mean)
        )
        top_rrse = min(rows, key=lambda r: r.rrse_mean)
        best.append(
            BestRow(n, sigma, method, "rrse", top_rrse.parameter, top_rrse.rrse_mean)
        )

    return BenchmarkReport(cells=tuple(cells), aggregates=tuple(aggregates), best=tuple(best))
