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
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfigError, InvalidSizeError, UndefinedMetricError
from .smoothers import grid_blocks

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
    return _snr_to(reference)(np.asarray(estimate, dtype=float)[None])[0]


def _snr_to(reference):
    """``snr`` against a fixed reference, as a function of a stack of
    estimates, one per row, that returns one SNR per row; the
    reference's energy is taken once."""
    reference = np.asarray(reference, dtype=float)
    ref_energy = float(np.dot(reference, reference))

    def score(stack) -> list:
        stack = np.asarray(stack, dtype=float)
        if stack.shape[1:] != reference.shape:
            raise ValueError("reference and estimate must have equal shapes")
        if ref_energy == 0:
            raise UndefinedMetricError("SNR undefined for a zero reference")
        # One dot per row, as for a lone estimate: a reduction over the
        # whole stack would sum in another order.
        err_energies = [float(np.dot(err, err)) for err in stack - reference]
        return [NOISE_FREE_DB if energy == 0 else 10.0 * math.log10(ref_energy / energy)
                for energy in err_energies]

    return score


def rrse_second_derivative(x_star, x_true) -> float:
    """||D x* - D x_true|| / ||D x_true|| over second differences."""
    return _rrse_to(x_true)(np.asarray(x_star, dtype=float)[None])[0]


def _rrse_to(x_true):
    """``rrse_second_derivative`` against a fixed truth, as a function of
    a stack of estimates, one per row, that returns one RRSE per row; the
    truth's second difference and its norm are taken once."""
    x_true = np.asarray(x_true, dtype=float)
    d_true = np.diff(x_true, n=2)
    denom = float(np.linalg.norm(d_true))

    def score(stack) -> list:
        stack = np.asarray(stack, dtype=float)
        if stack.shape[1:] != x_true.shape:
            raise ValueError("inputs must have equal shapes")
        if x_true.shape[0] < 3:
            raise InvalidSizeError("RRSE needs n >= 3")
        if denom == 0:
            raise UndefinedMetricError("RRSE undefined: true signal is affine")
        residuals = np.diff(stack, n=2, axis=1)
        residuals -= d_true
        # The norm of each row as np.linalg.norm takes it: sqrt(dot(r, r)).
        return [math.sqrt(np.dot(r, r)) / denom for r in residuals]

    return score


class BenchmarkReport(NamedTuple):
    """The sweep's three tables as columns. Each maps its column names to
    one list of values per column. The column order, which is the order
    of the table's header, is the key order of the dict that
    ``run_benchmark``, ``_aggregate`` or ``_best`` fills, and every key
    is there even where the table has no rows.

    The values are plain Python objects, and no type is declared for a
    column: the CSV writer formats each block of a column by the values
    it holds (ints as ``%d``, finite floats as ``%.12g``, anything else
    one value at a time)."""

    cells: dict
    aggregates: dict
    best: dict


def _mean_std(values):
    """The mean and the sample standard deviation of ``values``.

    Values that all equal their mean have a spread of 0.0, infinite ones
    included: the output SNRs of noise-free replicates are all inf, where
    (inf - inf)**2 would make the spread nan. A mix of infinite and finite
    values has an infinite mean and a spread of nan, since no finite
    spread describes it.
    """
    # fsum keeps the aggregation order-independent.
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1 or values.count(mean) == n:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def _score_grid(noisy, method, grid, score_snr, score_rrse):
    """Smooth ``noisy`` with every parameter of ``grid`` and score each
    fit, one block of fits at a time.

    Returns the output SNRs, the RRSEs and the errors in grid order,
    with None for the scores of a failed cell and for the error of a
    good one, and the seconds spent smoothing, scoring excluded.
    """
    snrs, rrses, errors = [], [], []
    t0 = time.perf_counter()
    blocks = grid_blocks(noisy, method, grid)
    elapsed = time.perf_counter() - t0
    while True:
        t0 = time.perf_counter()
        block = next(blocks, None)
        elapsed += time.perf_counter() - t0
        if block is None:
            return snrs, rrses, errors, elapsed
        stack, results = block
        good = len(stack) > 0
        block_snr = iter(score_snr(stack) if good else ())
        block_rrse = iter(score_rrse(stack) if good else ())
        for result in results:
            if isinstance(result, Exception):
                snrs.append(None)
                rrses.append(None)
                errors.append(f"{type(result).__name__}: {result}")
            else:
                snrs.append(next(block_snr))
                rrses.append(next(block_rrse))
                errors.append(None)


def check_distinct(axes):
    """Raise ``InvalidConfigError`` at the first value of an axis equal to
    an earlier one; ``axes`` maps each axis name to its values.

    Cells are aggregated by their values, so a repeated value would fold
    its cells into one row whose ``seeds`` counts cells, not seeds. Values
    compare as Python numbers do: 1 and 1.0 are a repeat.
    """
    for name, values in axes.items():
        seen = set()
        for value in values:
            if value in seen:
                raise InvalidConfigError(f"{name} repeats the value {value}")
            seen.add(value)


def run_benchmark(
    scenario: SimScenario,
    resolutions,
    sigmas,
    method_grids,
    seeds,
) -> BenchmarkReport:
    """Full sweep over (resolution, sigma, seed, method, parameter).

    Each (signal, method) grid is evaluated by one ``grid_blocks`` call,
    and each block of fits is scored as one stack.
    Per-cell smoother errors are recorded in the cell and excluded from
    the aggregates rather than aborting the run. Value columns are
    deterministic under fixed seeds; only ``time_s`` varies. A cell's
    ``time_s`` is its even share of the wall time spent smoothing its
    signal with its method's whole grid; scoring is not included.

    Raises
    ------
    InvalidConfigError
        A ``ValueError``, if an axis (the resolutions, the sigmas, the
        seeds or a method's grid) repeats a value (``check_distinct``).
    """
    check_distinct({"resolutions": resolutions, "sigmas": sigmas, "seeds": seeds,
                    **{f"grid of {method}": grid for method, grid in method_grids.items()}})
    cells = {name: [] for name in ("resolution", "sigma", "method", "parameter", "seed",
                                   "input_snr_db", "output_snr_db", "rrse", "time_s", "error")}
    for n in resolutions:
        sc = replace(scenario, n=int(n))
        clean = generate_clean(sc)
        scores = _snr_to(clean), _rrse_to(clean)
        for sigma in sigmas:
            for seed in seeds:
                noisy, input_snr = add_noise(clean, sigma, seed)
                for method, grid in method_grids.items():
                    snrs, rrses, errors, elapsed = _score_grid(noisy, method, grid, *scores)
                    k = len(errors)
                    if not k:
                        continue  # an empty grid has no cells to share its time
                    for column, values in zip(cells.values(), (
                        [int(n)] * k, [float(sigma)] * k, [method] * k, grid, [int(seed)] * k,
                        [input_snr] * k, snrs, rrses, [elapsed / k] * k, errors,
                    )):
                        column.extend(values)
    aggregates = _aggregate(cells)
    return BenchmarkReport(cells=cells, aggregates=aggregates, best=_best(aggregates))


def _aggregate(cells):
    """The aggregates table of the cells table: per (resolution, sigma,
    method, parameter), in order of first appearance, the mean and
    standard deviation over its good cells."""
    groups = {}
    keys = zip(cells["resolution"], cells["sigma"], cells["method"], cells["parameter"])
    group = np.array([-1 if error is not None else groups.setdefault(key, len(groups))
                      for key, error in zip(keys, cells["error"])], dtype=np.intp)
    good = np.flatnonzero(group >= 0)
    # The good cells ordered by group, each group in cell order.
    members = good[np.argsort(group[good], kind="stable")]
    sizes = np.bincount(group[good], minlength=len(groups)).tolist()
    stops = np.cumsum(sizes, dtype=np.intp).tolist()
    spans = list(zip([0, *stops[:-1]], stops))

    def by_group(name):
        values = np.array(cells[name], dtype=float)[members].tolist()
        return [values[start:stop] for start, stop in spans]

    # All ten names from the start, since a sweep with no good cell has no
    # groups; the first four columns are the groups' keys.
    aggregates = {name: [] for name in ("resolution", "sigma", "method", "parameter", "seeds",
                                        "input_snr_mean", "output_snr_mean", "output_snr_std",
                                        "rrse_mean", "rrse_std")}
    for column, values in zip(aggregates.values(), zip(*groups)):
        column.extend(values)
    aggregates["seeds"] = sizes
    aggregates["input_snr_mean"] = [math.fsum(v) / len(v) for v in by_group("input_snr_db")]
    for score, column in (("output_snr", "output_snr_db"), ("rrse", "rrse")):
        stats = [_mean_std(values) for values in by_group(column)]
        aggregates[f"{score}_mean"] = [mean for mean, _ in stats]
        aggregates[f"{score}_std"] = [std for _, std in stats]
    return aggregates


def _best(aggregates):
    """The best table of the aggregates table: per (resolution, sigma,
    method), the parameter of the highest mean SNR and that of the
    lowest mean RRSE, the first on ties."""
    by_method = {}
    keys = zip(aggregates["resolution"], aggregates["sigma"], aggregates["method"])
    for i, key in enumerate(keys):
        by_method.setdefault(key, []).append(i)
    best = {name: [] for name in ("resolution", "sigma", "method", "criterion", "parameter", "value")}
    snr_mean, rrse_mean = aggregates["output_snr_mean"], aggregates["rrse_mean"]
    for (n, sigma, method), rows in by_method.items():
        for criterion, pick, means in (("snr", max, snr_mean), ("rrse", min, rrse_mean)):
            top = pick(rows, key=means.__getitem__)
            for column, value in zip(best.values(), (n, sigma, method, criterion,
                                                     aggregates["parameter"][top], means[top])):
                column.append(value)
    return best
