"""Synthetic Lorentzian benchmark harness.

Generates mixtures of Lorentzian peaks on a uniform grid, corrupts them
with seeded Gaussian noise, sweeps smoothing methods over parameter
grids, and scores output SNR and the root relative squared error (RRSE)
of the second differences. Noise comes from numpy's PCG64 generator via
``default_rng(seed)`` using the standard normal transform, so reports
are reproducible across platforms.
"""

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import (InvalidConfigError, InvalidInputError, InvalidSizeError,
                     UndefinedMetricError, at_least, checked, integer, length, nonnegative, real,
                     shown)
from .smoothers import METHODS, grid_plan

NOISE_FREE_DB = math.inf


def _finite(name, value) -> bool:
    """Whether ``value`` is finite; an InvalidConfigError unless it is a
    real number within float64's range (``errors.real``)."""
    return math.isfinite(real(name, value))


@dataclass(frozen=True)
class LorentzianPeak:
    """height / (1 + ((t - center) / halfwidth)**2); InvalidConfigError
    unless all three are real numbers, and InvalidInputError unless they
    are finite and height and halfwidth > 0."""

    center: float
    height: float
    halfwidth: float

    def __post_init__(self):
        if not all(_finite(f.name, getattr(self, f.name)) for f in fields(self)):
            raise InvalidInputError("peak center, height and halfwidth must be finite numbers")
        if self.height <= 0 or self.halfwidth <= 0:
            raise InvalidInputError("height and halfwidth must be > 0")


@dataclass(frozen=True)
class Background:
    """Optional additive baseline: one broad Gaussian hump plus a ramp;
    InvalidConfigError unless every value is a real number, and
    InvalidInputError unless each is finite and hump_width > 0."""

    hump_amplitude: float = 0.0
    hump_center: float = 0.0
    hump_width: float = 1.0
    slope: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if not all(_finite(f.name, getattr(self, f.name)) for f in fields(self)):
            raise InvalidInputError("background values must be finite numbers")
        if self.hump_width <= 0:
            raise InvalidInputError("background hump_width must be > 0")

    def evaluate(self, t):
        t = checked("t", t)
        with np.errstate(over="ignore"):  # far from its center the hump is 0
            hump = self.hump_amplitude * np.exp(-0.5 * ((t - self.hump_center) / self.hump_width) ** 2)
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
    """Peaks on ``n`` points of ``x_range``; InvalidInputError without a
    peak, for an x_range that is not two increasing finite numbers or a
    peak center outside it, and InvalidConfigError for an n that is not an
    integer from 5 to sys.maxsize (``errors.length``, the rule of a
    sweep's resolutions) or an x_range value that is not a real number."""

    peaks: tuple = DEFAULT_PEAKS
    n: int = 1000
    x_range: tuple = DEFAULT_RANGE
    background: Background | None = None

    def __post_init__(self):
        if len(self.peaks) < 1:
            raise InvalidInputError("scenario needs at least one peak")
        length(5, "n", self.n)
        lo, hi = self.x_range
        if not (_finite("x_range", lo) and _finite("x_range", hi) and lo < hi):
            raise InvalidInputError("x_range must be two increasing finite numbers")
        for p in self.peaks:
            if not lo <= p.center <= hi:
                raise InvalidInputError(f"peak center {p.center} outside x_range")

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
    ``clean`` and ``NOISE_FREE_DB``. Raises InvalidConfigError for a
    sigma that is not a finite real number >= 0 (``errors.nonnegative``),
    for a seed that is not an integer >= 0 (``errors.at_least``; a bool
    is not an integer) and, for sigma > 0,
    unless the sums of squares of the clean signal and of the noise are
    both positive and finite: the realized SNR is their ratio. Raises
    InvalidSizeError for a ``clean`` that is not 1-d and InvalidInputError
    for one that is not an array of real numbers or not finite.
    """
    nonnegative("sigma", sigma)
    seed = at_least(0, "seed", seed)
    clean = checked("clean", clean)
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
    return clean + eps, _db(signal, noise)


def snr(reference, estimate) -> float:
    """10 log10(||reference||^2 / ||estimate - reference||^2) in dB.

    Raises InvalidSizeError if the reference is not 1-d or the estimate
    is not of its shape, and InvalidInputError if either is not an array
    of real numbers or is not finite, naming its first bad index
    (``errors.checked``); UndefinedMetricError for a zero reference, for
    a sum of squares that overflows float64, and for an error energy that
    underflows to zero where the estimate is not the reference. An exact
    estimate scores ``NOISE_FREE_DB``; a ratio beyond float64 is taken
    from the logs."""
    reference = checked("reference", reference)
    estimate = checked("estimate", estimate, shape=reference.shape)
    return _snr_rows(_Reference(reference), estimate[None])[0]


class _Reference:
    """A clean, finite 1-d signal that stacks of estimates are scored against.

    Its energy, for the SNR, and its second difference and that
    difference's norm, for the RRSE, are computed and checked when a
    score first asks for them and then kept: a sweep takes them once per
    resolution, and raises their errors where it scores its first block.
    """

    def __init__(self, values):
        self.values = values

    @functools.cached_property
    def energy(self) -> float:
        """||values||^2; UndefinedMetricError where it is zero or not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            energy = float(np.dot(self.values, self.values))
        if not math.isfinite(energy):
            raise _overflow("reference", "energy")
        if energy == 0:
            raise UndefinedMetricError("SNR undefined for a zero reference")
        return energy

    @functools.cached_property
    def second_difference(self):
        """(d, ||d||) of the second difference d of ``values``, the norm
        as np.linalg.norm's sqrt(dot(d, d)); UndefinedMetricError where
        the norm is zero or not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.diff(self.values, n=2)
            norm = math.sqrt(np.dot(d, d))
        if not math.isfinite(norm):
            raise _overflow("truth", "second-difference energy")
        if norm == 0:
            raise UndefinedMetricError("RRSE undefined: true signal is affine")
        return d, norm


def _snr_rows(reference, stack) -> list:
    """``snr`` against the ``_Reference`` ``reference`` of each row of
    ``stack``, a (k, n) float array of finite estimates of its length:
    one SNR per row."""
    ref_energy = reference.energy
    # An estimate whose squares overflow raises below.
    with np.errstate(over="ignore", invalid="ignore"):
        energies = _row_dots(stack - reference.values)
    if not np.isfinite(energies).all():
        raise _overflow("estimate", "error energy")
    # Only an exact estimate scores NOISE_FREE_DB; another zero is an underflow.
    exact = energies == 0
    if exact.any() and (stack[exact] != reference.values).any():
        raise UndefinedMetricError("the error energy of the estimate underflows float64")
    return [NOISE_FREE_DB if energy == 0 else _db(ref_energy, energy)
            for energy in energies.tolist()]


def _db(signal: float, noise: float) -> float:
    """10 log10(signal / noise) for two positive finite sums of squares,
    from their logs where the ratio leaves float64."""
    ratio = signal / noise
    if 0 < ratio < math.inf:
        return 10.0 * math.log10(ratio)
    return 10.0 * (math.log10(signal) - math.log10(noise))


def rrse_second_derivative(x_star, x_true) -> float:
    """||D x* - D x_true|| / ||D x_true|| over second differences.

    Raises InvalidSizeError if the truth is not 1-d, the estimate
    ``x_star`` is not of its shape or n < 3, and InvalidInputError if
    either is not an array of real numbers or is not finite, naming its
    first bad index (``errors.checked``); UndefinedMetricError for an
    affine truth and for a sum of squares or an RRSE that overflows
    float64."""
    x_true = checked("truth", x_true)
    x_star = checked("estimate", x_star, shape=x_true.shape)
    if x_true.shape[0] < 3:
        raise InvalidSizeError("RRSE needs n >= 3")
    return _rrse_rows(_Reference(x_true), x_star[None])[0]


def _rrse_rows(reference, stack) -> list:
    """``rrse_second_derivative`` against the ``_Reference`` ``reference``,
    of n >= 3 points, of each row of ``stack``, a (k, n) float array of
    finite estimates: one RRSE per row."""
    d_true, denom = reference.second_difference
    # An estimate whose squares overflow raises below.
    with np.errstate(over="ignore", invalid="ignore"):
        # np.diff(stack, n=2, axis=1), entry for entry, as two contiguous
        # subtractions over the raveled stack: row i's second difference
        # starts at i * n, and the two entries after it, which mix rows,
        # are not read.
        flat = stack.ravel()
        first = flat[1:] - flat[:-1]
        second = np.empty(flat.shape)
        np.subtract(first[1:], first[:-1], out=second[:-2])
        residuals = second.reshape(stack.shape)[:, :-2]
        residuals -= d_true
        energies = _row_dots(residuals)
    if not np.isfinite(energies).all():
        raise _overflow("estimate", "second-difference error energy")
    if math.sqrt(energies.max(initial=0.0)) / denom == math.inf:
        raise _overflow("estimate", "RRSE")
    return [math.sqrt(energy) / denom for energy in energies.tolist()]


def _row_dots(rows):
    """np.dot(r, r) of each row r of the 2-d array ``rows``, bit for bit,
    as one product: matmul's vector-by-vector product is np.dot's, where
    a reduction over the whole stack (einsum, sum(axis=1)) would sum in
    another order."""
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _overflow(name, energy):
    """The UndefinedMetricError for the ``energy`` of ``name``, a sum of
    squares taken from finite values, that overflows float64."""
    return UndefinedMetricError(f"the {energy} of the {name} overflows float64")


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


def _score_grid(noisy, reference, plan):
    """Smooth ``noisy`` with every parameter of a ``grid_plan`` and score
    each fit against ``reference``, the ``_Reference`` of the clean
    signal, one block of fits at a time.

    Returns the output SNRs, the RRSEs and the errors in grid order,
    with None for the scores of a failed cell and for the error of a
    good one. A block's scores come as lists for its good fits, and each
    failure is put back, in rising order, at its position in the block.
    """
    snrs, rrses, errors = [], [], []
    for stack, results in plan(noisy):
        failures = [(i, f"{type(result).__name__}: {result}")
                    for i, result in enumerate(results) if isinstance(result, Exception)]
        block_snrs = _snr_rows(reference, stack) if len(stack) else []
        block_rrses = _rrse_rows(reference, stack) if len(stack) else []
        block_errors = [None] * len(block_snrs)
        for i, error in failures:
            block_snrs.insert(i, None)
            block_rrses.insert(i, None)
            block_errors.insert(i, error)
        snrs += block_snrs
        rrses += block_rrses
        errors += block_errors
    return snrs, rrses, errors


def check_sweep(resolutions, sigmas, method_grids, seeds):
    """The axes of a sweep, checked before any work and returned as
    (resolutions, sigmas, method_grids, seeds): ints for the resolutions
    and seeds, floats for the sigmas, (window, poly_order) tuples of ints
    for ``sg`` and ints for ``gaussian``; ``ps`` and ``lsa-ps`` values
    are kept as they are.

    Raises InvalidConfigError, naming the axis by its scenario key
    (``resolutions``, ``noise_sigmas``, ``seeds`` or ``methods.<name>``)
    and the value, for an empty axis, one that is not a sequence or one
    that repeats a value (1 and 1.0 are a repeat: cells are aggregated
    by value), a resolution that is not an integer from 5 to
    ``sys.maxsize``, a seed that is not an integer >= 0 (a bool is not), a
    sigma that is not a finite real number >= 0 (``errors.nonnegative``),
    a method not in ``smoothers.METHODS`` and a grid value not of its
    method's type: a pair of integers for ``sg``, an integer for
    ``gaussian``, a real number within float64's range otherwise. A value
    out of range, such as a window wider than n or a lambda_bar that is
    negative or not finite, fails its own cells.
    """
    if not method_grids:
        raise InvalidConfigError("'methods' must not be empty")
    for method in method_grids:
        if method not in METHODS:
            raise InvalidConfigError(f"unknown method {shown(method, repr)} in 'methods'")
    return (_axis("resolutions", resolutions, functools.partial(length, 5)),
            [float(sigma) for sigma in _axis("noise_sigmas", sigmas, nonnegative)],
            {method: _axis(f"methods.{method}", grid,
                           {"sg": _sg_pair, "gaussian": integer}.get(method, real))
             for method, grid in method_grids.items()},
            _axis("seeds", seeds, functools.partial(at_least, 0)))


def _axis(key, values, check) -> list:
    """The values of the axis ``key``, each as check(name, value) returns
    it; an InvalidConfigError for an empty axis, one that is not a
    sequence or one that repeats a value."""
    try:
        items = list(enumerate(values))
    except TypeError:
        raise InvalidConfigError(f"'{key}' must be a list, got {shown(values, repr)}") from None
    values = [check(f"{key}[{i}]", value) for i, value in items]
    if not values:
        raise InvalidConfigError(f"'{key}' must not be empty")
    seen = set()
    for value in values:
        if value in seen:
            raise InvalidConfigError(f"'{key}' repeats the value {shown(value)}")
        seen.add(value)
    return values


def _sg_pair(name, value) -> tuple:
    try:
        window, poly_order = value
    except (TypeError, ValueError):
        raise InvalidConfigError(f"{name} must be a [window, poly_order] pair, "
                                 f"got {shown(value, repr)}") from None
    return integer(f"{name}[0]", window), integer(f"{name}[1]", poly_order)


def run_benchmark(
    scenario: SimScenario,
    resolutions,
    sigmas,
    method_grids,
    seeds,
) -> BenchmarkReport:
    """Full sweep over (resolution, sigma, seed, method, parameter).

    The axes are checked first, by ``check_sweep``, whose
    ``InvalidConfigError`` fails the whole run before any cell. Each
    method's grid is planned once per resolution by ``grid_plan``, and
    the plan runs on each noisy signal of that resolution; each block of
    fits it yields is scored as one stack against the resolution's clean
    signal, a ``_Reference`` whose energy and second difference are
    computed and checked once, at the first block scored: a clean signal
    that cannot be scored ends the sweep there, and a sweep whose every
    cell fails scores no block and does not check it. A resolution's
    plans are dropped before the next resolution's are made. Per-cell
    smoother errors, such as those of a window wider than n or a negative
    lambda, are recorded in the cell and excluded from the aggregates
    rather than aborting the run. Every column is deterministic under
    fixed seeds: a rerun returns the same tables.
    """
    resolutions, sigmas, method_grids, seeds = check_sweep(resolutions, sigmas, method_grids, seeds)
    cells = {name: [] for name in ("resolution", "sigma", "method", "parameter", "seed",
                                   "input_snr_db", "output_snr_db", "rrse", "error")}
    for n in resolutions:
        plans = {method: grid_plan(n, method, grid) for method, grid in method_grids.items()}
        clean = generate_clean(replace(scenario, n=n))
        reference = _Reference(clean)
        for sigma in sigmas:
            for seed in seeds:
                noisy, input_snr = add_noise(clean, sigma, seed)
                for method, grid in method_grids.items():
                    snrs, rrses, errors = _score_grid(noisy, reference, plans[method])
                    k = len(errors)
                    for column, values in zip(cells.values(), (
                        [n] * k, [sigma] * k, [method] * k, grid, [seed] * k,
                        [input_snr] * k, snrs, rrses, errors,
                    )):
                        column.extend(values)
        del plans  # and their factors, before the next resolution's are made
    aggregates = _aggregate(cells)
    return BenchmarkReport(cells=cells, aggregates=aggregates, best=_best(aggregates))


def _aggregate(cells):
    """The aggregates table of the cells table: per (resolution, sigma,
    method, parameter), in order of first appearance, the mean and
    standard deviation over its good cells."""
    groups = {}
    keys = zip(cells["resolution"], cells["sigma"], cells["method"], cells["parameter"])
    for i, (key, error) in enumerate(zip(keys, cells["error"])):
        if error is None:
            groups.setdefault(key, []).append(i)

    def by_group(name):
        return [[cells[name][i] for i in members] for members in groups.values()]

    # All ten names from the start, since a sweep with no good cell has no
    # groups; the first four columns are the groups' keys.
    aggregates = {name: [] for name in ("resolution", "sigma", "method", "parameter", "seeds",
                                        "input_snr_mean", "output_snr_mean", "output_snr_std",
                                        "rrse_mean", "rrse_std")}
    for column, values in zip(aggregates.values(), zip(*groups)):
        column.extend(values)
    aggregates["seeds"] = [len(members) for members in groups.values()]
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
