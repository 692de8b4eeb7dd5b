"""Peak detection from the second difference of a smoothed signal.

A peak apex shows up as a negative local minimum of the second
difference; candidates are ranked by the absolute value of that minimum
(the sharpness) and the top k are kept. A greedy matcher scores a
detected set against known true peak positions for benchmarking.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidSizeError


@dataclass(frozen=True)
class PeakEntry:
    index: int
    abscissa: float
    sharpness: float
    intensity: float


@dataclass(frozen=True)
class PeakSet:
    """Detected peaks, ordered by descending sharpness."""

    entries: tuple
    k: int
    n_candidates: int

    @property
    def indices(self):
        return [entry.index for entry in self.entries]


def detect_peaks(x, k: int, abscissa=None) -> PeakSet:
    """Find the k sharpest peaks of ``x``.

    Candidates are strict local minima of the second difference with a
    negative value (negative apex curvature); plateaus of equal values
    count once at their leftmost index. Fewer than ``k`` candidates is
    reported in the result, not an error.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 5:
        raise InvalidSizeError(f"peak detection needs n >= 5, got n={n}")
    if k < 1:
        raise InvalidConfigError(f"k must be >= 1, got {k}")
    if abscissa is None:
        abscissa = np.arange(n, dtype=float)
    else:
        abscissa = np.asarray(abscissa, dtype=float)

    d = np.diff(x, n=2)
    m = d.shape[0]
    # Run-length framing so equal-valued plateaus resolve to one
    # candidate at the leftmost index.
    boundaries = np.flatnonzero(d[1:] != d[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [m]))
    candidates = []
    for s, e in zip(starts, ends):
        if s == 0 or e == m:
            continue
        v = d[s]
        if v < 0 and v < d[s - 1] and v < d[e]:
            candidates.append(s)

    candidates.sort(key=lambda j: (-abs(d[j]), j))
    entries = tuple(
        PeakEntry(
            index=j + 1,
            abscissa=float(abscissa[j + 1]),
            sharpness=float(abs(d[j])),
            intensity=float(x[j + 1]),
        )
        for j in candidates[:k]
    )
    return PeakSet(entries=entries, k=k, n_candidates=len(candidates))


@dataclass(frozen=True)
class MatchReport:
    hits: int
    misses: int
    false_positives: int
    pairs: tuple = field(repr=False, default=())


def match_peaks(found: PeakSet, truth, tolerance: int = 3) -> MatchReport:
    """Greedy one-to-one matching of detected peaks to true positions.

    Detected peaks are visited in descending sharpness order; each
    claims the nearest still-unmatched true peak within ``tolerance``
    grid indices, if any.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    truth = [int(t) for t in truth]
    unmatched = set(range(len(truth)))
    pairs = []
    false_positives = 0
    for entry in found.entries:
        best = None
        best_dist = tolerance + 1
        for t in sorted(unmatched):
            dist = abs(truth[t] - entry.index)
            if dist < best_dist:
                best = t
                best_dist = dist
        if best is None:
            false_positives += 1
        else:
            unmatched.discard(best)
            pairs.append((entry.index, truth[best]))
    return MatchReport(
        hits=len(pairs),
        misses=len(unmatched),
        false_positives=false_positives,
        pairs=tuple(pairs),
    )
