"""Peak detection from the second difference of a smoothed signal.

A peak apex shows up as a negative local minimum of the second
difference; candidates are ranked by the absolute value of that minimum
(the sharpness) and the top k are kept.
"""

from dataclasses import dataclass

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

    @property
    def indices(self):
        return [entry.index for entry in self.entries]


def detect_peaks(x, k: int, abscissa=None) -> PeakSet:
    """Find the k sharpest peaks of ``x``.

    Candidates are strict local minima of the second difference with a
    negative value (negative apex curvature); plateaus of equal values
    count once at their leftmost index. Fewer than ``k`` candidates
    gives fewer entries, not an error.
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
    # Runs of equal values, so that a plateau is one candidate at its
    # leftmost index: an interior run below zero and below both
    # neighbouring runs.
    starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
    v = d[starts]
    inner = (v[1:-1] < 0) & (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
    candidates = starts[1:-1][inner]
    candidates = candidates[np.lexsort((candidates, -np.abs(d[candidates])))]
    entries = tuple(
        PeakEntry(
            index=j + 1,
            abscissa=float(abscissa[j + 1]),
            sharpness=float(abs(d[j])),
            intensity=float(x[j + 1]),
        )
        for j in candidates[:k].tolist()
    )
    return PeakSet(entries=entries)
