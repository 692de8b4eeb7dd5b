"""Peak detection from the second difference of a smoothed signal.

A peak apex shows up as a negative local minimum of the second
difference; candidates are ranked by the absolute value of that minimum
(the sharpness) and the top k are kept. The second difference is taken
on x * 2**-e, of unit size, where it cannot overflow, and scaled back by
2**e only for output: a value beyond float64 becomes +-inf, never NaN.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidSizeError
from .smoothers import unit_exponent


@dataclass(frozen=True)
class PeakEntry:
    index: int
    abscissa: float
    sharpness: float
    intensity: float


def _unit_second_difference(x):
    """(d, e): the second difference d of x * 2**-e, e = ``unit_exponent(x)``."""
    e = unit_exponent(x)
    return np.diff(np.ldexp(x, -e), n=2), e


def second_difference(x):
    """The second difference of ``x``, in units of x; +-inf where it
    exceeds float64."""
    d, e = _unit_second_difference(np.asarray(x, dtype=float))
    with np.errstate(over="ignore"):
        return np.ldexp(d, e, out=d)


def detect_peaks(x, k: int, abscissa=None):
    """Find the k sharpest peaks of ``x``.

    Returns a tuple of ``PeakEntry``, sharpest first. Candidates are
    strict local minima of the second difference with a negative value
    (negative apex curvature); plateaus of equal values count once at
    their leftmost index. Fewer than ``k`` candidates gives fewer
    entries, not an error. The index and the ``abscissa`` of an entry
    are those of its apex, and its sharpness is |second difference|
    there, in units of x.
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

    d, e = _unit_second_difference(x)
    # Runs of equal values, so that a plateau is one candidate at its
    # leftmost index: an interior run below zero and below both
    # neighbouring runs.
    starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
    v = d[starts]
    inner = (v[1:-1] < 0) & (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
    candidates = starts[1:-1][inner]
    top = candidates[np.lexsort((candidates, -np.abs(d[candidates])))][:k]
    with np.errstate(over="ignore"):
        sharpness = np.ldexp(np.abs(d[top]), e)
    return tuple(
        PeakEntry(
            index=j + 1,
            abscissa=float(abscissa[j + 1]),
            sharpness=s,
            intensity=float(x[j + 1]),
        )
        for j, s in zip(top.tolist(), sharpness.tolist())
    )
