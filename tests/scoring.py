"""Oracles that score the library against known truth in the tests.

The acceptance gate sets its noise from a target SNR and counts how many
true peak positions a detected set recovers; the library itself never
needs either.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from lsaps.sim import SimScenario


def true_peak_indices(scenario: SimScenario):
    """Nearest grid index of every peak center."""
    t = scenario.grid()
    return [int(np.argmin(np.abs(t - p.center))) for p in scenario.peaks]


def sigma_for_target_snr(clean_intensity, target_db: float) -> float:
    """Noise std dev whose expected realized SNR equals ``target_db``."""
    clean_intensity = np.asarray(clean_intensity, dtype=float)
    energy = float(np.dot(clean_intensity, clean_intensity))
    n = clean_intensity.shape[0]
    return math.sqrt(energy / (n * 10.0 ** (target_db / 10.0)))


@dataclass(frozen=True)
class MatchReport:
    hits: int
    misses: int
    false_positives: int
    pairs: tuple = field(repr=False, default=())


def match_peaks(found, truth, tolerance: int = 3) -> MatchReport:
    """Greedy one-to-one matching of detected peaks to true positions.

    ``found`` is the tuple of ``detect_peaks``, whose peaks are visited
    in descending sharpness order; each
    claims the nearest still-unmatched true peak within ``tolerance``
    grid indices, if any.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    truth = [int(t) for t in truth]
    unmatched = set(range(len(truth)))
    pairs = []
    false_positives = 0
    for entry in found:
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
