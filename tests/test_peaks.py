import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsaps.errors import InvalidSizeError
from lsaps.peaks import detect_peaks, match_peaks
from lsaps.sim import SimScenario, LorentzianPeak, generate_clean


class TestDetect:
    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            detect_peaks(np.ones(4), 1)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            detect_peaks(np.ones(10), 0)

    def test_single_triangle_peak(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0])
        found = detect_peaks(x, 3)
        assert found.indices == [3]
        assert found.n_candidates == 1
        # d = diff(x, 2) = (0, 0, -2, 0, 0); sharpness |d[2]| = 2 at index 3.
        assert found.entries[0].sharpness == 2.0
        assert found.entries[0].intensity == 3.0

    def test_monotone_has_no_peaks(self):
        assert detect_peaks(np.arange(10.0) ** 1.5, 5).indices == []

    def test_positive_curvature_minimum_excluded(self):
        # A valley is a positive local minimum of the second difference
        # only if curvature is negative; a trough has d > 0 and must not count.
        x = np.array([3.0, 2.0, 1.0, 0.0, 1.0, 2.0, 3.0])
        assert detect_peaks(x, 3).indices == []

    def test_sharpness_ordering(self):
        # Two Lorentzians, equal height, different widths: the narrower
        # one has the larger |second difference| and ranks first.
        scenario = SimScenario(
            peaks=(LorentzianPeak(30.0, 5.0, 2.0), LorentzianPeak(70.0, 5.0, 0.5)),
            n=1001,
            x_range=(0.0, 100.0),
        )
        clean = generate_clean(scenario)
        found = detect_peaks(clean.intensity, 2)
        assert found.indices == [700, 300]
        assert found.entries[0].sharpness > found.entries[1].sharpness

    def test_k_truncates(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(300)
        all_found = detect_peaks(y, 300)
        top3 = detect_peaks(y, 3)
        assert top3.indices == all_found.indices[:3]
        assert top3.n_candidates == all_found.n_candidates

    def test_plateau_counts_once_leftmost(self):
        # Flat-top peak: second difference has an equal-valued negative
        # plateau; it must yield one candidate at its leftmost index.
        x = np.array([0.0, 1.0, 3.0, 4.0, 4.0, 3.0, 1.0, 0.0])
        # d = (1, -1, -1, -1, -1, 1): one run of equal negatives.
        found = detect_peaks(x, 5)
        assert found.indices == [2]
        assert found.n_candidates == 1

    def test_abscissa_passthrough(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0])
        t = np.linspace(10.0, 16.0, 7)
        found = detect_peaks(x, 1, abscissa=t)
        assert found.entries[0].abscissa == t[3]

    def test_indices_are_signal_frame(self):
        # Candidate j in the second-difference frame maps to j + 1.
        x = np.zeros(20)
        x[10] = 1.0
        assert detect_peaks(x, 1).indices == [10]

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            # Small integers make plateaus, ties and all-zero input likely.
            st.lists(st.integers(-3, 3).map(float), min_size=5, max_size=40),
            st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=40),
        ),
        st.integers(1, 12),
    )
    def test_matches_naive_reference(self, values, k):
        x = np.array(values)
        found = detect_peaks(x, k)
        expected = naive_candidates(x)
        d = np.diff(x, n=2)
        assert found.n_candidates == len(expected)
        assert found.indices == [j + 1 for j in expected[:k]]
        assert [e.sharpness for e in found.entries] == [abs(d[j]) for j in expected[:k]]
        assert [e.intensity for e in found.entries] == [x[j + 1] for j in expected[:k]]


def naive_candidates(x):
    """Second-difference indices of the peak candidates, index by index.

    j is a candidate if d[j] < 0, d[j] < d[j-1] (so j starts its
    plateau), and the first value after the plateau exists and is
    larger. Sharpest first, ties to the left.
    """
    d = np.diff(x, n=2)
    candidates = []
    for j in range(1, len(d)):
        if not (d[j] < 0 and d[j] < d[j - 1]):
            continue
        end = j
        while end < len(d) and d[end] == d[j]:
            end += 1
        if end < len(d) and d[end] > d[j]:
            candidates.append(j)
    return sorted(candidates, key=lambda j: (-abs(d[j]), j))


class TestMatch:
    def test_hand_traced_example(self):
        # Signal with peaks at 3 and 10; truth at 3, 11, 17.
        x = np.zeros(21)
        x[3] = 2.0
        x[10] = 1.0
        found = detect_peaks(x, 5)
        assert found.indices == [3, 10]
        report = match_peaks(found, [3, 11, 17], tolerance=3)
        assert report.hits == 2
        assert report.misses == 1
        assert report.false_positives == 0
        assert report.pairs == ((3, 3), (10, 11))

    def test_tolerance_zero_requires_exact(self):
        x = np.zeros(21)
        x[10] = 1.0
        found = detect_peaks(x, 1)
        assert match_peaks(found, [11], tolerance=0).hits == 0
        assert match_peaks(found, [10], tolerance=0).hits == 1

    def test_one_to_one(self):
        # Two detections near one true peak: only one hit, one false positive.
        x = np.zeros(30)
        x[10] = 2.0
        x[13] = 1.0
        found = detect_peaks(x, 5)
        assert found.indices == [10, 13]
        report = match_peaks(found, [11], tolerance=3)
        assert report.hits == 1
        assert report.false_positives == 1
        assert report.pairs == ((10, 11),)

    def test_sharpest_claims_first(self):
        # The sharper detection is visited first and claims the shared truth.
        x = np.zeros(30)
        x[10] = 1.0
        x[13] = 2.0
        found = detect_peaks(x, 5)
        assert found.indices == [13, 10]
        report = match_peaks(found, [12], tolerance=3)
        assert report.pairs == ((13, 12),)

    def test_negative_tolerance(self):
        x = np.zeros(10)
        x[5] = 1.0
        with pytest.raises(ValueError):
            match_peaks(detect_peaks(x, 1), [5], tolerance=-1)

    def test_empty_detection(self):
        report = match_peaks(detect_peaks(np.arange(10.0) ** 1.5, 3), [2, 7])
        assert report.hits == 0 and report.misses == 2 and report.false_positives == 0
