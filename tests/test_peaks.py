import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsaps.errors import InvalidConfigError, InvalidSizeError
from lsaps.peaks import detect_peaks, second_difference
from lsaps.smoothers import to_unit
from lsaps.sim import SimScenario, LorentzianPeak, generate_clean
from scoring import match_peaks


def indices(peaks):
    return [p.index for p in peaks]


class TestDetect:
    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            detect_peaks(np.ones(4), 1)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            detect_peaks(np.ones(10), 0)

    def test_non_integer_k(self):
        # It used to raise TypeError from slicing with 2.5.
        with pytest.raises(InvalidConfigError, match=r"^k must be an integer, got 2\.5$"):
            detect_peaks(np.sin(np.arange(20.0)), 2.5)
        assert issubclass(InvalidConfigError, ValueError)

    def test_single_triangle_peak(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0])
        found = detect_peaks(x, 3)
        assert indices(found) == [3]
        assert len(detect_peaks(x, len(x))) == 1
        # d = diff(x, 2) = (0, 0, -2, 0, 0); sharpness |d[2]| = 2 at index 3.
        assert found[0].sharpness == 2.0
        assert found[0].intensity == 3.0

    def test_monotone_has_no_peaks(self):
        assert indices(detect_peaks(np.arange(10.0) ** 1.5, 5)) == []

    def test_positive_curvature_minimum_excluded(self):
        # A valley is a positive local minimum of the second difference
        # only if curvature is negative; a trough has d > 0 and must not count.
        x = np.array([3.0, 2.0, 1.0, 0.0, 1.0, 2.0, 3.0])
        assert indices(detect_peaks(x, 3)) == []

    def test_sharpness_ordering(self):
        # Two Lorentzians, equal height, different widths: the narrower
        # one has the larger |second difference| and ranks first.
        scenario = SimScenario(
            peaks=(LorentzianPeak(30.0, 5.0, 2.0), LorentzianPeak(70.0, 5.0, 0.5)),
            n=1001,
            x_range=(0.0, 100.0),
        )
        clean = generate_clean(scenario)
        found = detect_peaks(clean, 2)
        assert indices(found) == [700, 300]
        assert found[0].sharpness > found[1].sharpness

    def test_k_truncates(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(300)
        all_found = detect_peaks(y, 300)
        top3 = detect_peaks(y, 3)
        assert indices(top3) == indices(all_found)[:3]

    def test_plateau_counts_once_leftmost(self):
        # Flat-top peak: second difference has an equal-valued negative
        # plateau; it must yield one candidate at its leftmost index.
        x = np.array([0.0, 1.0, 3.0, 4.0, 4.0, 3.0, 1.0, 0.0])
        # d = (1, -1, -1, -1, -1, 1): one run of equal negatives.
        found = detect_peaks(x, 5)
        assert indices(found) == [2]
        assert len(detect_peaks(x, len(x))) == 1

    def test_abscissa_passthrough(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0])
        t = np.linspace(10.0, 16.0, 7)
        found = detect_peaks(x, 1, abscissa=t)
        assert found[0].abscissa == t[3]

    @pytest.mark.parametrize("shape", [(50,), (100, 2), (200,)], ids=["short", "2-d", "long"])
    def test_abscissa_of_another_shape(self, shape):
        y = np.sin(np.arange(100) / 5.0)
        message = rf"abscissa must have shape \(100,\), got {re.escape(str(shape))}"
        with pytest.raises(InvalidSizeError, match=message):
            detect_peaks(y, 3, abscissa=np.zeros(shape))

    def test_indices_are_signal_frame(self):
        # Candidate j in the second-difference frame maps to j + 1.
        x = np.zeros(20)
        x[10] = 1.0
        assert indices(detect_peaks(x, 1)) == [10]

    def test_near_max_scale_ranks_at_unit_size(self):
        # Neighbours of opposite sign near 1.7e308: the second difference
        # overflows in units of x, so the candidates are ranked on x * 2**-1024.
        t = np.arange(200)
        x = 1.7e308 * np.sin(t / 10.0) * (-1.0) ** t
        found = detect_peaks(x, 5)
        assert indices(found) == indices(detect_peaks(np.ldexp(x, -1024), 5))
        assert all(p.sharpness == np.inf for p in found)

    def test_second_difference_is_inf_not_nan_beyond_float64(self):
        t = np.arange(200)
        x = 1.7e308 * np.sin(t / 10.0) * (-1.0) ** t
        d = second_difference(x)
        assert not np.isnan(d).any() and np.isinf(d).any()
        unit = np.diff(np.ldexp(x, -1024), n=2)
        fits = np.abs(unit) < 1.0
        assert np.array_equal(d[fits], np.ldexp(unit[fits], 1024))
        assert np.array_equal(np.sign(d), np.sign(unit))

    def test_rejects_non_finite_input(self):
        x = np.sin(np.arange(60) / 5.0)
        x[10] = np.nan
        for find in (lambda x: detect_peaks(x, 3), second_difference):
            with pytest.raises(ValueError, match="y must be finite, got nan at index 10"):
                find(x)

    def test_second_difference_in_range_is_numpy_diff(self):
        x = np.random.default_rng(3).standard_normal(50) * 1e3
        assert np.array_equal(second_difference(x), np.diff(x, n=2))

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            # Small integers make plateaus, ties and all-zero input likely.
            st.lists(st.integers(-3, 3).map(float), min_size=5, max_size=40),
            st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=40),
        ),
        st.integers(1, 12),
    )
    # A subnormal blip beside 1: at unit size (x * 2**-1) it rounds to 0.
    @example([1.0, 0.0, 0.0, 5e-324, 0.0, 0.0, 0.0], 3)
    def test_matches_naive_reference(self, values, k):
        x = np.array(values)
        found = detect_peaks(x, k)
        # Peaks are ranked on the second difference of x at unit size.
        unit, e = to_unit(x)
        expected = naive_candidates(unit)
        d = np.diff(unit, n=2)
        assert len(detect_peaks(x, len(x))) == len(expected)
        assert indices(found) == [j + 1 for j in expected[:k]]
        assert [p.sharpness for p in found] == [np.ldexp(abs(d[j]), e) for j in expected[:k]]
        assert [p.intensity for p in found] == [x[j + 1] for j in expected[:k]]


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
        assert indices(found) == [3, 10]
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
        assert indices(found) == [10, 13]
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
        assert indices(found) == [13, 10]
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
