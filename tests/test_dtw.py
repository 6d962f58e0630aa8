"""Tests for DTW and its threshold/double-direction/banded variants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances.dtw import (
    DTWDistance,
    dtw,
    dtw_double_direction,
    dtw_threshold,
    dtw_window,
)

coords = st.floats(-20, 20, allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw, min_len=1, max_len=10):
    n = draw(st.integers(min_len, max_len))
    return np.asarray([[draw(coords), draw(coords)] for _ in range(n)])


T1 = np.array([(1, 1), (1, 2), (3, 2), (4, 4), (4, 5), (5, 5)], float)
T3 = np.array([(1, 1), (4, 1), (4, 3), (4, 5), (4, 6), (5, 6)], float)


class TestExactDTW:
    def test_paper_value(self):
        """DTW(T1, T3) = 5.41 per the paper's Table 1 walkthrough."""
        assert dtw(T1, T3) == pytest.approx(5.41, abs=0.01)

    def test_identity(self):
        assert dtw(T1, T1) == 0.0

    def test_symmetry(self):
        assert dtw(T1, T3) == pytest.approx(dtw(T3, T1))

    def test_single_point_rows(self):
        """n = 1 base case: sum of distances to the single point."""
        t = np.array([(0, 0), (3, 4)], float)
        q = np.array([(0, 0)], float)
        assert dtw(t, q) == pytest.approx(5.0)

    def test_both_single(self):
        assert dtw(np.array([(0, 0)], float), np.array([(1, 0)], float)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw(np.empty((0, 2)), T1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dtw(np.zeros((2, 2)), np.zeros((2, 3)))

    @given(trajectories(), trajectories())
    def test_non_negative(self, t, q):
        assert dtw(t, q) >= 0

    @given(trajectories())
    def test_self_distance_zero(self, t):
        assert dtw(t, t) == pytest.approx(0.0, abs=1e-9)

    @given(trajectories(), trajectories())
    def test_bounded_below_by_endpoints(self, t, q):
        """DTW always pays the (1,1) and (m,n) cells."""
        lb = float(np.linalg.norm(t[0] - q[0]))
        if t.shape[0] > 1 or q.shape[0] > 1:
            lb_end = float(np.linalg.norm(t[-1] - q[-1]))
        else:
            lb_end = 0.0
        assert dtw(t, q) >= max(lb, lb_end) - 1e-9


class TestThresholdDTW:
    def test_exact_when_within(self):
        d = dtw(T1, T3)
        assert dtw_threshold(T1, T3, d + 0.01) == pytest.approx(d)

    def test_inf_when_beyond(self):
        assert dtw_threshold(T1, T3, 5.0) == math.inf

    def test_tau_zero_identical(self):
        assert dtw_threshold(T1, T1, 0.0) == 0.0

    @settings(max_examples=80)
    @given(trajectories(), trajectories(), st.floats(0.1, 50))
    def test_agrees_with_exact(self, t, q, tau):
        d = dtw(t, q)
        dt = dtw_threshold(t, q, tau)
        if d <= tau:
            assert dt == pytest.approx(d, rel=1e-9, abs=1e-9)
        else:
            assert dt == math.inf


class TestDoubleDirection:
    def test_paper_value_within(self):
        assert dtw_double_direction(T1, T3, 6.0) == pytest.approx(5.41, abs=0.01)

    def test_beyond_inf(self):
        assert dtw_double_direction(T1, T3, 5.0) == math.inf

    @settings(max_examples=80)
    @given(trajectories(), trajectories(), st.floats(0.1, 50))
    def test_agrees_with_exact(self, t, q, tau):
        d = dtw(t, q)
        dd = dtw_double_direction(t, q, tau)
        if d <= tau:
            assert dd == pytest.approx(d, rel=1e-9, abs=1e-9)
        else:
            assert dd == math.inf

    def test_single_row(self):
        t = np.array([(0, 0)], float)
        q = np.array([(1, 0), (2, 0)], float)
        assert dtw_double_direction(t, q, 10) == pytest.approx(3.0)


class TestWindowedDTW:
    def test_full_window_equals_exact(self):
        assert dtw_window(T1, T3, 10) == pytest.approx(dtw(T1, T3))

    def test_narrow_window_upper_bounds(self):
        assert dtw_window(T1, T3, 1) >= dtw(T1, T3) - 1e-9

    def test_zero_window_diagonal(self):
        t = np.array([(0, 0), (1, 1)], float)
        assert dtw_window(t, t, 0) == 0.0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            dtw_window(T1, T3, -1)

    @settings(max_examples=40)
    @given(trajectories(min_len=2), st.integers(0, 12))
    def test_monotone_in_window(self, t, w):
        """Widening the band can only decrease the value."""
        q = t[::-1].copy()
        assert dtw_window(t, q, w + 2) <= dtw_window(t, q, w) + 1e-9


class TestDTWDistanceClass:
    def test_registry_behaviour(self):
        d = DTWDistance()
        assert d.name == "dtw"
        assert not d.is_metric
        assert d.compute(T1, T3) == pytest.approx(5.41, abs=0.01)
        assert d.similar(T1, T3, 6.0)
        assert not d.similar(T1, T3, 5.0)
