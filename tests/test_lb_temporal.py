"""Tests for the classic DTW lower bounds and spatio-temporal helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import dtw, dtw_window, lb_keogh, lb_kim, keogh_envelope
from repro.storage import ColumnarDataset
from repro.trajectory import (
    Trajectory,
    attach_time,
    attach_uniform_time,
    strip_time,
    temporal_dataset,
)

coords = st.floats(-20, 20, allow_nan=False, allow_infinity=False)


@st.composite
def equal_pairs(draw, max_len=10):
    n = draw(st.integers(1, max_len))
    t = np.asarray([[draw(coords), draw(coords)] for _ in range(n)])
    q = np.asarray([[draw(coords), draw(coords)] for _ in range(n)])
    return t, q


class TestLBKim:
    @settings(max_examples=80)
    @given(equal_pairs())
    def test_lower_bounds_exact_dtw(self, pair):
        t, q = pair
        assert lb_kim(t, q) <= dtw(t, q) + 1e-9

    def test_unequal_lengths_ok(self):
        t = np.array([(0, 0), (1, 1), (2, 2)], float)
        q = np.array([(0, 0), (2, 2)], float)
        assert lb_kim(t, q) <= dtw(t, q) + 1e-9

    def test_single_points(self):
        t = np.array([(0, 0)], float)
        q = np.array([(3, 4)], float)
        assert lb_kim(t, q) == pytest.approx(5.0)


class TestLBKeogh:
    @settings(max_examples=80)
    @given(equal_pairs(), st.integers(0, 12))
    def test_lower_bounds_banded_dtw(self, pair, w):
        t, q = pair
        assert lb_keogh(t, q, w) <= dtw_window(t, q, w) + 1e-9

    @settings(max_examples=60)
    @given(equal_pairs())
    def test_full_window_bounds_exact(self, pair):
        t, q = pair
        assert lb_keogh(t, q, q.shape[0] - 1) <= dtw(t, q) + 1e-9

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            lb_keogh(np.zeros((3, 2)), np.zeros((2, 2)), 1)

    def test_envelope_contains_query(self):
        q = np.random.default_rng(1).uniform(0, 5, size=(8, 2))
        lower, upper = keogh_envelope(q, 2)
        assert np.all(lower <= q) and np.all(q <= upper)

    def test_envelope_window_validation(self):
        with pytest.raises(ValueError):
            keogh_envelope(np.zeros((3, 2)), -1)

    def test_zero_on_self(self):
        t = np.random.default_rng(2).uniform(0, 5, size=(6, 2))
        assert lb_keogh(t, t, 0) == pytest.approx(0.0)


class TestTemporal:
    def test_attach_and_strip_roundtrip(self):
        t = Trajectory(1, [(0, 0), (1, 1)])
        st_t = attach_time(t, [0, 10], weight=0.5)
        assert st_t.ndim == 3
        assert st_t.points[1, 2] == pytest.approx(5.0)
        back = strip_time(st_t)
        assert np.array_equal(back.points, t.points)

    def test_validation(self):
        t = Trajectory(1, [(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            attach_time(t, [0], weight=1)
        with pytest.raises(ValueError):
            attach_time(t, [10, 0], weight=1)  # decreasing
        with pytest.raises(ValueError):
            attach_time(t, [0, 10], weight=-1)
        with pytest.raises(ValueError):
            attach_uniform_time(t, 0, 0, 1)

    def test_uniform_time(self):
        t = Trajectory(1, [(0, 0), (1, 1), (2, 2)])
        st_t = attach_uniform_time(t, start=100, interval=10, weight=0.1)
        assert st_t.points[:, 2].tolist() == [10.0, 11.0, 12.0]

    def test_time_separates_same_route_trips(self):
        """Two trips on one route, hours apart, stop matching once time is
        attached with a meaningful weight."""
        from repro.distances import get_distance

        d = get_distance("dtw")
        route = np.asarray([(0.01 * i, 0.0) for i in range(10)])
        a = Trajectory(1, route)
        b = Trajectory(2, route + 1e-6)
        assert d.compute(a.points, b.points) < 0.001
        # same spatial route, 2 h apart, weight: 1 h == 0.01 deg
        at = attach_uniform_time(a, start=0.0, interval=5, weight=0.01 / 3600)
        bt = attach_uniform_time(b, start=7200.0, interval=5, weight=0.01 / 3600)
        assert d.compute(at.points, bt.points) > 0.01

    def test_temporal_dataset_through_engine(self):
        """The full pipeline runs on space-time trajectories."""
        from repro import DITAConfig, DITAEngine
        from repro.datagen import citywide_dataset

        base = citywide_dataset(30, seed=61, duplication=3)
        starts = [float(3600 * (i % 3)) for i in range(len(base))]
        lifted = temporal_dataset(base, starts, interval=10, weight=0.0001 / 60)
        engine = DITAEngine(lifted, DITAConfig(num_global_partitions=2, num_pivots=2))
        q = lifted[0]
        got = engine.search_ids(q, 0.003)
        from repro.distances import get_distance

        d = get_distance("dtw")
        want = sorted(t.traj_id for t in lifted if d.compute(t.points, q.points) <= 0.003)
        assert got == want

    def test_temporal_dataset_validation(self):
        base = ColumnarDataset.from_trajectories([Trajectory(1, [(0, 0)])])
        with pytest.raises(ValueError):
            temporal_dataset(base, [0.0, 1.0], 10, 0.1)
