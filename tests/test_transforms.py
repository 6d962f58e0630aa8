"""Tests for trajectory preprocessing transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import ColumnarDataset
from repro.trajectory import (
    Trajectory,
    dataset_bounds,
    normalize_unit_box,
    resample,
    scale,
    translate,
)

coords = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 12))
    return Trajectory(0, np.asarray([[draw(coords), draw(coords)] for _ in range(n)]))


class TestResample:
    def test_exact_count_and_endpoints(self):
        t = Trajectory(1, [(0, 0), (1, 0), (2, 0)])
        r = resample(t, 7)
        assert len(r) == 7
        assert r.first.tolist() == [0, 0]
        assert r.last.tolist() == [2, 0]

    def test_uniform_spacing_on_line(self):
        t = Trajectory(1, [(0, 0), (10, 0)])
        r = resample(t, 6)
        gaps = np.diff(r.points[:, 0])
        assert np.allclose(gaps, 2.0)

    def test_single_point(self):
        r = resample(Trajectory(1, [(3, 3)]), 5)
        assert len(r) == 5
        assert np.allclose(r.points, 3.0)

    def test_stationary(self):
        r = resample(Trajectory(1, [(1, 1), (1, 1)]), 4)
        assert np.allclose(r.points, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            resample(Trajectory(1, [(0, 0), (1, 1)]), 1)

    @settings(max_examples=40)
    @given(trajectories(), st.integers(2, 20))
    def test_points_on_original_bbox(self, t, n):
        r = resample(t, n)
        low = t.points.min(axis=0) - 1e-9
        high = t.points.max(axis=0) + 1e-9
        assert np.all(r.points >= low) and np.all(r.points <= high)


class TestAffine:
    def test_translate(self):
        t = translate(Trajectory(1, [(0, 0), (1, 1)]), (2, -1))
        assert t.points.tolist() == [[2, -1], [3, 0]]

    def test_translate_validation(self):
        with pytest.raises(ValueError):
            translate(Trajectory(1, [(0, 0)]), (1, 2, 3))

    def test_scale_about_origin(self):
        t = scale(Trajectory(1, [(1, 1)]), 2.0)
        assert t.points.tolist() == [[2, 2]]

    def test_scale_about_point(self):
        t = scale(Trajectory(1, [(2, 2)]), 2.0, origin=(1, 1))
        assert t.points.tolist() == [[3, 3]]

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            scale(Trajectory(1, [(0, 0)]), 0.0)


class TestNormalize:
    def test_bounds(self):
        ds = ColumnarDataset.from_trajectories([Trajectory(1, [(0, 0), (4, 2)]), Trajectory(2, [(2, -2)])])
        low, high = dataset_bounds(ds)
        assert low.tolist() == [0, -2]
        assert high.tolist() == [4, 2]

    def test_bounds_empty(self):
        with pytest.raises(ValueError):
            dataset_bounds(ColumnarDataset.empty())

    def test_unit_box(self):
        ds = ColumnarDataset.from_trajectories([Trajectory(1, [(0, 0), (4, 2)]), Trajectory(2, [(2, -2)])])
        out = normalize_unit_box(ds)
        low, high = dataset_bounds(out)
        assert np.all(low >= -1e-12) and np.all(high <= 1.0 + 1e-12)

    def test_preserves_relative_distances(self):
        from repro.distances import dtw

        ds = ColumnarDataset.from_trajectories(
            [Trajectory(1, [(0, 0), (4, 2)]), Trajectory(2, [(1, 1), (5, 3)]), Trajectory(3, [(9, 9), (9, 9)])]
        )
        out = normalize_unit_box(ds)
        d12 = dtw(ds.by_id(1).points, ds.by_id(2).points)
        d13 = dtw(ds.by_id(1).points, ds.by_id(3).points)
        n12 = dtw(out.by_id(1).points, out.by_id(2).points)
        n13 = dtw(out.by_id(1).points, out.by_id(3).points)
        assert (d12 < d13) == (n12 < n13)

    def test_degenerate_single_point_dataset(self):
        ds = ColumnarDataset.from_trajectories([Trajectory(1, [(5, 5)])])
        out = normalize_unit_box(ds)
        assert np.allclose(out.by_id(1).points, 0.0)
