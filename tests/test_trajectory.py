"""Tests for the trajectory data model, IO, stats and simplification."""

import math

import numpy as np
import pytest

from repro.storage import ColumnarDataset
from repro.trajectory import (
    Trajectory,
    dataset_stats,
    douglas_peucker,
    load_csv,
    load_jsonl,
    save_csv,
    save_jsonl,
    simplify,
    stats_header,
)


class TestTrajectory:
    def test_basic_properties(self):
        t = Trajectory(7, [(0, 0), (1, 1), (2, 0)])
        assert len(t) == 3
        assert t.ndim == 2
        assert t.traj_id == 7
        assert t.first.tolist() == [0, 0]
        assert t.last.tolist() == [2, 0]

    def test_single_point_promoted(self):
        t = Trajectory(1, (3, 4))
        assert len(t) == 1

    def test_immutable_points(self):
        t = Trajectory(1, [(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            t.points[0, 0] = 99

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(1, np.empty((0, 2)))

    def test_mbr_cached_and_correct(self):
        t = Trajectory(1, [(0, 5), (3, 1)])
        assert t.mbr.low.tolist() == [0, 1]
        assert t.mbr is t.mbr  # cached

    def test_prefix(self):
        t = Trajectory(1, [(0, 0), (1, 1), (2, 2)])
        p = t.prefix(2)
        assert len(p) == 2
        assert p.last.tolist() == [1, 1]

    def test_prefix_out_of_range(self):
        t = Trajectory(1, [(0, 0)])
        with pytest.raises(IndexError):
            t.prefix(2)
        with pytest.raises(IndexError):
            t.prefix(0)

    def test_reversed(self):
        t = Trajectory(1, [(0, 0), (1, 1)])
        assert t.reversed().first.tolist() == [1, 1]

    def test_length_travelled(self):
        t = Trajectory(1, [(0, 0), (3, 4), (3, 4)])
        assert t.length_travelled() == pytest.approx(5.0)
        assert Trajectory(2, [(0, 0)]).length_travelled() == 0.0

    def test_equality_hash(self):
        a = Trajectory(1, [(0, 0), (1, 1)])
        b = Trajectory(1, [(0, 0), (1, 1)])
        c = Trajectory(2, [(0, 0), (1, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_nbytes(self):
        t = Trajectory(1, [(0, 0), (1, 1)])
        assert t.nbytes() == 2 * 2 * 8


class TestTrajectoryDataset:
    """The dataset container's contract, on ``ColumnarDataset`` (the class
    keeps its old name so the test ids stay stable)."""

    def _ds(self):
        return ColumnarDataset.from_trajectories(
            [Trajectory(i, [(i, i), (i + 1, i + 1)]) for i in range(10)]
        )

    def test_len_iter_getitem(self):
        ds = self._ds()
        assert len(ds) == 10
        assert ds[3].traj_id == 3
        assert ds[-1].traj_id == 9
        assert [t.traj_id for t in ds] == list(range(10))
        for bad in (10, -11):
            with pytest.raises(IndexError):
                ds[bad]

    def test_by_id_and_contains(self):
        ds = self._ds()
        assert ds.by_id(5).traj_id == 5
        assert 5 in ds
        assert 99 not in ds
        with pytest.raises(KeyError):
            ds.by_id(99)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ColumnarDataset.from_trajectories([Trajectory(1, [(0, 0)]), Trajectory(1, [(1, 1)])])

    def test_empty_input(self):
        ds = ColumnarDataset.from_trajectories([])
        assert len(ds) == 0 and ds.ids == [] and list(ds) == []
        with pytest.raises(IndexError):
            ds[0]

    def test_sample_deterministic(self):
        ds = self._ds()
        a = ds.sample(0.5, seed=1)
        b = ds.sample(0.5, seed=1)
        assert a.ids == b.ids
        assert len(a) == 5
        # the rows the deleted list-backed container picked for this seed
        picked = np.random.default_rng(1).choice(10, size=5, replace=False)
        assert a.ids == sorted(picked.tolist())

    def test_sample_full(self):
        ds = self._ds()
        assert ds.sample(1.0).ids == ds.ids

    def test_sample_invalid(self):
        with pytest.raises(ValueError):
            self._ds().sample(0.0)

    def test_first_last_points(self):
        ds = self._ds()
        assert ds.firsts.shape == (10, 2)
        assert ds.lasts[0].tolist() == [1, 1]


class TestIO:
    def test_csv_roundtrip(self, tmp_path):
        ds = ColumnarDataset.from_trajectories(
            [Trajectory(3, [(0.125, -1.5), (2.25, 3.75)]), Trajectory(9, [(5, 5)])]
        )
        path = tmp_path / "out.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.ids == [3, 9]
        assert np.array_equal(back.by_id(3).points, ds.by_id(3).points)

    def test_jsonl_roundtrip(self, tmp_path):
        ds = ColumnarDataset.from_trajectories([Trajectory(1, [(0.1, 0.2), (0.3, 0.4)])])
        path = tmp_path / "out.jsonl"
        save_jsonl(ds, path)
        back = load_jsonl(path)
        assert np.allclose(back.by_id(1).points, ds.by_id(1).points)

    def test_load_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert len(load_csv(path)) == 0


class TestStats:
    def test_dataset_stats(self):
        ds = ColumnarDataset.from_trajectories(
            [Trajectory(1, [(0, 0)] * 4), Trajectory(2, [(0, 0)] * 8)]
        )
        s = dataset_stats(ds)
        assert s.cardinality == 2
        assert s.avg_len == 6.0
        assert s.min_len == 4
        assert s.max_len == 8
        assert s.total_points == 12

    def test_empty_stats(self):
        s = dataset_stats(ColumnarDataset.from_trajectories([]))
        assert s.cardinality == 0

    def test_row_formatting(self):
        ds = ColumnarDataset.from_trajectories([Trajectory(1, [(0, 0)])])
        row = dataset_stats(ds).row("tiny")
        assert "tiny" in row
        assert stats_header().startswith("Dataset")


class TestSimplify:
    def test_straight_line_collapses(self):
        pts = np.array([(0, 0), (1, 0), (2, 0), (3, 0)], float)
        out = douglas_peucker(pts, 0.01)
        assert out.shape[0] == 2

    def test_keeps_corner(self):
        pts = np.array([(0, 0), (1, 0), (1, 5), (2, 5)], float)
        out = douglas_peucker(pts, 0.1)
        assert out.shape[0] == 4

    def test_error_bound(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 10, size=(50, 2))
        eps = 0.5
        out = douglas_peucker(pts, eps)
        # every original point is within eps of the simplified polyline
        for p in pts:
            best = math.inf
            for a, b in zip(out[:-1], out[1:]):
                ab = b - a
                denom = float(np.dot(ab, ab))
                t = 0.0 if denom == 0 else max(0.0, min(1.0, float(np.dot(p - a, ab)) / denom))
                best = min(best, float(np.linalg.norm(p - (a + t * ab))))
            assert best <= eps + 1e-9

    def test_simplify_keeps_id(self):
        t = Trajectory(42, [(0, 0), (1, 0.001), (2, 0)])
        s = simplify(t, 0.1)
        assert s.traj_id == 42
        assert len(s) == 2

    def test_short_trajectory_unchanged(self):
        t = Trajectory(1, [(0, 0), (1, 1)])
        assert len(simplify(t, 1.0)) == 2
