"""Tests for the spatial substrate: STR packing, R-tree, grid index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.mbr import MBR
from repro.spatial import RTree, str_partition
from repro.spatial.str_pack import str_tile_1d

coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


class TestSTRTile1D:
    def test_balanced_split(self):
        groups = str_tile_1d(np.arange(10.0), 2)
        assert sorted(len(g) for g in groups) == [5, 5]

    def test_single_tile(self):
        groups = str_tile_1d(np.arange(7.0), 1)
        assert len(groups) == 1
        assert groups[0].size == 7

    def test_rank_contiguous(self):
        values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        groups = str_tile_1d(values, 2)
        # first group holds the smallest ranks
        assert sorted(values[groups[0]].tolist()) == [1.0, 2.0, 3.0]

    def test_invalid_tiles(self):
        with pytest.raises(ValueError):
            str_tile_1d(np.arange(3.0), 0)


class TestSTRPartition:
    def test_exact_cover(self):
        pts = np.random.default_rng(0).uniform(0, 1, size=(100, 2))
        tiles = str_partition(pts, 9)
        all_idx = np.concatenate(tiles)
        assert sorted(all_idx.tolist()) == list(range(100))

    def test_balance_on_skew(self):
        """STR's guarantee: roughly equal tiles even on skewed data."""
        rng = np.random.default_rng(1)
        pts = np.vstack([rng.normal(0, 0.001, size=(90, 2)), rng.uniform(0, 10, size=(10, 2))])
        tiles = str_partition(pts, 4)
        sizes = [t.size for t in tiles]
        assert max(sizes) <= 2 * min(sizes) + 2

    def test_more_tiles_than_points(self):
        pts = np.random.default_rng(2).uniform(0, 1, size=(3, 2))
        tiles = str_partition(pts, 100)
        assert sum(t.size for t in tiles) == 3

    def test_single_point(self):
        tiles = str_partition(np.array([[0.5, 0.5]]), 4)
        assert len(tiles) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            str_partition(np.empty((0, 2)), 2)

    @settings(max_examples=40)
    @given(st.integers(1, 50), st.integers(1, 10))
    def test_every_point_assigned_once(self, n, k):
        pts = np.random.default_rng(n * 31 + k).uniform(0, 1, size=(n, 2))
        tiles = str_partition(pts, k)
        all_idx = sorted(np.concatenate(tiles).tolist())
        assert all_idx == list(range(n))


def _random_entries(n, seed=0):
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n):
        low = rng.uniform(0, 100, size=2)
        high = low + rng.uniform(0, 5, size=2)
        entries.append((MBR(low, high), i))
    return entries


class TestRTree:
    def test_len_and_height(self):
        entries = _random_entries(100)
        tree = RTree(entries, max_entries=8)
        assert len(tree) == 100
        assert tree.height >= 2

    def test_empty_tree(self):
        tree = RTree([])
        assert len(tree) == 0
        assert tree.search_min_dist(np.array([0.0, 0.0]), 10) == []
        assert tree.nearest(np.array([0.0, 0.0])) == []

    def test_min_entries_validation(self):
        with pytest.raises(ValueError):
            RTree([], max_entries=1)

    def test_search_min_dist_matches_scan(self):
        entries = _random_entries(200, seed=3)
        tree = RTree(entries, max_entries=8)
        q = np.array([50.0, 50.0])
        for tau in (0.5, 5.0, 30.0):
            got = sorted(pid for _, pid in tree.search_min_dist(q, tau))
            want = sorted(pid for mbr, pid in entries if mbr.min_dist_point(q) <= tau)
            assert got == want

    def test_search_intersects_matches_scan(self):
        entries = _random_entries(150, seed=4)
        tree = RTree(entries, max_entries=6)
        region = MBR((20, 20), (60, 60))
        got = sorted(pid for _, pid in tree.search_intersects(region))
        want = sorted(pid for mbr, pid in entries if mbr.intersects(region))
        assert got == want

    def test_nearest_matches_scan(self):
        entries = _random_entries(120, seed=5)
        tree = RTree(entries, max_entries=8)
        q = np.array([10.0, 90.0])
        got = [pid for _, _, pid in tree.nearest(q, k=5)]
        want = sorted(entries, key=lambda e: e[0].min_dist_point(q))[:5]
        assert got == [pid for _, pid in want]

    def test_all_entries_complete(self):
        entries = _random_entries(77, seed=6)
        tree = RTree(entries, max_entries=4)
        assert sorted(pid for _, pid in tree.all_entries()) == list(range(77))

    def test_search_predicate_generic(self):
        entries = _random_entries(50, seed=7)
        tree = RTree(entries, max_entries=4)
        region = MBR((0, 0), (50, 50))
        got = sorted(
            pid
            for _, pid in tree.search_predicate(
                lambda m: m.intersects(region), lambda m: region.contains_mbr(m)
            )
        )
        want = sorted(pid for mbr, pid in entries if region.contains_mbr(mbr))
        assert got == want
