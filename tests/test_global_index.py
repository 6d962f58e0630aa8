"""Tests for partitioning and the global index (Sections 4.2.1-4.2.2)."""

import numpy as np
import pytest

from repro.core.adapters import DTWAdapter, EDRAdapter, FrechetAdapter
from repro.core.config import DITAConfig
from repro.core.global_index import GlobalIndex, partition_trajectories
from repro.datagen import citywide_dataset, random_walk_dataset
from repro.distances.dtw import dtw
from repro.trajectory import Trajectory


@pytest.fixture(scope="module")
def city():
    return citywide_dataset(150, seed=21)


@pytest.fixture(scope="module")
def partitions(city):
    return partition_trajectories(list(city), 3)


@pytest.fixture(scope="module")
def gindex(partitions):
    return GlobalIndex(partitions, DITAConfig(num_global_partitions=3))


class TestPartitioning:
    def test_every_trajectory_once(self, city, partitions):
        ids = sorted(t.traj_id for p in partitions for t in p)
        assert ids == sorted(t.traj_id for t in city)

    def test_partition_count(self, partitions):
        assert len(partitions) <= 9  # NG * NG

    def test_roughly_balanced(self, partitions):
        sizes = [len(p) for p in partitions if p]
        assert max(sizes) <= 3 * min(sizes) + 3

    def test_empty_dataset(self):
        assert partition_trajectories([], 4) == []

    def test_single_trajectory(self):
        parts = partition_trajectories([Trajectory(1, [(0, 0), (1, 1)])], 4)
        assert sum(len(p) for p in parts) == 1

    def test_locality(self, partitions):
        """Trajectories in one partition share nearby first points."""
        for part in partitions:
            if len(part) < 2:
                continue
            firsts = np.asarray([t.first for t in part])
            spread = np.max(firsts, axis=0) - np.min(firsts, axis=0)
            assert np.all(spread <= 0.25)  # city extent is 0.2


class TestGlobalIndex:
    def test_partition_meta(self, gindex, partitions):
        assert len(gindex) == sum(1 for p in partitions if p)
        for meta in gindex.partitions_meta:
            part = partitions[meta.partition_id]
            assert meta.size == len(part)
            for t in part:
                assert meta.mbr_first.contains_point(t.first)
                assert meta.mbr_last.contains_point(t.last)

    def test_relevant_partitions_sound_for_dtw(self, gindex, partitions, city):
        """Any partition holding a true answer must be reported relevant."""
        adapter = DTWAdapter()
        tau = 0.005
        for q in list(city)[:8]:
            relevant = set(gindex.relevant_partitions(q.points, tau, adapter))
            for pid, part in enumerate(partitions):
                if any(dtw(t.points, q.points) <= tau for t in part):
                    assert pid in relevant

    def test_relevant_prunes_far_queries(self, gindex):
        q = np.array([(99.0, 99.0), (99.5, 99.5)])
        assert gindex.relevant_partitions(q, 0.001, DTWAdapter()) == []

    def test_frechet_mode_individual_thresholds(self, gindex, city):
        q = list(city)[0]
        rel = gindex.relevant_partitions(q.points, 0.01, FrechetAdapter())
        assert isinstance(rel, list)

    def test_edit_distances_keep_all(self, gindex, city):
        q = list(city)[0]
        rel = gindex.relevant_partitions(q.points, 2, EDRAdapter(epsilon=0.001))
        assert len(rel) == len(gindex)

    def test_meta_lookup(self, gindex):
        pid = gindex.partitions_meta[0].partition_id
        assert gindex.meta(pid).partition_id == pid

    def test_size_bytes(self, gindex):
        assert gindex.size_bytes() > 0
