"""Tests for the synthetic dataset generators and query sampling."""

import numpy as np
import pytest

from repro.datagen import (
    beijing_like,
    chengdu_like,
    citywide_dataset,
    osm_like,
    random_walk_dataset,
    sample_queries,
    worldwide_dataset,
)
from repro.distances import get_distance
from repro.storage import ColumnarDataset
from repro.trajectory import dataset_stats


class TestGenerators:
    def test_deterministic(self):
        a = citywide_dataset(30, seed=7)
        b = citywide_dataset(30, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.points, y.points)

    def test_different_seeds_differ(self):
        a = citywide_dataset(10, seed=1)
        b = citywide_dataset(10, seed=2)
        assert not np.array_equal(a[0].points, b[0].points)

    def test_cardinality(self):
        assert len(citywide_dataset(55, seed=0)) == 55
        assert len(worldwide_dataset(23, seed=0)) == 23
        assert len(random_walk_dataset(12, seed=0)) == 12

    def test_invalid_n(self):
        for gen in (citywide_dataset, worldwide_dataset, random_walk_dataset):
            with pytest.raises(ValueError):
                gen(0)

    def test_length_bounds_respected(self):
        ds = citywide_dataset(60, seed=3, min_len=7, max_len=50)
        stats = dataset_stats(ds)
        assert stats.min_len >= 7
        assert stats.max_len <= 50

    def test_citywide_confined_to_extent(self):
        ds = citywide_dataset(40, seed=5, extent=0.2)
        for t in ds:
            assert np.all(t.points >= 0) and np.all(t.points <= 0.2)

    def test_route_families_produce_similar_pairs(self):
        """The duplication mechanism must yield matches at the paper's tau."""
        ds = citywide_dataset(40, seed=9, duplication=4)
        d = get_distance("dtw")
        trajs = list(ds)
        found = any(
            d.compute(a.points, b.points) <= 0.005
            for i, a in enumerate(trajs)
            for b in trajs[i + 1 :]
        )
        assert found

    def test_worldwide_is_sparse(self):
        """Worldwide data spans a huge extent so most pairs are dissimilar."""
        ds = worldwide_dataset(30, seed=4)
        firsts = ds.firsts
        spread = np.max(firsts, axis=0) - np.min(firsts, axis=0)
        assert np.all(spread > 1.0)

    def test_named_presets(self):
        b = beijing_like(25)
        c = chengdu_like(25)
        o = osm_like(25)
        assert dataset_stats(c).avg_len > dataset_stats(b).avg_len
        assert len(o) == 25


class TestSampleQueries:
    def test_counts_and_ids(self):
        ds = citywide_dataset(20, seed=0)
        qs = sample_queries(ds, 5, seed=1)
        assert len(qs) == 5
        assert all(q.traj_id < 0 for q in qs)

    def test_deterministic(self):
        ds = citywide_dataset(20, seed=0)
        a = sample_queries(ds, 3, seed=2)
        b = sample_queries(ds, 3, seed=2)
        for x, y in zip(a, b):
            assert np.array_equal(x.points, y.points)

    def test_perturbation(self):
        ds = citywide_dataset(20, seed=0)
        q = sample_queries(ds, 1, seed=3, perturb=0.01)[0]
        # the perturbed query should not exactly equal any dataset member
        assert all(not np.array_equal(q.points, t.points) for t in ds)

    def test_validation(self):
        ds = citywide_dataset(5, seed=0)
        with pytest.raises(ValueError):
            sample_queries(ds, 0)
        with pytest.raises(ValueError):
            sample_queries(ColumnarDataset.from_trajectories([]), 1)
