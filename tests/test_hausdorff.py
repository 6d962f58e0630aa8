"""Tests for the Hausdorff distance and its index adapter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_join, brute_force_search
from repro import DITAConfig, DITAEngine
from repro.datagen import citywide_dataset, sample_queries
from repro.distances import get_distance, hausdorff, hausdorff_threshold
from repro.distances.frechet import frechet

coords = st.floats(-20, 20, allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw, min_len=1, max_len=9):
    n = draw(st.integers(min_len, max_len))
    return np.asarray([[draw(coords), draw(coords)] for _ in range(n)])


T1 = np.array([(1, 1), (1, 2), (3, 2), (4, 4), (4, 5), (5, 5)], float)
T3 = np.array([(1, 1), (4, 1), (4, 3), (4, 5), (4, 6), (5, 6)], float)


class TestHausdorff:
    def test_known_value(self):
        assert hausdorff(T1, T3) == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_identity_symmetry(self):
        assert hausdorff(T1, T1) == 0.0
        assert hausdorff(T1, T3) == hausdorff(T3, T1)

    def test_at_most_frechet(self):
        """Hausdorff drops the ordering constraint, so H <= Frechet."""
        assert hausdorff(T1, T3) <= frechet(T1, T3) + 1e-12

    def test_order_insensitive(self):
        assert hausdorff(T1[::-1].copy(), T3) == pytest.approx(hausdorff(T1, T3))

    @settings(max_examples=60)
    @given(trajectories(), trajectories(), trajectories())
    def test_triangle_inequality(self, a, b, c):
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9

    @settings(max_examples=60)
    @given(trajectories(), trajectories(), st.floats(0.1, 40))
    def test_threshold_agrees(self, t, q, tau):
        h = hausdorff(t, q)
        ht = hausdorff_threshold(t, q, tau)
        if h <= tau:
            assert ht == pytest.approx(h)
        else:
            assert ht == math.inf

    def test_registry(self):
        d = get_distance("hausdorff")
        assert d.is_metric


class TestHausdorffEngine:
    @pytest.fixture(scope="class")
    def city(self):
        return citywide_dataset(70, seed=41)

    @pytest.fixture(scope="class")
    def engine(self, city):
        cfg = DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3)
        return DITAEngine(city, cfg, distance="hausdorff")

    def test_search_matches_brute_force(self, engine, city):
        d = get_distance("hausdorff")
        for q in sample_queries(city, 3, seed=3, perturb=0.0002):
            assert engine.search_ids(q, 0.001) == brute_force_search(city, d, q, 0.001)

    def test_join_matches_brute_force(self, engine, city):
        d = get_distance("hausdorff")
        got = sorted((a, b) for a, b, _ in engine.join(engine, 0.0008))
        assert got == brute_force_join(city, city, d, 0.0008)

    def test_reversed_trajectory_found(self, engine, city):
        """Order insensitivity end-to-end: a reversed copy of a dataset
        member matches it at tau ~ jitter scale."""
        from repro.trajectory import Trajectory

        member = list(city)[0]
        rev = Trajectory(-1, member.points[::-1].copy())
        assert member.traj_id in engine.search_ids(rev, 1e-9)
