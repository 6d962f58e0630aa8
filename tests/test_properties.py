"""Cross-module property tests: the system-level invariants of DESIGN.md §5.

These generate whole random *datasets* (not just trajectory pairs) and
assert that the full pipeline — partitioning, global index, trie,
verification — returns exactly the brute-force answer for randomly drawn
queries and thresholds, under DTW and Fréchet.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DITAConfig, DITAEngine
from repro.distances import get_distance
from repro.trajectory import Trajectory

coord = st.floats(0, 10, allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw, min_n=3, max_n=14):
    n = draw(st.integers(min_n, max_n))
    trajs = []
    for i in range(n):
        length = draw(st.integers(1, 8))
        pts = [[draw(coord), draw(coord)] for _ in range(length)]
        trajs.append(Trajectory(i, np.asarray(pts)))
    return trajs


@st.composite
def engine_cases(draw):
    trajs = draw(datasets())
    q_idx = draw(st.integers(0, len(trajs) - 1))
    tau = draw(st.floats(0.0, 12.0))
    ng = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3))
    return trajs, trajs[q_idx], tau, ng, k


def _cfg(ng: int, k: int) -> DITAConfig:
    return DITAConfig(
        num_global_partitions=ng,
        trie_fanout=2,
        num_pivots=k,
        trie_leaf_capacity=2,
        cell_size=1.0,
    )


class TestSearchEqualsBruteForce:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(engine_cases())
    def test_dtw(self, case):
        trajs, query, tau, ng, k = case
        engine = DITAEngine(trajs, _cfg(ng, k))
        d = get_distance("dtw")
        got = engine.search_ids(query, tau)
        want = sorted(t.traj_id for t in trajs if d.compute(t.points, query.points) <= tau)
        assert got == want

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(engine_cases())
    def test_frechet(self, case):
        trajs, query, tau, ng, k = case
        engine = DITAEngine(trajs, _cfg(ng, k), distance="frechet")
        d = get_distance("frechet")
        got = engine.search_ids(query, tau)
        want = sorted(t.traj_id for t in trajs if d.compute(t.points, query.points) <= tau)
        assert got == want


class TestJoinEqualsBruteForce:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(datasets(min_n=3, max_n=10), st.floats(0.0, 8.0))
    def test_dtw_self_join(self, trajs, tau):
        engine = DITAEngine(trajs, _cfg(2, 2))
        d = get_distance("dtw")
        got = sorted((a, b) for a, b, _ in engine.join(engine, tau))
        want = sorted(
            (a.traj_id, b.traj_id)
            for a in trajs
            for b in trajs
            if d.compute(a.points, b.points) <= tau
        )
        assert got == want


class TestIndexStructure:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(datasets(), st.integers(1, 3), st.integers(0, 4))
    def test_every_trajectory_indexed_once(self, trajs, ng, k):
        engine = DITAEngine(trajs, _cfg(ng, k))
        stored = sorted(
            int(i)
            for trie in engine.runtime.loaded().values()
            for i in trie.dataset.ids_of(np.asarray(trie.all_rows(), dtype=np.int64))
        )
        assert stored == sorted(t.traj_id for t in trajs)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(datasets(), st.integers(1, 3))
    def test_partition_meta_covers(self, trajs, ng):
        engine = DITAEngine(trajs, _cfg(ng, 2))
        for pid in engine.partition_pids():
            meta = engine.global_index.meta(pid)
            for t in engine.partition(pid):
                assert meta.mbr_first.contains_point(t.first)
                assert meta.mbr_last.contains_point(t.last)
