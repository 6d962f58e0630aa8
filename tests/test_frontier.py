"""Differential tests: frontier traversal vs. the recursive scalar walk.

The columnar frontier filter must reproduce the oracle walk of
``tests/oracles/scalar_filter.py`` exactly — same candidate sets, same
``FilterStats`` counts — for every adapter, on tries of every shape
(random fanouts, short leaves, rebuilt after engine inserts/removes), and
batched filtering must equal the per-query loop.
"""

import numpy as np
import pytest

from oracles.scalar_filter import filter_candidates_reference
from repro.core.adapters import (
    DTWAdapter,
    EDRAdapter,
    ERPAdapter,
    FrechetAdapter,
    HausdorffAdapter,
    LCSSAdapter,
)
from repro.core.config import DITAConfig
from repro.core.engine import DITAEngine
from repro.core.trie import FilterStats, TrieIndex
from repro.datagen import beijing_like, random_walk_dataset
from repro.kernels.frontier import QueryBatch
from repro.trajectory import Trajectory

#: (adapter, tau) pairs covering every accumulation policy, suffix pruning
#: on and off where the flag matters
ADAPTER_CASES = [
    (DTWAdapter(), 0.05),
    (DTWAdapter(use_suffix_pruning=False), 0.05),
    (FrechetAdapter(), 0.02),
    (FrechetAdapter(use_suffix_pruning=False), 0.02),
    (HausdorffAdapter(), 0.02),
    (EDRAdapter(epsilon=0.002), 6.0),
    (LCSSAdapter(epsilon=0.002, delta=2), 6.0),
    (ERPAdapter(), 0.05),
]

CASE_IDS = [
    "dtw", "dtw-nosuffix", "frechet", "frechet-nosuffix",
    "hausdorff", "edr", "lcss", "erp",
]


def assert_parity(trie, queries, adapter, tau):
    """Frontier batch == reference loop: ids, order-insensitive, and stats."""
    n = len(queries)
    s_ref = [FilterStats() for _ in range(n)]
    s_fro = [FilterStats() for _ in range(n)]
    ref = [
        filter_candidates_reference(trie, q, tau, adapter, s)
        for q, s in zip(queries, s_ref)
    ]
    got = trie.filter_candidates_batch(queries, [tau] * n, adapter, s_fro)
    ids = trie.dataset.ids_of
    for i in range(n):
        assert sorted(ids(ref[i])) == sorted(ids(got[i]))
        assert s_ref[i].nodes_visited == s_fro[i].nodes_visited, (i, s_ref[i], s_fro[i])
        assert s_ref[i].nodes_pruned == s_fro[i].nodes_pruned, (i, s_ref[i], s_fro[i])
        assert s_ref[i].candidates == s_fro[i].candidates


class TestDifferential:
    @pytest.mark.parametrize("adapter,tau", ADAPTER_CASES, ids=CASE_IDS)
    def test_beijing_like(self, adapter, tau):
        data = list(beijing_like(200, seed=11))
        trie = TrieIndex(data, DITAConfig(trie_fanout=4, num_pivots=3, trie_leaf_capacity=4))
        queries = [t.points for t in data[:6]]
        assert_parity(trie, queries, adapter, tau)

    @pytest.mark.parametrize("adapter,tau", ADAPTER_CASES, ids=CASE_IDS)
    def test_random_fanouts(self, adapter, tau):
        data = list(random_walk_dataset(80, avg_len=10, seed=17))
        for fanout, pivots, cap in [(2, 4, 1), (3, 0, 4), (8, 2, 2)]:
            trie = TrieIndex(
                data,
                DITAConfig(
                    trie_fanout=fanout, num_pivots=pivots,
                    trie_leaf_capacity=cap, cell_size=0.05,
                ),
            )
            queries = [t.points for t in data[:4]]
            assert_parity(trie, queries, adapter, 10 * tau)

    @pytest.mark.parametrize("adapter,tau", ADAPTER_CASES, ids=CASE_IDS)
    def test_short_leaf_tries(self, adapter, tau):
        """2-point trajectories end at level 2 (short leaves) and must be
        emitted by both walks identically."""
        trajs = [Trajectory(i, [(0.01 * i, 0.02 * i), (0.01 * i + 0.01, 0.02 * i)]) for i in range(12)]
        trajs += [
            Trajectory(100 + i, [(0.01 * j, 0.005 * i * j) for j in range(6)])
            for i in range(8)
        ]
        trie = TrieIndex(
            trajs, DITAConfig(trie_fanout=2, num_pivots=3, trie_leaf_capacity=1, cell_size=0.5)
        )
        queries = [trajs[0].points, trajs[13].points]
        assert_parity(trie, queries, adapter, tau)

    @pytest.mark.parametrize("adapter,tau", ADAPTER_CASES, ids=CASE_IDS)
    def test_post_insert_remove(self, adapter, tau):
        """The tries an engine serves after inserts and removes (every
        write rebuilds the partitions it touched)."""
        data = list(random_walk_dataset(60, avg_len=9, seed=23))
        engine = DITAEngine(
            data[:40],
            DITAConfig(
                num_global_partitions=2, trie_fanout=3, num_pivots=2,
                trie_leaf_capacity=2, cell_size=0.05,
            ),
        )
        for t in data[40:]:
            engine.insert(t)
        for t in data[5:15]:
            assert engine.remove(t.traj_id)
        engine.sync_for_read()
        assert len(engine) == 50
        queries = [t.points for t in data[:4]] + [data[45].points]
        for pid in engine.partition_pids():
            assert_parity(engine.trie(pid), queries, adapter, tau)

    def test_varied_taus_in_one_batch(self):
        data = list(beijing_like(150, seed=5))
        trie = TrieIndex(data, DITAConfig(trie_fanout=4, num_pivots=3))
        adapter = DTWAdapter()
        queries = [t.points for t in data[:5]]
        taus = [0.0, 1e-4, 0.01, 0.1, 2.0]
        got = trie.filter_candidates_batch(queries, taus, adapter)
        for q, tau, cands in zip(queries, taus, got):
            ref = filter_candidates_reference(trie, q, tau, adapter)
            assert sorted(trie.dataset.ids_of(ref)) == sorted(trie.dataset.ids_of(cands))


class TestBatchVsLoop:
    def test_batch_equals_single_query_calls(self):
        """filter_candidates_batch over Q queries == Q filter_candidates
        calls, element for element (same ids in the same order)."""
        data = list(beijing_like(200, seed=3))
        trie = TrieIndex(data, DITAConfig(trie_fanout=4, num_pivots=3))
        adapter = DTWAdapter()
        queries = [t.points for t in data[:10]]
        taus = [0.01] * 10
        batched = trie.filter_candidates_batch(queries, taus, adapter)
        looped = [trie.filter_candidates(q, t, adapter) for q, t in zip(queries, taus)]
        assert [trie.dataset.ids_of(c) for c in batched] == [
            trie.dataset.ids_of(c) for c in looped
        ]

    def test_searcher_batch_equals_loop(self):
        from repro.core.search import search_rows
        from repro.core.verify import Verifier
        from repro.obs import MetricsRegistry

        data = list(beijing_like(120, seed=9))
        trie = TrieIndex(data, DITAConfig(trie_fanout=4, num_pivots=3))
        adapter = DTWAdapter()
        verifier = Verifier(adapter)
        queries = [t.points for t in data[:6]]
        taus = [0.004] * 6
        stats_b, stats_l = MetricsRegistry(), MetricsRegistry()
        batched = search_rows(trie, adapter, verifier, queries, taus, None, stats_b)
        looped = [
            search_rows(trie, adapter, verifier, [q], [t], None, stats_l)[0]
            for q, t in zip(queries, taus)
        ]
        ids = trie.dataset.id_of
        for got, ref in zip(batched, looped):
            assert [(ids(r), d) for r, d in got] == [(ids(r), d) for r, d in ref]
        assert stats_b.snapshot() == stats_l.snapshot()


class TestEndToEnd:
    def test_search_batch_matches_search(self):
        data = beijing_like(120, seed=4)
        engine = DITAEngine(
            data, DITAConfig(num_global_partitions=3, trie_fanout=4, num_pivots=3)
        )
        queries = [data.by_id(i) for i in sorted(data.ids)[:5]]
        taus = [0.003] * len(queries)
        batched = engine.search_batch(queries, taus)
        for q, tau, matches in zip(queries, taus, batched):
            assert sorted((t.traj_id, d) for t, d in matches) == sorted(
                (t.traj_id, d) for t, d in engine.search(q, tau)
            )


class TestFallbacksAndLayout:
    def test_columnar_layout_counts(self):
        data = list(beijing_like(90, seed=6))
        trie = TrieIndex(data, DITAConfig(trie_fanout=3, num_pivots=2, trie_leaf_capacity=2))
        ct = trie.columnar()
        assert ct.n_nodes == trie.node_count()
        assert int(ct.member_rows.shape[0]) == len(trie.all_rows())
        assert ct.size_bytes() > 0
        # child CSR ranges tile [1, n_nodes) exactly once
        spans = sorted(
            (int(lo), int(hi)) for lo, hi in zip(ct.child_lo, ct.child_hi) if hi > lo
        )
        flat = [i for lo, hi in spans for i in range(lo, hi)]
        assert flat == list(range(1, ct.n_nodes))

    def test_query_batch_validation(self):
        with pytest.raises(ValueError):
            QueryBatch([np.empty((0, 2))])
        with pytest.raises(ValueError):
            TrieIndex([], DITAConfig()).filter_candidates_batch(
                [np.zeros((2, 2))], [0.1, 0.2], DTWAdapter()
            )

    def test_empty_trie(self):
        trie = TrieIndex([], DITAConfig())
        got = trie.filter_candidates_batch([np.zeros((3, 2))], [1.0], DTWAdapter())
        assert len(got) == 1 and int(got[0].shape[0]) == 0
