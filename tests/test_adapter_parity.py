"""Differential adapter parity: every distance adapter must produce the
same candidates *and* the same :class:`FilterStats` through

* ``oracles.scalar_filter.filter_candidates_reference`` — the recursive
  scalar ``visit`` walk (the oracle, kept under ``tests/``);
* ``filter_candidates`` — the public single-query entry point;
* ``filter_candidates_batch`` — the multi-query frontier sweep.

Randomized tries (several datasets × index shapes) keep the comparison
honest across node splits, short-trajectory leaves and mixed-length data.
"""

import pytest

from conftest import nonzero_counts
from oracles.per_pair import verify
from oracles.scalar_filter import filter_candidates_reference
from repro.core.adapters import EDRAdapter, ERPAdapter, LCSSAdapter, get_adapter
from repro.core.config import DITAConfig
from repro.core.trie import FilterStats, TrieIndex
from repro.datagen import citywide_dataset, random_walk_dataset, sample_queries
from repro.obs import MetricsRegistry

# (name, adapter factory, [taus]) — EDR/LCSS thresholds are edit counts
ADAPTERS = [
    ("dtw", lambda: get_adapter("dtw"), [0.002, 0.01]),
    ("frechet", lambda: get_adapter("frechet"), [0.002, 0.008]),
    ("hausdorff", lambda: get_adapter("hausdorff"), [0.001, 0.005]),
    ("edr", lambda: EDRAdapter(epsilon=0.0005), [1, 3]),
    ("lcss", lambda: LCSSAdapter(epsilon=0.0005, delta=3), [1, 3]),
    ("erp", lambda: ERPAdapter(ndim=2), [0.005, 0.02]),
]

# (dataset factory, index shape) pairs: vary fanout, pivot count and leaf
# capacity so splits, short leaves and deep tries are all exercised
TRIES = [
    (lambda: citywide_dataset(40, seed=71),
     dict(trie_fanout=3, num_pivots=2, trie_leaf_capacity=3)),
    (lambda: citywide_dataset(50, seed=13),
     dict(trie_fanout=4, num_pivots=3, trie_leaf_capacity=8)),
    (lambda: random_walk_dataset(40, avg_len=12, seed=3),
     dict(trie_fanout=2, num_pivots=4, trie_leaf_capacity=1)),
]


def _ids(trie, cands):
    # candidates are int64 dataset-row arrays; translate to ids to compare
    return sorted(trie.dataset.ids_of(cands))


def _stats_tuple(s: FilterStats):
    return (s.nodes_visited, s.nodes_pruned, s.candidates)


@pytest.fixture(scope="module", params=range(len(TRIES)), ids=["city71", "city13", "walks3"])
def trie_and_queries(request):
    make_data, shape = TRIES[request.param]
    data = make_data()
    config = DITAConfig(**shape)
    trie = TrieIndex(list(data), config)
    queries = [q.points for q in sample_queries(data, 3, seed=5, perturb=0.0002)]
    return trie, queries


class TestThreeWayParity:
    @pytest.mark.parametrize("name,make_adapter,taus", ADAPTERS, ids=[a[0] for a in ADAPTERS])
    def test_candidates_and_stats_identical(self, trie_and_queries, name, make_adapter, taus):
        trie, queries = trie_and_queries
        adapter = make_adapter()
        for tau in taus:
            # batched frontier sweep over all queries at once
            batch_stats = [FilterStats() for _ in queries]
            batched = trie.filter_candidates_batch(
                queries, [tau] * len(queries), adapter, batch_stats
            )
            for i, q in enumerate(queries):
                ref_stats, sc_stats = FilterStats(), FilterStats()
                ref = filter_candidates_reference(trie, q, tau, adapter, ref_stats)
                scalar = trie.filter_candidates(q, tau, adapter, sc_stats)
                assert _ids(trie, scalar) == _ids(trie, ref), (name, tau, i)
                assert _ids(trie, batched[i]) == _ids(trie, ref), (name, tau, i)
                assert _stats_tuple(sc_stats) == _stats_tuple(ref_stats), (name, tau, i)
                assert _stats_tuple(batch_stats[i]) == _stats_tuple(ref_stats), (name, tau, i)

    @pytest.mark.parametrize("name,make_adapter,taus", ADAPTERS, ids=[a[0] for a in ADAPTERS])
    def test_mixed_tau_batch_matches_per_query(self, trie_and_queries, name, make_adapter, taus):
        """A batch mixing thresholds must answer each query exactly as a
        solo call at that query's own threshold."""
        trie, queries = trie_and_queries
        adapter = make_adapter()
        mixed = [taus[i % len(taus)] for i in range(len(queries))]
        batched = trie.filter_candidates_batch(queries, mixed, adapter, None)
        for i, q in enumerate(queries):
            assert _ids(trie, batched[i]) == _ids(
                trie, filter_candidates_reference(trie, q, mixed[i], adapter, None)
            ), (name, i)

    @pytest.mark.parametrize("name,make_adapter,taus", ADAPTERS, ids=[a[0] for a in ADAPTERS])
    def test_candidates_are_a_superset_of_answers(self, trie_and_queries, name, make_adapter, taus):
        """The filter contract behind the parity: candidates always cover
        the true answer set for the adapter's distance."""
        trie, queries = trie_and_queries
        adapter = make_adapter()
        dist = adapter.distance()
        tau = taus[-1]
        for q in queries:
            cands = set(_ids(trie, trie.filter_candidates(q, tau, adapter, None)))
            for r in filter_candidates_reference(trie, q, float("inf"), adapter, None):
                r = int(r)
                if dist.compute(trie.dataset.points(r), q) <= tau:
                    assert trie.dataset.id_of(r) in cands, (name, r)
        assert len(trie)  # the trie holds the data the queries run against


class TestDeltaParity:
    """Streaming differential: ``search_batch_rows`` over base ∪ delta
    (pending write buffers folded in at read time) must answer
    byte-identically — rows, distances and ``stats`` counters — to the same
    engine after a *materialized* merge into new columnar blocks, for
    every adapter."""

    STREAM_CFG = DITAConfig(
        num_global_partitions=2, trie_fanout=3, num_pivots=2, trie_leaf_capacity=3
    )

    def _stream(self, make_adapter):
        import numpy as np

        from repro.core.engine import DITAEngine

        base = list(citywide_dataset(30, seed=71))
        engine = DITAEngine(base, self.STREAM_CFG, make_adapter())
        rng = np.random.default_rng(42)
        for k in range(9):
            src = base[(5 * k) % len(base)].points
            engine.append_trajectory(7_000 + k, src + rng.normal(0, 0.0004, src.shape))
        engine.extend_trajectory(7_000, rng.random((2, 2)) * 0.01)
        engine.extend_trajectory(base[2].traj_id, rng.random((3, 2)) * 0.01)
        assert engine.remove_trajectory(base[4].traj_id)
        assert engine.remove_trajectory(7_001)
        return base, engine

    @pytest.mark.parametrize("name,make_adapter,taus", ADAPTERS, ids=[a[0] for a in ADAPTERS])
    def test_base_union_delta_matches_materialized_merge(
        self, tmp_path, name, make_adapter, taus
    ):
        from repro.datagen import sample_queries as _sq

        base, streamed = self._stream(make_adapter)
        _, merged = self._stream(make_adapter)
        merged.attach_generations(tmp_path / f"gens-{name}")
        merged.merge()  # deltas now live in freshly written catalog blocks
        queries = _sq(base, 3, seed=5)
        tau_list = [taus[i % len(taus)] for i in range(len(queries))]
        s_delta, s_merged = MetricsRegistry(), MetricsRegistry()
        got = streamed.search_batch_rows(queries, tau_list, s_delta)
        want = merged.search_batch_rows(queries, tau_list, s_merged)
        assert got == want, name
        assert s_delta.snapshot() == s_merged.snapshot(), name


class TestVerifySeamParity:
    """``search_rows`` filters every query and then verifies every
    survivor of the call through ``exact_batch`` (DTW and Fréchet: shared
    kernel sweeps; the rest: the default loop).  It must answer — rows,
    distances to the bit, and every ``filter.*``/``verify.*`` count —
    exactly as a loop of the per-pair oracle over each query's candidates
    does."""

    @staticmethod
    def _per_pair(trie, adapter, verifier, q_points, tau, counts):
        from repro.core.verify import VerificationData
        from repro.trajectory import Trajectory

        cell = trie.config.cell_size
        fs = FilterStats()
        rows = trie.filter_candidates(q_points, tau, adapter, fs)
        for field in ("nodes_visited", "nodes_pruned", "candidates"):
            counts.counter(f"filter.{field}", getattr(fs, field))
        q = Trajectory(-1, q_points)
        q_data = VerificationData.of(q, cell)
        out = []
        for r in rows.tolist():
            t = trie.dataset.view(r)
            d = verify(verifier, t, q, tau, VerificationData.of(t, cell), q_data, counts)
            if d <= tau:
                out.append((r, d))
        return out

    @pytest.mark.parametrize("name,make_adapter,taus", ADAPTERS, ids=[a[0] for a in ADAPTERS])
    def test_rows_and_stats_identical_to_per_pair_verify(
        self, trie_and_queries, name, make_adapter, taus
    ):
        import struct

        from repro.core.search import search_rows
        from repro.core.verify import Verifier

        trie, queries = trie_and_queries
        adapter = make_adapter()
        verifier = Verifier(adapter)
        # every query at every threshold — and once far above it, so many
        # pairs survive the filters — in ONE call: pairs of different
        # queries and thresholds share their sweeps
        tau_list = [tau for tau in [*taus, 4 * taus[-1]] for _ in queries]
        q_list = queries * (len(taus) + 1)
        counts, want_counts = MetricsRegistry(), MetricsRegistry()
        got = search_rows(trie, adapter, verifier, q_list, tau_list, None, counts)
        for q, tau, matches in zip(q_list, tau_list, got):
            want = self._per_pair(trie, adapter, verifier, q, tau, want_counts)
            assert matches == want, (name, tau)
            assert [struct.pack("<d", d) for _, d in matches] == [
                struct.pack("<d", d) for _, d in want
            ]
            assert all(type(d) is float for _, d in matches)
        assert nonzero_counts(counts) == nonzero_counts(want_counts), name
        assert counts.value("verify.exact_computed") >= 2, "the call never had pairs to share a sweep"

    @pytest.mark.parametrize("name,make_adapter,taus", ADAPTERS, ids=[a[0] for a in ADAPTERS])
    def test_join_identical_with_the_seam_forced_per_pair(
        self, monkeypatch, name, make_adapter, taus
    ):
        """The same join with ``exact_batch`` replaced by the loop over
        ``exact_fn``: pairs, distances and ``join.*`` counts equal."""
        from repro.core.engine import DITAEngine

        cfg = DITAConfig(num_global_partitions=2, trie_fanout=3, num_pivots=2, trie_leaf_capacity=3)
        engine = DITAEngine(citywide_dataset(60, seed=71), cfg, make_adapter())
        tau = taus[-1]
        batched_stats = MetricsRegistry()
        batched = engine.join(engine, tau, stats=batched_stats)
        exact_fn = engine.verifier.exact_fn
        monkeypatch.setattr(
            engine.verifier,
            "exact_batch",
            lambda ts, qs, ts_taus: [exact_fn(t, q, x) for t, q, x in zip(ts, qs, ts_taus)],
        )
        looped_stats = MetricsRegistry()
        looped = engine.join(engine, tau, stats=looped_stats)
        assert batched == looped, name
        assert batched_stats.snapshot() == looped_stats.snapshot(), name
        assert batched_stats.value("join.verified_pairs") > 0

    @pytest.mark.parametrize("name,make_adapter,taus", ADAPTERS, ids=[a[0] for a in ADAPTERS])
    def test_exact_batch_bit_equal_to_looping_exact(self, name, make_adapter, taus):
        """The verifier's exact stage is the adapter's own ``exact_batch``:
        over a ragged batch of pairs it returns, bit for bit, what looping
        ``adapter.exact`` does — whichever kernel the adapter batches with."""
        import numpy as np

        from repro.core.verify import Verifier
        from repro.kernels.pairbatch import MIN_BATCH_PAIRS

        adapter = make_adapter()
        data = list(citywide_dataset(30, seed=71))
        ts = [t.points for t in data]
        # near-copies of the data, rotated so lengths differ within a pair
        near = [q.points for q in sample_queries(data, len(data), seed=5, perturb=0.0002)]
        qs = near[7:] + near[:7]
        tau_cycle = [taus[0], taus[-1], 4 * taus[-1], float("inf")]
        pair_taus = [tau_cycle[i % len(tau_cycle)] for i in range(len(ts))]
        assert len(ts) >= MIN_BATCH_PAIRS
        assert any(t.shape[0] != q.shape[0] for t, q in zip(ts, qs))
        got = np.asarray(Verifier(adapter).exact_batch(ts, qs, pair_taus), dtype=np.float64)
        want = np.asarray(
            [adapter.exact(t, q, tau) for t, q, tau in zip(ts, qs, pair_taus)], dtype=np.float64
        )
        assert np.isfinite(want).any(), name
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
