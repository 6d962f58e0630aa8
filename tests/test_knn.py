"""Tests for the KNN extension (the paper's future work, implemented)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DITAConfig, DITAEngine
from repro.core.adapters import available_adapters
from repro.analytics import knn_outlier_scores
from repro.core.knn import knn_join, knn_search, knn_search_batch
from repro.core.verify import Verifier
from repro.datagen import beijing_like, sample_queries
from repro.distances import get_distance
from repro.storage import ColumnarDataset
from repro.storage.store import build_store
from repro.trajectory import Trajectory


@pytest.fixture(scope="module")
def city():
    return beijing_like(80, seed=61)


@pytest.fixture(scope="module")
def engine(city):
    cfg = DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3, trie_leaf_capacity=4)
    return DITAEngine(city, cfg)


def brute_force_knn(data, query, k, distance="dtw"):
    d = get_distance(distance)
    scored = sorted(
        ((t, d.compute(t.points, query.points)) for t in data),
        key=lambda m: (m[1], m[0].traj_id),
    )
    return [(t.traj_id, dist) for t, dist in scored[:k]]


class TestKNNSearch:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_brute_force(self, engine, city, k):
        for q in sample_queries(city, 3, seed=5, perturb=0.0003):
            got = [(t.traj_id, d) for t, d in knn_search(engine, q, k)]
            want = brute_force_knn(city, q, k)
            assert [g[0] for g in got] == [w[0] for w in want]
            for (gid, gd), (wid, wd) in zip(got, want):
                assert gd == pytest.approx(wd, abs=1e-9)

    @pytest.mark.parametrize("distance", ["dtw", "frechet", "hausdorff"])
    def test_matches_brute_force_per_distance(self, city, distance):
        """The box cut (all three) and the flat candidate source (DTW and
        Fréchet) change which rows reach the DP, never the answer."""
        cfg = DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3, trie_leaf_capacity=4)
        eng = DITAEngine(city, cfg, distance=distance)
        for q in sample_queries(city, 3, seed=19, perturb=0.0003):
            for k in (1, 10, len(city)):
                got = [(t.traj_id, d) for t, d in knn_search(eng, q, k)]
                want = brute_force_knn(city, q, k, distance)
                assert [g[0] for g in got] == [w[0] for w in want], (distance, k)
                for (_, gd), (_, wd) in zip(got, want):
                    assert gd == pytest.approx(wd, abs=1e-9)

    def test_k_larger_than_dataset(self, engine, city):
        q = sample_queries(city, 1, seed=9)[0]
        got = knn_search(engine, q, len(city) + 50)
        assert len(got) == len(city)

    def test_k_one_self(self, engine, city):
        """An exact dataset member's 1-NN is itself at distance 0."""
        q = sample_queries(city, 1, seed=11)[0]
        (t, d) = knn_search(engine, q, 1)[0]
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_invalid_k(self, engine, city):
        q = sample_queries(city, 1, seed=2)[0]
        with pytest.raises(ValueError):
            knn_search(engine, q, -1)

    @pytest.mark.parametrize("k", [2.0, "3", True, None])
    def test_non_int_k_is_a_value_error_naming_k(self, engine, city, k):
        """Regression: ``k=2.0`` died with ``TypeError: list indices must
        be integers`` and ``k="3"`` on a ``str < int`` comparison, both
        deep inside the sweep."""
        q = sample_queries(city, 1, seed=2)[0]
        with pytest.raises(ValueError, match="k must be"):
            knn_search(engine, q, k)
        with pytest.raises(ValueError, match="k must be"):
            knn_join(engine, engine, k)

    @pytest.mark.parametrize("k", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_k_is_an_int(self, engine, city, k):
        """Regression: ``np.int64(3)`` raised ``ValueError: k must be a
        non-negative int``."""
        q = sample_queries(city, 1, seed=2)[0]
        assert knn_search(engine, q, k) == knn_search(engine, q, 3)
        assert knn_join(engine, engine, k) == knn_join(engine, engine, 3)

    def test_engine_emptied_by_remove(self, city):
        """Regression: with every row removed, seeding raised ``ValueError:
        need at least one array to concatenate``."""
        rows = list(city)[:5]
        eng = DITAEngine(rows, DITAConfig(num_global_partitions=2))
        for t in rows:
            assert eng.remove(t.traj_id)
        assert knn_search(eng, rows[0], 3) == []
        assert knn_join(eng, DITAEngine(rows, DITAConfig(num_global_partitions=1)), 2) == []

    def test_k_zero(self, engine, city):
        """k == 0 is a valid (empty) request at the serving boundary."""
        q = sample_queries(city, 1, seed=2)[0]
        assert knn_search(engine, q, 0) == []

    def test_sees_buffered_stream_writes(self, city):
        """Regression: knn_search must flush pending deltas before seeding.

        With a tiny base and k larger than the *base* (but not the logical
        dataset), the stale pre-fix path under-returned: the seed/full pool
        only saw the base rows.
        """
        cfg = DITAConfig(
            num_global_partitions=2,
            trie_fanout=4,
            num_pivots=3,
            trie_leaf_capacity=4,
            delta_max_rows=10_000,  # keep writes buffered until flush-on-read
        )
        base = list(city)[:6]
        eng = DITAEngine(base, cfg)
        for t in list(city)[6:20]:
            eng.append_trajectory(t.traj_id, t.points)
        q = sample_queries(city, 1, seed=3)[0]
        got = knn_search(eng, q, 12)
        assert len(got) == 12
        want = brute_force_knn(list(city)[:20], q, 12)
        assert [t.traj_id for t, _ in got] == [w[0] for w in want]

    def test_sorted_output(self, engine, city):
        q = sample_queries(city, 1, seed=13, perturb=0.0005)[0]
        result = knn_search(engine, q, 7)
        dists = [d for _, d in result]
        assert dists == sorted(dists)

    def test_frechet_knn(self, city):
        cfg = DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3)
        fe = DITAEngine(city, cfg, distance="frechet")
        q = sample_queries(city, 1, seed=17, perturb=0.0003)[0]
        got = [t.traj_id for t, _ in knn_search(fe, q, 4)]
        want = [tid for tid, _ in brute_force_knn(city, q, 4, "frechet")]
        assert got == want


class TestKNNJoin:
    def test_matches_per_query_knn(self, engine, city):
        small_cfg = DITAConfig(num_global_partitions=1, trie_fanout=4, num_pivots=2)
        right = DITAEngine(list(city)[:10], small_cfg)
        rows = knn_join(engine, right, 2)
        assert len(rows) == 10 * 2
        for q in list(city)[:10]:
            expected = brute_force_knn(city, q, 2)
            got = [(a, d) for a, b, d in rows if b == q.traj_id]
            assert [g[0] for g in got] == [e[0] for e in expected]

    def test_invalid_k(self, engine):
        with pytest.raises(ValueError):
            knn_join(engine, engine, -3)

    def test_k_zero(self, engine):
        assert knn_join(engine, engine, 0) == []


class TestTieAtThreshold:
    """Regression: the threshold kernels assemble their sums differently
    from the full-distance kernels, so a candidate whose true distance
    exactly equals the current k-th distance could come back ``inf`` from
    the threshold sweep and lose an id tie-break it should win.

    ``T``/``Q`` below is a concrete pair where
    ``dtw_double_direction(T, Q, dtw(T, Q)) == inf`` (found by seeded
    search; the divergence is a ULP in the join-step summation).
    """

    T = np.array(
        [
            [0.6719948779563594, 0.1995154439682133],
            [0.9421131105064978, 0.36511016824482856],
            [0.10549527957022953, 0.6291081515397092],
            [0.9271545530678674, 0.440377154715784],
            [0.9545904936907372, 0.499895813687647],
        ]
    )
    Q = np.array(
        [
            [0.42522862484907553, 0.6202134520153778],
            [0.9950965052353241, 0.9489436749377653],
            [0.4600451393090961, 0.7577288453082914],
        ]
    )

    def test_kernel_divergence_premise(self):
        """The engineered pair really does diverge at the boundary —
        if a kernel change makes this vacuous, pick a new pair."""
        import math

        from repro.distances.dtw import dtw, dtw_double_direction

        d = dtw(self.T, self.Q)
        assert not math.isfinite(dtw_double_direction(self.T, self.Q, d))

    def test_exact_top_k_keeps_exact_ties(self):
        """Two trajectories at exactly the k-th distance, in different
        partitions: the smaller id must win although the larger one's
        partition answers first, matching brute force."""
        query = Trajectory(0, self.Q)
        # identical geometry, distinct ids: an exact distance tie
        a = Trajectory(2, self.T.copy())
        b = Trajectory(10, self.T.copy())
        filler = Trajectory(5, self.Q.copy() + 1.0)  # far away
        data = [a, b, filler]
        # both partitions' endpoint bounds tie, so pid 0 (holding b) makes
        # the first wave and pid 1 is asked for rows within b's distance:
        # a ties it exactly and must displace b on the id tie-break
        pack = ColumnarDataset.from_trajectories
        engine = DITAEngine.from_partitions(
            {0: pack([b]), 1: pack([a, filler])},
            DITAConfig(num_global_partitions=1, trie_fanout=2, num_pivots=2),
        )
        got = [(t.traj_id, d) for t, d in knn_search(engine, query, 1)]
        assert [g[0] for g in got] == [2]
        both = [t.traj_id for t, _ in knn_search(engine, query, 2)]
        assert both == [2, 10]
        # the distance is the threshold kernel's, the one search reports
        assert got[0][1] == engine.adapter.exact(self.T, self.Q, math.inf)

    def test_knn_search_matches_brute_force_on_ties(self):
        """End-to-end kNN over a dataset containing exact duplicates."""
        base = beijing_like(30, seed=21)
        trajs = list(base)
        dup_src = trajs[0]
        trajs.append(Trajectory(max(base.ids) + 1, dup_src.points.copy()))
        trajs.append(Trajectory(max(base.ids) + 2, dup_src.points.copy()))
        engine = DITAEngine(
            trajs, DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3)
        )
        query = Trajectory(-1, dup_src.points.copy())
        got = [(t.traj_id, d) for t, d in knn_search(engine, query, 3)]
        want = brute_force_knn(trajs, query, 3)
        assert [g[0] for g in got] == [w[0] for w in want]


class TestSeedingCost:
    def test_seed_tasks_do_real_work(self, city):
        """Regression: tau-seeding used to run `lambda: None` tasks with a
        side-channel `work=` charge — free under a measure hook that prices
        the body's real execution.  Every simulated task body (now the
        ``knn.topk`` passes) must return its computation's result."""
        from repro.cluster import Cluster
        from repro.cluster.clock import DEFAULT_UNIT_COST_S

        captured = []

        def spy_measure(fn, work=1.0):
            result = fn()
            captured.append(result)
            return result, float(work) * DEFAULT_UNIT_COST_S

        cluster = Cluster(n_workers=4, measure=spy_measure)
        cfg = DITAConfig(
            num_global_partitions=2, trie_fanout=4, num_pivots=3, trie_leaf_capacity=4
        )
        engine = DITAEngine(city, cfg, cluster=cluster)
        q = sample_queries(city, 1, seed=5)[0]
        knn_search(engine, q, 5)
        assert captured
        assert all(r is not None for r in captured)


# --------------------------------------------------------------------- #
# the best-first pass against a brute-force ranking, all six adapters
# --------------------------------------------------------------------- #

ADAPTERS = sorted(available_adapters())


def ranked(adapter, data, query, k):
    """The brute-force answer: every row's ``exact_batch`` value (the one
    ``search`` reports), ranked by ``(distance, id)``."""
    trajs = list(data)
    dists = adapter.exact_batch(
        [t.points for t in trajs], [query.points] * len(trajs), [math.inf] * len(trajs)
    )
    return sorted((d, t.traj_id) for d, t in zip(dists, trajs))[:k]


def answer(engine, query, k):
    return [(d, t.traj_id) for t, d in knn_search(engine, query, k)]


@pytest.fixture(scope="module")
def spread():
    return beijing_like(60, seed=8)


@pytest.mark.parametrize("name", ADAPTERS)
class TestBestFirstTopK:
    CFG = dict(num_global_partitions=3, trie_fanout=4, num_pivots=3, trie_leaf_capacity=4)

    def test_every_k_boundary(self, spread, name):
        engine = DITAEngine(spread, DITAConfig(**self.CFG), distance=name)
        n = len(spread)
        for q in sample_queries(spread, 2, seed=4, perturb=0.0004):
            for k in (0, 1, n - 1, n, n + 3):
                assert answer(engine, q, k) == ranked(engine.adapter, spread, q, k)

    def test_kth_tie_straddling_partitions_goes_to_the_smaller_id(self, spread, name):
        """Three copies of one trip: the largest id sits in the partition
        that answers first, the smaller two in the last one scheduled."""
        rows = list(spread)
        src = rows[0]
        parts = {
            0: [Trajectory(900, src.points.copy())] + rows[1:20],
            1: rows[20:40],
            2: rows[40:] + [Trajectory(7, src.points.copy()), Trajectory(-3, src.points.copy())],
        }
        engine = DITAEngine.from_partitions(
            {pid: ColumnarDataset.from_trajectories(p) for pid, p in parts.items()},
            DITAConfig(**self.CFG),
            distance=name,
        )
        data = [t for p in parts.values() for t in p]
        query = Trajectory(10_000, src.points + 1e-5)
        for k in (1, 2, 3, 5):
            assert answer(engine, query, k) == ranked(engine.adapter, data, query, k)

    def test_one_point_query_over_one_point_rows(self, name):
        """Both sides one point long: the endpoint bound's ``single_point``
        branch (the two corners are one DP cell, so only the larger gap is
        owed, never their sum)."""
        rng = np.random.default_rng(11)
        data = [Trajectory(i, rng.uniform(0, 0.02, (1, 2))) for i in range(30)]
        data += [Trajectory(100 + i, rng.uniform(0, 0.02, (3, 2))) for i in range(6)]
        engine = DITAEngine(data, DITAConfig(**self.CFG), distance=name)
        for i in range(3):
            query = Trajectory(1000 + i, rng.uniform(0, 0.02, (1, 2)))
            for k in (1, 4, len(data)):
                assert answer(engine, query, k) == ranked(engine.adapter, data, query, k)

    def test_after_insert_and_remove_without_a_merge(self, spread, name):
        rows = list(spread)
        engine = DITAEngine(
            rows[:40], DITAConfig(delta_max_rows=10_000, **self.CFG), distance=name
        )
        for t in rows[40:]:
            engine.insert(t)
        for t in rows[5:25:3]:
            assert engine.remove(t.traj_id)
        gone = {t.traj_id for t in rows[5:25:3]}
        live = [t for t in rows if t.traj_id not in gone]
        q = sample_queries(spread, 1, seed=6, perturb=0.0004)[0]
        for k in (1, 6, len(live) + 1):
            assert answer(engine, q, k) == ranked(engine.adapter, live, q, k)

    def test_without_the_cell_filter(self, spread, name):
        engine = DITAEngine(spread, DITAConfig(**self.CFG), distance=name)
        engine.verifier = Verifier(engine.adapter, use_cell_filter=False)
        q = sample_queries(spread, 1, seed=9, perturb=0.0004)[0]
        for k in (1, 7):
            assert answer(engine, q, k) == ranked(engine.adapter, spread, q, k)


_points = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=6
).map(lambda pts: np.asarray(pts, dtype=np.float64) * 5e-4)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(_points, min_size=1, max_size=18),
    query=_points,
    k=st.integers(0, 21),
    name=st.sampled_from(ADAPTERS),
)
def test_answer_is_the_sorted_brute_force(rows, query, k, name):
    """Coordinates on a coarse grid, so exact distance ties (and exact
    duplicates) are common."""
    data = [Trajectory(i, pts) for i, pts in enumerate(rows)]
    engine = DITAEngine(
        data, DITAConfig(num_global_partitions=2, trie_fanout=2, num_pivots=2, trie_leaf_capacity=2),
        distance=name,
    )
    q = Trajectory(len(data), query)
    assert answer(engine, q, k) == ranked(engine.adapter, data, q, k)


class TestUnscheduledPartitions:
    def test_lazy_store_engine_never_loads_them(self, tmp_path):
        """Four well-separated towns, a query inside one: the waves stop
        at the first partition whose bound exceeds the k-th distance, and a
        lazily opened store keeps the rest on disk (the τ-doubling sweep
        loaded every block to seed its radius)."""
        rng = np.random.default_rng(2)
        towns = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (5.0, 5.0)]
        data = [
            Trajectory(40 * c + i, np.asarray(town) + np.cumsum(rng.normal(0, 1e-3, (8, 2)), axis=0))
            for c, town in enumerate(towns)
            for i in range(40)
        ]
        store = build_store(ColumnarDataset.from_trajectories(data), tmp_path / "s", n_groups=2)
        engine = DITAEngine.from_store(store, DITAConfig(num_global_partitions=2))
        engine.enable_tracing()
        query = Trajectory(999, data[3].points + 1e-4)
        assert answer(engine, query, 5) == ranked(engine.adapter, data, query, 5)
        unloaded = set(engine.partition_pids()) - set(engine.runtime.loaded())
        assert unloaded
        m = engine.metrics
        assert m.value("knn.partitions_skipped") == len(unloaded)
        assert m.value("knn.tasks") + m.value("knn.partitions_skipped") == engine.n_partitions
        assert 1 <= m.value("knn.waves") <= m.value("knn.tasks")
        # DPs per result can be read from the registry
        assert m.value("knn.verify.exact_computed") >= m.value("knn.verify.accepted") >= 5
        assert not m.counters("knn.rounds") and not m.counters("knn.brute_force_fallbacks")


# --------------------------------------------------------------------- #
# the batched coordinator: many queries, one best-first pass
# --------------------------------------------------------------------- #


def _hexed(answers):
    return [[(t.traj_id, d.hex()) for t, d in nearest] for nearest in answers]


@pytest.fixture(scope="module")
def batch_queries(spread):
    """Noisy copies, a one-point query, and one query twice (the same
    object and an equal copy)."""
    qs = sample_queries(spread, 3, seed=12, perturb=0.0004)
    one_point = Trajectory(20_000, qs[0].points[:1].copy())
    return qs + [one_point, qs[1], Trajectory(20_001, qs[1].points.copy())]


class TestBatchedCoordinator:
    CFG = dict(num_global_partitions=3, trie_fanout=4, num_pivots=3, trie_leaf_capacity=4)

    @pytest.mark.parametrize("backend", ["simulated", "process"])
    @pytest.mark.parametrize("name", ADAPTERS)
    def test_batch_equals_one_query_calls(self, spread, batch_queries, name, backend):
        engine = DITAEngine(
            spread, DITAConfig(backend=backend, num_processes=2, **self.CFG), distance=name
        )
        tau = 5.0 if name in ("edr", "lcss") else 0.004
        try:
            for k, cap in [(1, math.inf), (5, math.inf), (len(spread) + 3, math.inf), (5, tau)]:
                loop = [knn_search(engine, q, k, cap) for q in batch_queries]
                batch = knn_search_batch(engine, batch_queries, k, cap)
                assert _hexed(batch) == _hexed(loop)
        finally:
            engine.shutdown()

    def test_empty_batch(self, spread):
        engine = DITAEngine(spread, DITAConfig(**self.CFG))
        assert knn_search_batch(engine, [], 5) == []

    def test_a_partition_runs_once_a_round_for_the_whole_batch(self, spread):
        """Two copies of a query ask for the same partitions every round,
        so the batch ships exactly the tasks one of them ships alone."""
        q = sample_queries(spread, 1, seed=3, perturb=0.0004)[0]
        alone, both = (DITAEngine(spread, DITAConfig(**self.CFG)) for _ in "ab")
        alone.enable_tracing()
        both.enable_tracing()
        knn_search(alone, q, 5)
        knn_search_batch(both, [q, q], 5)
        for counter in ("knn.waves", "knn.tasks"):
            assert both.metrics.value(counter) == alone.metrics.value(counter)
        assert both.metrics.value("knn.jobs") == 2
        assert both.metrics.value("knn.partitions_skipped") == 2 * alone.metrics.value(
            "knn.partitions_skipped"
        )

    def test_single_query_counters_are_the_wave_schedule(self):
        """A pinned single-query case: one query's waves, tasks and
        skipped partitions (16 partitions, Fréchet, k = 5)."""
        data = beijing_like(120, seed=3)
        cfg = DITAConfig(
            num_global_partitions=4, trie_fanout=4, num_pivots=3, trie_leaf_capacity=4
        )
        engine = DITAEngine(data, cfg, distance="frechet")
        engine.enable_tracing()
        knn_search(engine, sample_queries(data, 1, seed=7, perturb=0.0004)[0], 5)
        m = engine.metrics
        assert engine.n_partitions == 16
        assert [m.value(c) for c in ("knn.jobs", "knn.waves", "knn.tasks")] == [1, 3, 7]
        assert m.value("knn.partitions_skipped") == 9
        assert m.value("knn.verify.exact_computed") == 12

    @pytest.mark.parametrize("name", ADAPTERS)
    def test_knn_join_matches_brute_force(self, spread, name):
        engine = DITAEngine(spread, DITAConfig(**self.CFG), distance=name)
        queries = sample_queries(spread, 8, seed=14, perturb=0.0004)
        right = DITAEngine(queries, DITAConfig(num_global_partitions=2))
        got = knn_join(engine, right, 4)
        want = [
            (tid, q.traj_id, d)
            for q in sorted(queries, key=lambda t: t.traj_id)
            for d, tid in ranked(engine.adapter, spread, q, 4)
        ]
        assert got == want

    @pytest.mark.parametrize("name", ADAPTERS)
    def test_outlier_scores_match_brute_force(self, spread, name):
        engine = DITAEngine(spread, DITAConfig(**self.CFG), distance=name)
        k = 3
        want = {}
        for t in spread:
            others = [d for d, tid in ranked(engine.adapter, spread, t, k + 1) if tid != t.traj_id]
            want[t.traj_id] = others[k - 1]
        assert knn_outlier_scores(engine, k) == want
