"""End-to-end join correctness and planner behaviour (Section 6)."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import brute_force_join
from oracles.box_bounds_reference import box_bound_reference
from repro import DITAConfig, DITAEngine
from repro.core.adapters import get_adapter
from repro.datagen import beijing_like, citywide_dataset, random_walk_dataset
from repro.distances import get_distance
from repro.kernels import TrajectoryBlock, pair_box_bounds
from repro.obs import MetricsRegistry
from repro.storage import ColumnarDataset


@pytest.fixture(scope="module")
def left():
    return beijing_like(90, seed=51)


@pytest.fixture(scope="module")
def right():
    return beijing_like(70, seed=52)


@pytest.fixture(scope="module")
def cfg():
    return DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3, trie_leaf_capacity=4)


@pytest.fixture(scope="module")
def left_engine(left, cfg):
    return DITAEngine(left, cfg)


@pytest.fixture(scope="module")
def right_engine(right, cfg):
    return DITAEngine(right, cfg)


class TestJoinCorrectness:
    @pytest.mark.parametrize("tau", [0.001, 0.003])
    def test_matches_brute_force(self, left_engine, right_engine, left, right, tau):
        d = get_distance("dtw")
        got = sorted((a, b) for a, b, _ in left_engine.join(right_engine, tau))
        want = brute_force_join(left, right, d, tau)
        assert got == want

    def test_self_join_excludes_identity(self, left_engine, left):
        pairs = left_engine.self_join(0.002)
        for a, b, _ in pairs:
            assert a < b
        d = get_distance("dtw")
        want = {
            (x.traj_id, y.traj_id)
            for i, x in enumerate(left)
            for y in list(left)[i + 1 :]
            if d.compute(x.points, y.points) <= 0.002
        }
        got = {(a, b) for a, b, _ in pairs}
        assert got == {(min(a, b), max(a, b)) for a, b in want}

    def test_no_balancing_still_correct(self, left_engine, right_engine, left, right):
        d = get_distance("dtw")
        got = sorted(
            (a, b)
            for a, b, _ in left_engine.join(
                right_engine, 0.002, use_orientation=False, use_division=False
            )
        )
        assert got == brute_force_join(left, right, d, 0.002)

    def test_frechet_join(self, cfg):
        data = citywide_dataset(60, seed=55)
        engine = DITAEngine(data, cfg, distance="frechet")
        d = get_distance("frechet")
        got = sorted((a, b) for a, b, _ in engine.join(engine, 0.001))
        assert got == brute_force_join(data, data, d, 0.001)

    def test_negative_tau_rejected(self, left_engine, right_engine):
        with pytest.raises(ValueError):
            left_engine.join(right_engine, -1)


class TestJoinStats:
    def test_stats_populated(self, left_engine, right_engine):
        stats = MetricsRegistry()
        pairs = left_engine.join(right_engine, 0.003, stats=stats)
        count = stats.value
        assert count("join.jobs") == 1
        assert count("join.partition_pairs") >= 1
        # verified_pairs counts verifier invocations; result_pairs counts
        # deduplicated output pairs
        assert count("join.result_pairs") == len(pairs)
        assert count("join.verified_pairs") >= count("join.result_pairs")
        assert count("join.candidate_pairs") >= len(pairs)
        assert count("join.bytes_shipped") >= 0

    def test_orientation_reduces_or_keeps_tc(self, left_engine, right_engine):
        from repro.core.join import JoinExecutor

        executor = JoinExecutor(
            left_engine, right_engine, left_engine.adapter, left_engine.cluster
        )
        plan_orient = executor.plan(0.003, use_orientation=True, use_division=False)
        plan_fixed = executor.plan(0.003, use_orientation=False, use_division=False)
        assert plan_orient.tc_global <= plan_fixed.tc_global + 1e-9

    def test_division_replicates_only_heavy(self, left_engine, right_engine):
        from repro.core.join import JoinExecutor

        executor = JoinExecutor(
            left_engine, right_engine, left_engine.adapter, left_engine.cluster
        )
        plan = executor.plan(0.003, use_division=True)
        if plan.replicas:
            costs = plan.total_costs
            import numpy as np

            tc_q = float(np.quantile(sorted(costs.values()), 0.98))
            for node, r in plan.replicas.items():
                if r > 1:
                    assert costs[node] > tc_q


class TestJoinStatsSemantics:
    """Regression: ``verified_pairs`` used to report deduplicated *result*
    pairs, and ``candidate_pairs`` was only accumulated when the caller
    passed a stats object."""

    def _fresh(self, n, seed, tracing=False):
        data = beijing_like(n, seed=seed)
        cfg = DITAConfig(
            num_global_partitions=2,
            trie_fanout=4,
            num_pivots=3,
            trie_leaf_capacity=4,
        )
        engine = DITAEngine(data, cfg)
        if tracing:
            engine.enable_tracing()
        return engine

    def test_verified_counts_verifier_invocations(self):
        engine = self._fresh(120, seed=7)
        stats = MetricsRegistry()
        pairs = engine.join(engine, 0.016, stats=stats)
        count = stats.value
        # every candidate enters the verifier exactly once
        assert count("join.verified_pairs") == count("join.candidate_pairs")
        # and on this dataset the verifier really rejects some of them, so
        # the invocation count is distinguishable from the result count
        # (at tau = 0.008 the endpoint bound alone keeps only matches)
        assert count("join.verified_pairs") > count("join.result_pairs")
        assert count("join.result_pairs") == len(pairs)

    def test_verify_stages_add_up(self):
        """The join publishes where its verified pairs went: each one was
        pruned by a filter stage or computed exactly, and the accepted
        ones are the result."""
        engine = self._fresh(120, seed=7)
        stats = MetricsRegistry()
        pairs = engine.join(engine, 0.008, stats=stats)
        count = stats.value
        assert count("join.verified_pairs") == sum(
            count(f"join.verify.{stage}")
            for stage in ("pruned_by_mbr", "pruned_by_cells", "exact_computed")
        )
        assert count("join.verify.accepted") == count("join.result_pairs") == len(pairs)

    def test_counts_independent_of_stats_argument(self):
        """The same join must count identically whether or not the caller
        passes a stats object (read back through the metrics registry)."""
        with_stats = self._fresh(90, seed=9, tracing=True)
        stats = MetricsRegistry()
        with_stats.join(with_stats, 0.005, stats=stats)
        without = self._fresh(90, seed=9, tracing=True)
        without.join(without, 0.005)
        keys = [
            "join.candidate_pairs",
            "join.verified_pairs",
            "join.result_pairs",
            "join.trajectories_shipped",
            "join.bytes_shipped",
        ]
        got_a = {k: with_stats.metrics.value(k) for k in keys}
        got_b = {k: without.metrics.value(k) for k in keys}
        assert got_a == got_b
        assert got_a["join.candidate_pairs"] > 0
        assert stats.snapshot() == with_stats.metrics.snapshot()


class TestSenderCells:
    """A shipped row's MBR and cells are read out of its partition's block
    (built with the index) instead of being recompressed for every join;
    only a sending side built with another ``cell_size`` than the join's
    (the left engine's) falls back to compressing a chunk's shipped rows."""

    @pytest.fixture()
    def compressions(self, monkeypatch):
        """Counts ``CellSet.from_points`` calls from here on."""
        from repro.geometry.cell import CellSet

        calls = []
        original = CellSet.from_points.__func__

        def counting(cls, points, side):
            calls.append(side)
            return original(cls, points, side)

        monkeypatch.setattr(CellSet, "from_points", classmethod(counting))
        return calls

    @pytest.fixture()
    def block_compressions(self, monkeypatch):
        """Counts block-wide ``compress_cells`` calls from here on (one per
        block :meth:`TrajectoryBlock.from_columnar` builds)."""
        from repro.kernels import batch

        calls = []
        original = batch.compress_cells

        def counting(point_coords, point_starts, side):
            calls.append(side)
            return original(point_coords, point_starts, side)

        monkeypatch.setattr(batch, "compress_cells", counting)
        return calls

    def test_self_join_compresses_nothing(self, left, cfg, compressions, block_compressions):
        engine = DITAEngine(left, cfg)
        # the index build compressed every partition's rows in one pass per
        # block, and no row on its own
        assert len(block_compressions) == len(engine.partition_pids()) and not compressions
        built = len(block_compressions)
        stats = MetricsRegistry()
        pairs = engine.self_join(0.003, stats=stats)
        assert not compressions and len(block_compressions) == built
        assert stats.value("join.trajectories_shipped") > 0 and pairs

    def test_worker_resolver_compresses_nothing(self, left, cfg, tmp_path, compressions):
        """The process backend's bootstrap, driven in this process: the
        chunk bodies over a worker's store-backed engines give the
        coordinator's answers without one compression beyond the trie
        builds."""
        from repro import build_store
        from repro.cluster.parallel import SideInit, WorkerInit, open_sides
        from repro.cluster.tasks import TaskSpec, run_task_body
        from repro.core.execution import LocalResolver
        from repro.storage import TrajectoryStore

        build_store(left, tmp_path / "store", n_groups=cfg.num_global_partitions)
        engine = DITAEngine.from_store(TrajectoryStore.open(tmp_path / "store"), cfg)
        side = SideInit(store_path=str(tmp_path / "store"), config=cfg, adapter=engine.adapter)
        sides = open_sides(WorkerInit(sides=(("L", side), ("R", side))))
        pids = engine.partition_pids()
        for pid in pids:  # a store engine stacks blocks on first use
            sides["L"].trie(pid).batch_block()
            engine.trie(pid).batch_block()
        built = len(compressions)
        shipped = 0
        for send in pids:
            rows = tuple(int(r) for r in engine.partition(send).alive_rows())
            for recv in pids:
                spec = TaskSpec(0, "join.chunk", "L", recv, ("L", send, rows, 0.003, False))
                got, got_stats = run_task_body(spec, LocalResolver(sides["L"], sides["R"]))
                want, want_stats = run_task_body(spec, LocalResolver(engine))
                assert got == want and got_stats.snapshot() == want_stats.snapshot()
                shipped += len(rows)
        assert shipped and len(compressions) == built

    def test_two_engines_with_different_cell_size(self, left, right, cfg, compressions, block_compressions):
        """The fallback: the right side's blocks hold cells of another
        size, so a chunk of its shipped rows is compressed at the join's
        size, in one block-wide pass and no row on its own."""
        from repro.cluster.tasks import TaskSpec, run_task_body

        left_engine = DITAEngine(left, cfg)
        right_engine = DITAEngine(right, replace(cfg, cell_size=cfg.cell_size * 3))
        got = sorted((a, b) for a, b, _ in left_engine.join(right_engine, 0.003))
        assert got == brute_force_join(left, right, get_distance("dtw"), 0.003)
        # the other way round the left side (the join's cell size) ships
        # from its blocks and the right side still falls back
        assert sorted(
            (b, a) for a, b, _ in right_engine.join(left_engine, 0.003)
        ) == got
        # a chunk shipped by the right side, whichever way a plan orients
        built = len(block_compressions)
        chunks = 0
        for send in right_engine.partition_pids():
            rows = tuple(int(r) for r in right_engine.partition(send).alive_rows())
            for recv in left_engine.partition_pids():
                spec = TaskSpec(0, "join.chunk", "L", recv, ("R", send, rows, 0.003, False))
                run_task_body(spec, left_engine.resolver(right_engine))
                chunks += 1
        assert block_compressions[built:] == [cfg.cell_size] * chunks and not compressions

    def test_self_join_after_append_and_remove(self, left, right, cfg, compressions):
        """Writes rebuild the partitions they touch (flush-on-read), block
        included: the join reads the new rows' cells from the new blocks."""
        engine = DITAEngine(left, cfg)
        extra = list(right)[:12]
        for t in extra:
            engine.append_trajectory(10_000 + t.traj_id, t.points)
        removed = [t.traj_id for t in list(left)[:5]]
        for tid in removed:
            assert engine.remove_trajectory(tid)
        from repro.trajectory import Trajectory

        logical = [t for t in left if t.traj_id not in removed] + [
            Trajectory(10_000 + t.traj_id, t.points) for t in extra
        ]
        got = sorted((a, b) for a, b, _ in engine.self_join(0.003))
        want = sorted(
            (a, b) for a, b in brute_force_join(logical, logical, get_distance("dtw"), 0.003) if a < b
        )
        assert got == want
        # every compression so far is an index build at the engine's size
        before = len(compressions)
        engine.self_join(0.003)
        assert len(compressions) == before


class TestPlanIndependentAnswers:
    """A pair's distance is ``exact(first, second)`` in its reported order —
    the left row first in a join, the smaller id first in a self-join —
    whichever side the plan ships.  The double-direction DTW splits the
    receiver's rows, so evaluated in shipping order the last bit of some
    join distances would follow the planner's seed; a self-join verifies
    each unordered pair once, so no answer repeats a pair."""

    TAU = 0.5
    SEEDS = range(6)
    VARIANTS = [(True, True), (True, False), (False, True), (False, False)]

    @staticmethod
    def _config(seed, **kw):
        return DITAConfig(num_global_partitions=3, seed=seed, **kw)

    @pytest.fixture(scope="class")
    def answers(self, tmp_path_factory):
        """``(backend, seed, orientation, division) -> (join, self_join)``
        answers as ``(a, b, distance.hex())`` lists in output order."""
        from repro import TrajectoryStore, build_store

        walks = random_walk_dataset(300, seed=5)

        def run(engine, orientation, division):
            kw = dict(use_orientation=orientation, use_division=division)
            return tuple(
                [(a, b, d.hex()) for a, b, d in pairs]
                for pairs in (engine.join(engine, self.TAU, **kw), engine.self_join(self.TAU, **kw))
            )

        # every seed, every variant, each backend; not their product
        out = {}
        for seed in self.SEEDS:
            engine = DITAEngine(walks, self._config(seed))
            for variant in {self.VARIANTS[0], self.VARIANTS[seed % 4]}:
                out[("simulated", seed) + variant] = run(engine, *variant)
        store = tmp_path_factory.mktemp("walks") / "store"
        build_store(walks, store, n_groups=3)
        for seed in (0, 3):
            engine = DITAEngine.from_store(
                TrajectoryStore.open(store), self._config(seed, backend="process", num_processes=2)
            )
            try:
                for variant in self.VARIANTS[seed % 2 :: 2]:
                    out[("process", seed) + variant] = run(engine, *variant)
            finally:
                engine.shutdown()
        return out

    def test_bit_identical_across_plans_and_backends(self, answers):
        join0, self0 = (sorted(a) for a in answers[("simulated", 0, True, True)])
        for key, (join, self_join) in answers.items():
            assert sorted(join) == join0, key
            assert sorted(self_join) == self0, key
        # the self-join is the full join's a < b half, bit for bit
        assert self0 and len(join0) > 2 * len(self0)
        assert self0 == [p for p in join0 if p[0] < p[1]]

    def test_no_pair_repeats(self, answers):
        for key, (join, self_join) in answers.items():
            assert len({(a, b) for a, b, _ in join}) == len(join), key
            assert len({(a, b) for a, b, _ in self_join}) == len(self_join), key
            assert all(a < b for a, b, _ in self_join), key

    def test_self_join_verifies_each_pair_once(self):
        """Upper-triangle partition pairs and the id floor: the self-join
        verifies fewer pairs than half the full join's and finds the
        same pairs."""
        engine = DITAEngine(random_walk_dataset(300, seed=5), self._config(0))
        full, half = MetricsRegistry(), MetricsRegistry()
        engine.join(engine, self.TAU, stats=full)
        pairs = engine.self_join(self.TAU, stats=half)
        full, half = full.value, half.value
        assert half("join.result_pairs") == len(pairs) == (full("join.result_pairs") - len(engine)) // 2
        assert half("join.partition_pairs") < full("join.partition_pairs")
        assert 2 * half("join.verified_pairs") < full("join.verified_pairs")


class TestJoinArguments:
    """A join's counterpart is checked before planning: the planner used to
    fail inside numpy (mismatched dimensionality) or on an attribute
    lookup (not an engine)."""

    def test_not_an_engine(self, left_engine):
        with pytest.raises(TypeError, match="other"):
            left_engine.join([1, 2], 0.01)

    def test_other_dimensionality(self, left_engine, cfg):
        rng = np.random.default_rng(4)
        walks = [np.cumsum(rng.normal(scale=1e-3, size=(6, 3)), axis=0) for _ in range(8)]
        three_d = DITAEngine(ColumnarDataset.from_point_arrays(list(range(8)), walks), cfg)
        with pytest.raises(ValueError, match="2-d.*3-d"):
            left_engine.join(three_d, 0.01)
        with pytest.raises(ValueError, match="3-d.*2-d"):
            three_d.join(left_engine, 0.01)


ADAPTERS = ("dtw", "frechet", "hausdorff", "erp", "edr", "lcss")


def _with_one_point_rows(data, first_id, n):
    """``data`` plus ``n`` one-point rows cut from its own first trips."""
    ids = [t.traj_id for t in data] + list(range(first_id, first_id + n))
    points = [t.points for t in data] + [t.points[:1] for t in list(data)[:n]]
    return ColumnarDataset.from_point_arrays(ids, points)


def _oracle(distance, left, right, tau, self_join):
    """Every pair within ``tau`` as ``(a, b, exact(a, b).hex())``: the left
    row first in a join, the smaller id first in a self-join."""
    exact = get_adapter(distance).exact
    out = []
    for a in left:
        for b in right:
            if self_join and a.traj_id >= b.traj_id:
                continue
            d = exact(a.points, b.points, tau)
            if d <= tau:
                out.append((a.traj_id, b.traj_id, float(d).hex()))
    return sorted(out)


def _answers(pairs):
    return sorted((a, b, float(d).hex()) for a, b, d in pairs)


class TestFlatJoinAnswers:
    """Every join and self-join answer is each pair's ``exact(first,
    second)`` to the last bit, the pair found once: the flat plan
    (DTW, Fréchet) and the trie walk (the others), one-point rows on both
    sides (the endpoint bound's single-point case), a sending side built at
    another ``cell_size`` (its shipped rows compressed per chunk), both
    backends."""

    TAUS = (0.0, 0.002, math.inf)

    @pytest.fixture(scope="class")
    def sides(self):
        return (
            _with_one_point_rows(beijing_like(30, seed=61), 1000, 3),
            _with_one_point_rows(beijing_like(24, seed=62), 2000, 3),
        )

    @pytest.mark.parametrize("distance", ADAPTERS)
    def test_simulated(self, sides, cfg, distance):
        left, right = sides
        engine = DITAEngine(left, cfg, distance=distance)
        other = DITAEngine(right, replace(cfg, cell_size=cfg.cell_size * 3), distance=distance)
        for tau in self.TAUS:
            want = _oracle(distance, left, right, tau, False)
            assert _answers(engine.join(other, tau)) == want, tau
            assert _answers(other.join(engine, tau)) == _oracle(distance, right, left, tau, False), tau
            assert _answers(engine.self_join(tau)) == _oracle(distance, left, left, tau, True), tau

    @pytest.mark.parametrize("distance", ADAPTERS)
    def test_process_backend(self, sides, cfg, distance, tmp_path):
        from repro import TrajectoryStore, build_store

        left, right = sides
        engines = []
        for name, data, cell_size in (("l", left, cfg.cell_size), ("r", right, cfg.cell_size * 3)):
            build_store(data, tmp_path / name, n_groups=cfg.num_global_partitions)
            engines.append(DITAEngine.from_store(
                TrajectoryStore.open(tmp_path / name),
                replace(cfg, cell_size=cell_size, backend="process", num_processes=2),
                distance=distance,
            ))
        engine, other = engines
        try:
            assert _answers(engine.join(other, 0.002)) == _oracle(distance, left, right, 0.002, False)
            assert _answers(engine.self_join(0.002)) == _oracle(distance, left, left, 0.002, True)
        finally:
            engine.shutdown()
            other.shutdown()


class TestFlatPlanCalls:
    """A DTW or Fréchet join, plan and execution, walks no trie and runs no
    Lemma 5.6: each chunk is one filter pass over its pairs."""

    @pytest.mark.parametrize("distance", ["dtw", "frechet"])
    def test_one_filter_pass_per_task(self, distance, cfg, left, right, monkeypatch):
        from repro.core import join, verify
        from repro.core.trie import TrieIndex
        from repro.kernels import batch

        calls = Counter()

        def counting(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        engine = DITAEngine(left, cfg, distance=distance)
        other = DITAEngine(right, cfg, distance=distance)
        counting(TrieIndex, "filter_candidates_batch", "trie")
        counting(batch, "batch_cell_bounds", "cells")
        counting(verify, "batch_cell_bounds", "cells")
        counting(verify.Verifier, "filter_rows", "filter_rows")
        counting(verify.Verifier, "filter_pairs", "filter_pairs")
        counting(join, "join_rows", "tasks")
        engine.join(other, 0.003)
        assert engine.self_join(0.003)
        assert calls["tasks"] > 0 and calls["filter_pairs"] == calls["tasks"]
        assert calls["trie"] == calls["cells"] == calls["filter_rows"] == 0


class TestPairBoxBounds:
    """The join's box bound over pairs of many senders against its per-pair
    loop form on a ragged fuzz: every float identical, whatever pairs share
    a call or a run."""

    CELL = 2e-3

    @staticmethod
    def _block(rng, n, d, cell):
        trips = []
        for _ in range(n):
            steps = rng.normal(scale=1.5e-3, size=(int(rng.integers(1, 48)), d))
            trips.append(rng.uniform(0.0, 0.05, size=d) + np.cumsum(steps, axis=0))
        return TrajectoryBlock.from_columnar(ColumnarDataset.from_point_arrays(list(range(n)), trips), cell)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_the_loop_form(self, d):
        rng = np.random.default_rng(40 + d)
        block = self._block(rng, 60, d, self.CELL)
        for q_cell in (self.CELL, 3 * self.CELL):
            q_block = self._block(rng, 25, d, q_cell)
            rows = rng.integers(0, 60, size=400).astype(np.int64)
            q_rows = rng.integers(0, 25, size=400).astype(np.int64)
            for kind in ("sum", "max"):
                want = np.asarray([
                    box_bound_reference(
                        block, r, q_block.cellset_of(q), q_block.mbr_low[q], q_block.mbr_high[q], kind
                    )
                    for r, q in zip(rows.tolist(), q_rows.tolist())
                ])
                for max_elems in (1 << 20, 64, 1):
                    got = pair_box_bounds(block, rows, q_block, q_rows, kind, max_elems)
                    assert got.dtype == np.float64 and got.shape == rows.shape
                    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_empty_pairs_and_an_unknown_kind(self):
        block = self._block(np.random.default_rng(0), 3, 2, self.CELL)
        none = np.empty(0, dtype=np.int64)
        assert pair_box_bounds(block, none, block, none, "sum").shape == (0,)
        with pytest.raises(ValueError):
            pair_box_bounds(block, none, block, none, "min")
