"""Chaos harness: property-style sweeps over seeded fault plans.

The contract under test (ISSUE acceptance):

* **result-equivalence** — for every distance adapter and for
  search / search_batch / knn / join, results under *any* seeded
  :class:`FaultPlan` equal the fault-free results exactly;
* **determinism** — same seed + same plan ⇒ byte-identical
  FaultReport / ExecutionReport JSON, including across ``reset_clocks``;
* **liveness** — plans that fail forever raise a typed
  :class:`TaskAbandonedError` promptly instead of hanging, and
  straggler-only plans show speculation strictly reducing makespan.

The sweep uses a seeded ``random.Random`` plan generator (every case is a
pure function of its seed); the hypothesis block at the bottom fuzzes the
decision primitives when hypothesis is available (derandomized, so CI stays
deterministic).
"""

import json
import random

import pytest

from repro.cluster import Cluster, FaultPlan, RecoveryPolicy, TaskAbandonedError
from repro.core.adapters import EDRAdapter, ERPAdapter, LCSSAdapter, get_adapter
from repro.core.config import DITAConfig
from repro.core.engine import DITAEngine
from repro.core.knn import knn_search
from repro.datagen import citywide_dataset, sample_queries

# one (adapter factory, search tau, join tau) per distance family; EDR/LCSS
# taus are edit counts, the rest are spatial distances
ADAPTERS = [
    ("dtw", lambda: get_adapter("dtw"), 0.004, 0.002),
    ("frechet", lambda: get_adapter("frechet"), 0.003, 0.002),
    ("hausdorff", lambda: get_adapter("hausdorff"), 0.002, 0.001),
    ("edr", lambda: EDRAdapter(epsilon=0.0005), 2, 2),
    ("lcss", lambda: LCSSAdapter(epsilon=0.0005, delta=3), 2, 2),
    ("erp", lambda: ERPAdapter(ndim=2), 0.01, 0.005),
]

CFG = DITAConfig(num_global_partitions=2, trie_fanout=3, num_pivots=2, trie_leaf_capacity=3)
PATIENT = RecoveryPolicy(max_retries=10)


def random_plan(seed: int) -> FaultPlan:
    """A fault plan drawn from a seeded generator — each chaos case is a
    pure function of its seed."""
    rng = random.Random(seed)
    return FaultPlan(
        seed=seed,
        worker_crash_rate=rng.choice([0.0, 0.3, 0.6]),
        crash_after_tasks_max=rng.randint(1, 6),
        task_failure_rate=rng.choice([0.0, 0.2, 0.4]),
        message_drop_rate=rng.choice([0.0, 0.2, 0.4]),
        straggler_rate=rng.choice([0.0, 0.25, 0.5]),
        straggler_slowdown=rng.choice([2.0, 4.0, 8.0]),
    )


@pytest.fixture(scope="module")
def city():
    return list(citywide_dataset(40, seed=71))


@pytest.fixture(scope="module")
def queries(city):
    return sample_queries(city, 2, seed=5, perturb=0.0002)


def _ids(matches):
    return sorted((t.traj_id, d) for t, d in matches)


def _job(engine, queries, search_tau, join_tau, k=3):
    """One mixed workload; returns everything an equivalence check needs."""
    out = {
        "search": [_ids(engine.search(q, search_tau)) for q in queries],
        "batch": [_ids(m) for m in engine.search_batch(queries, [search_tau] * len(queries))],
        "knn": [_ids(knn_search(engine, queries[0], k))],
        "join": engine.self_join(join_tau),
    }
    return out


class TestChaosSweep:
    """Result-equivalence + determinism over a sweep of random plans,
    rotating through all six distance adapters."""

    @pytest.mark.parametrize("chaos_seed", range(12))
    def test_results_equal_fault_free(self, chaos_seed, city, queries):
        name, make_adapter, search_tau, join_tau = ADAPTERS[chaos_seed % len(ADAPTERS)]
        plan = random_plan(chaos_seed)
        healthy = DITAEngine(city, CFG, distance=make_adapter())
        want = _job(healthy, queries, search_tau, join_tau)
        faulty = DITAEngine(city, CFG, distance=make_adapter())
        faulty.cluster.install_faults(plan, PATIENT)
        got = _job(faulty, queries, search_tau, join_tau)
        assert got == want, f"adapter={name} plan={plan}"

    @pytest.mark.parametrize("chaos_seed", [1, 5, 9])
    def test_reports_byte_identical(self, chaos_seed, city, queries):
        name, make_adapter, search_tau, join_tau = ADAPTERS[chaos_seed % len(ADAPTERS)]
        plan = random_plan(chaos_seed)

        def run():
            engine = DITAEngine(city, CFG, distance=make_adapter())
            engine.cluster.install_faults(plan, PATIENT)
            _job(engine, queries, search_tau, join_tau)
            return json.dumps(engine.cluster.report().to_dict(), sort_keys=True)

        assert run() == run()

    @pytest.mark.parametrize("chaos_seed", [2, 7])
    def test_reset_clocks_replays_identically(self, chaos_seed, city, queries):
        """Back-to-back jobs on one cluster see the same fault sequence —
        the fault stream rewinds with the clocks (no leak across jobs)."""
        name, make_adapter, search_tau, join_tau = ADAPTERS[chaos_seed % len(ADAPTERS)]
        plan = random_plan(chaos_seed)
        engine = DITAEngine(city, CFG, distance=make_adapter())
        engine.cluster.install_faults(plan, PATIENT)
        first = _job(engine, queries, search_tau, join_tau)
        snap1 = json.dumps(engine.cluster.report().to_dict(), sort_keys=True)
        engine.cluster.reset_clocks()
        second = _job(engine, queries, search_tau, join_tau)
        snap2 = json.dumps(engine.cluster.report().to_dict(), sort_keys=True)
        assert second == first
        assert snap2 == snap1


class TestAbandonment:
    """Plans that fail forever must fail fast and typed — never hang."""

    @pytest.mark.parametrize("chaos_seed", range(4))
    def test_total_task_failure_raises_promptly(self, chaos_seed, city, queries):
        plan = FaultPlan(seed=chaos_seed, task_failure_rate=1.0)
        engine = DITAEngine(city, CFG)
        engine.cluster.install_faults(plan, RecoveryPolicy(max_retries=2))
        with pytest.raises(TaskAbandonedError) as exc:
            _job(engine, queries, 0.004, 0.002)
        assert exc.value.attempts == 3
        assert engine.fault_report().abandoned_tasks == 1

    def test_total_message_loss_raises_promptly(self):
        plan = FaultPlan(seed=0, message_drop_rate=1.0)
        c = Cluster(n_workers=2, faults=plan, recovery=RecoveryPolicy(max_retries=3))
        c.place_partitions([0, 1])
        with pytest.raises(TaskAbandonedError) as exc:
            c.ship(0, 1, 1000)
        assert exc.value.what.startswith("message")


def _single_straggler_seeds(n_workers, rate, slowdown, want=3):
    """Seeds whose plan marks exactly one of ``n_workers`` as a straggler."""
    found = []
    for seed in range(500):
        plan = FaultPlan(seed=seed, straggler_rate=rate, straggler_slowdown=slowdown)
        if sum(1 for f in plan.straggler_factors(n_workers) if f > 1.0) == 1:
            found.append(seed)
            if len(found) == want:
                return found
    raise AssertionError("not enough single-straggler seeds in range")


class TestStragglerSpeculation:
    """Straggler-only plans: speculation strictly reduces makespan while
    results stay identical."""

    def test_cluster_level_sweep(self):
        for seed in _single_straggler_seeds(6, rate=0.25, slowdown=8.0):
            plan = FaultPlan(seed=seed, straggler_rate=0.25, straggler_slowdown=8.0)

            def run(speculate):
                c = Cluster(n_workers=6, faults=plan,
                            recovery=RecoveryPolicy(use_speculation=speculate))
                c.place_partitions(list(range(6)))
                for _ in range(3):
                    for pid in range(6):
                        c.run_local(pid, lambda: None, work=1.0)
                return c.report()

            fast, slow = run(True), run(False)
            assert fast.makespan < slow.makespan, f"seed={seed}"
            assert fast.faults.speculative_wins > 0
            assert fast.faults.worker_crashes == 0  # straggler-only plan
            assert fast.faults.task_failures == 0

    def test_engine_level(self, city, queries):
        engine = DITAEngine(city, CFG)
        n = engine.cluster.n_workers
        seed = _single_straggler_seeds(n, rate=0.25, slowdown=8.0, want=1)[0]
        plan = FaultPlan(seed=seed, straggler_rate=0.25, straggler_slowdown=8.0)
        healthy_want = _job(DITAEngine(city, CFG), queries, 0.004, 0.002)

        def run(speculate):
            engine.cluster.reset_clocks()
            engine.cluster.install_faults(plan, RecoveryPolicy(use_speculation=speculate))
            got = _job(engine, queries, 0.004, 0.002)
            return got, engine.cluster.report()

        got_fast, fast = run(True)
        got_slow, slow = run(False)
        assert got_fast == healthy_want and got_slow == healthy_want
        assert fast.makespan < slow.makespan
        assert fast.faults.speculative_tasks > 0


class TestStreamingChaos:
    """Faults injected mid-merge and mid-migration: the catalog generation
    either fully advances or fully rolls back, and an abandoned migration
    leaves the old layout byte-for-byte live — never a torn image."""

    def _streamed(self, city, make_adapter=None):
        """A streamed engine with a skewed write pattern: every append
        lands in one hot corner, so a later repartition must migrate rows
        (the STR boundaries move)."""
        engine = DITAEngine(city, CFG, distance=(make_adapter or ADAPTERS[0][1])())
        for k in range(10):
            base = city[k % len(city)].points
            engine.append_trajectory(8_000 + k, base * 0.02 + 0.24 + 0.0005 * k)
        return engine

    @pytest.mark.parametrize("chaos_seed", range(4))
    def test_merge_survives_worker_crashes(self, chaos_seed, city, queries, tmp_path):
        from repro.storage import TrajectoryStore

        name, make_adapter, search_tau, _ = ADAPTERS[chaos_seed % len(ADAPTERS)]
        healthy = self._streamed(city, make_adapter)
        want = [_ids(healthy.search(q, search_tau)) for q in queries]
        engine = self._streamed(city, make_adapter)
        gens = engine.attach_generations(tmp_path / "gens")
        plan = FaultPlan(
            seed=chaos_seed, worker_crash_rate=0.6, crash_after_tasks_max=2,
            task_failure_rate=0.2,
        )
        engine.cluster.install_faults(plan, PATIENT)
        assert engine.merge() == 1
        # the committed generation is a complete, checksum-clean store
        TrajectoryStore.open(gens.current_path(), verify=True)
        got = [_ids(engine.search(q, search_tau)) for q in queries]
        assert got == want, f"adapter={name}"

    def test_abandoned_merge_rolls_back(self, city, queries, tmp_path):
        engine = self._streamed(city)
        gens = engine.attach_generations(tmp_path / "gens")
        engine.merge() == 1  # a healthy baseline generation
        engine.append_trajectory(9_999, city[0].points + 0.001)
        current = (tmp_path / "gens" / "CURRENT").read_text()
        engine.cluster.install_faults(
            FaultPlan(seed=3, task_failure_rate=1.0), RecoveryPolicy(max_retries=2)
        )
        with pytest.raises(TaskAbandonedError):
            engine.merge()
        # full rollback: CURRENT untouched, no staging or gen-2 debris
        assert (tmp_path / "gens" / "CURRENT").read_text() == current
        assert gens.generation == 1
        assert not (tmp_path / "gens" / "gen-00002").exists()
        assert not list((tmp_path / "gens").glob("*.staging"))
        # and the engine still answers from its pre-merge state
        engine.cluster.clear_faults()
        want = self._streamed(city)
        want.append_trajectory(9_999, city[0].points + 0.001)
        for q in queries:
            assert _ids(engine.search(q, 0.004)) == _ids(want.search(q, 0.004))

    @pytest.mark.parametrize("chaos_seed", range(4))
    def test_migration_survives_crashes_and_drops(self, chaos_seed, city, queries, tmp_path):
        name, make_adapter, search_tau, _ = ADAPTERS[chaos_seed % len(ADAPTERS)]
        healthy = self._streamed(city, make_adapter)
        healthy.repartition()
        want = [_ids(healthy.search(q, search_tau)) for q in queries]
        engine = self._streamed(city, make_adapter)
        plan = FaultPlan(
            seed=chaos_seed, worker_crash_rate=0.5, crash_after_tasks_max=2,
            message_drop_rate=0.3,
        )
        engine.cluster.install_faults(plan, PATIENT)
        assert engine.repartition()
        got = [_ids(engine.search(q, search_tau)) for q in queries]
        assert got == want, f"adapter={name}"

    def test_migration_recovery_rebuilds_every_recovered_partition(self, city):
        """A crash during the ship phase recovers destination partitions
        too, and each recovered partition re-runs its registered rebuild:
        one ``recover.rebuild`` span per recovery, destinations included."""
        engine = self._streamed(city)
        engine.flush_deltas()
        first_destination = max(engine.partition_pids()) + 1
        engine.enable_tracing()
        engine.cluster.install_faults(
            FaultPlan(seed=0, worker_crash_rate=1.0, crash_after_tasks_max=1), PATIENT
        )
        assert engine.repartition()
        rebuilt = [
            s.args["partition"] for s in engine.tracer.spans if s.name == "recover.rebuild"
        ]
        assert len(rebuilt) == engine.fault_report().recovered_partitions
        assert any(pid >= first_destination for pid in rebuilt)

    def test_abandoned_migration_leaves_layout_intact(self, city, queries):
        engine = self._streamed(city)
        engine.flush_deltas()
        pids_before = engine.partition_pids()
        parts_before = {pid: engine.partition(pid) for pid in pids_before}
        tries_before = engine.runtime.loaded()
        engine.cluster.install_faults(
            FaultPlan(seed=1, message_drop_rate=1.0), RecoveryPolicy(max_retries=2)
        )
        with pytest.raises(TaskAbandonedError) as exc:
            engine.repartition()
        assert exc.value.what.startswith("message")
        # the old layout is still live, object-for-object
        assert engine.partition_pids() == pids_before
        assert all(engine.partition(pid) is parts_before[pid] for pid in pids_before)
        assert all(engine.runtime.loaded()[pid] is tries_before[pid] for pid in pids_before)
        engine.cluster.clear_faults()
        want = self._streamed(city)
        want.flush_deltas()
        for q in queries:
            assert _ids(engine.search(q, 0.004)) == _ids(want.search(q, 0.004))


# --------------------------------------------------------------------- #
# hypothesis fuzz of the decision primitives (optional dependency)
# --------------------------------------------------------------------- #

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev env
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    seeds = st.integers(min_value=0, max_value=2**63 - 1)

    class TestPlanProperties:
        @settings(max_examples=50, derandomize=True, deadline=None)
        @given(seed=seeds, rate=rates, task_seq=st.integers(0, 10**6), attempt=st.integers(0, 64))
        def test_task_decisions_pure_and_bounded(self, seed, rate, task_seq, attempt):
            plan = FaultPlan(seed=seed, task_failure_rate=rate)
            assert plan.task_fails(task_seq, attempt) == plan.task_fails(task_seq, attempt)
            assert 0.0 <= plan.failure_progress(task_seq, attempt) < 1.0
            if rate == 0.0:
                assert not plan.task_fails(task_seq, attempt)

        @settings(max_examples=50, derandomize=True, deadline=None)
        @given(seed=seeds, rate=rates, n=st.integers(1, 32))
        def test_crash_set_always_leaves_a_survivor(self, seed, rate, n):
            plan = FaultPlan(seed=seed, worker_crash_rate=rate)
            doomed = plan.crash_set(n)
            assert len(set(doomed)) == len(doomed) < n
            assert all(0 <= w < n for w in doomed)

        @settings(max_examples=50, derandomize=True, deadline=None)
        @given(seed=seeds, rate=rates, n=st.integers(1, 32),
               slowdown=st.floats(1.0, 64.0, allow_nan=False))
        def test_straggler_factors_bounded(self, seed, rate, n, slowdown):
            plan = FaultPlan(seed=seed, straggler_rate=rate, straggler_slowdown=slowdown)
            factors = plan.straggler_factors(n)
            assert len(factors) == n
            assert all(f == 1.0 or f == slowdown for f in factors)

        @settings(max_examples=30, derandomize=True, deadline=None)
        @given(seed=seeds, rate=rates, max_retries=st.integers(0, 6))
        def test_run_local_terminates_returns_or_abandons(self, seed, rate, max_retries):
            """Any (plan, policy) either returns the task's value or raises
            the typed error — no hang, body runs at most once."""
            plan = FaultPlan(seed=seed, task_failure_rate=rate)
            c = Cluster(n_workers=2, faults=plan,
                        recovery=RecoveryPolicy(max_retries=max_retries))
            c.place_partitions([0, 1])
            calls = []
            try:
                out = c.run_local(0, lambda: calls.append(1) or "v")
                assert out == "v" and calls == [1]
            except TaskAbandonedError as exc:
                assert exc.attempts == max_retries + 1
                assert calls == []
