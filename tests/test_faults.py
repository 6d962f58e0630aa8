"""Fault injection + recovery: the deterministic half of the harness.

Covers the :mod:`repro.cluster.faults` primitives, the cluster's retry /
lineage-recovery / speculation machinery, and the engine/SQL wiring.  The
companion property sweep lives in ``tests/test_chaos.py``.
"""

import json

import pytest

from repro.cluster import (
    Cluster,
    FaultPlan,
    FaultReport,
    FaultSession,
    NetworkModel,
    PartitionLostError,
    RecoveryPolicy,
    TaskAbandonedError,
)
from repro.core.config import DITAConfig
from repro.core.engine import DITAEngine
from repro.core.knn import knn_search
from repro.datagen import beijing_like, sample_queries


# --------------------------------------------------------------------- #
# FaultPlan: seeded decision primitives
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(task_failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(worker_crash_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(message_drop_rate=2.0)
        with pytest.raises(ValueError):
            FaultPlan(straggler_rate=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(crash_after_tasks_max=0)
        with pytest.raises(ValueError):
            FaultPlan(straggler_slowdown=0.5)

    def test_decisions_are_stateless(self):
        """The decision for event k never depends on what was asked before."""
        plan = FaultPlan(seed=3, task_failure_rate=0.5, message_drop_rate=0.5)
        first = plan.task_fails(17, 2)
        for _ in range(5):
            plan.task_fails(0, 0)  # unrelated draws must not perturb it
            plan.ship_dropped(17, 2)
        assert plan.task_fails(17, 2) == first
        assert plan.crash_set(8) == plan.crash_set(8)
        assert plan.straggler_factors(8) == plan.straggler_factors(8)

    def test_seed_changes_decisions(self):
        a = [FaultPlan(seed=0, task_failure_rate=0.5).task_fails(i, 0) for i in range(64)]
        b = [FaultPlan(seed=1, task_failure_rate=0.5).task_fails(i, 0) for i in range(64)]
        assert a != b

    def test_crash_set_leaves_a_survivor(self):
        plan = FaultPlan(seed=0, worker_crash_rate=1.0)
        for n in (1, 2, 4, 16):
            doomed = plan.crash_set(n)
            assert len(doomed) == n - 1
            assert 0 not in doomed  # the dropped doomed worker is the lowest id

    def test_crash_point_in_range(self):
        plan = FaultPlan(seed=5, worker_crash_rate=1.0, crash_after_tasks_max=4)
        for w in range(32):
            assert 0 <= plan.crash_point(w) < 4

    def test_straggler_factors(self):
        assert FaultPlan(straggler_rate=0.0).straggler_factors(4) == (1.0,) * 4
        slow = FaultPlan(straggler_rate=1.0, straggler_slowdown=3.0)
        assert slow.straggler_factors(4) == (3.0,) * 4

    def test_failure_progress_unit_interval(self):
        plan = FaultPlan(seed=9, task_failure_rate=1.0)
        for i in range(32):
            assert 0.0 <= plan.failure_progress(i, 0) < 1.0

    def test_is_null(self):
        assert FaultPlan().is_null
        assert FaultPlan(straggler_rate=0.5, straggler_slowdown=1.0).is_null
        assert not FaultPlan(task_failure_rate=0.1).is_null


class TestRecoveryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ValueError):
            RecoveryPolicy(speculation_quantile=0.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(speculation_quantile=1.5)

    def test_backoff_doubles(self):
        p = RecoveryPolicy(backoff_base_s=0.01)
        assert p.backoff_s(0) == pytest.approx(0.01)
        assert p.backoff_s(1) == pytest.approx(0.02)
        assert p.backoff_s(3) == pytest.approx(0.08)


class TestFaultReport:
    def test_overhead_sums_all_seconds(self):
        r = FaultReport(
            wasted_compute_s=1.0,
            backoff_wait_s=2.0,
            rebuild_compute_s=3.0,
            resend_network_s=4.0,
            speculative_compute_s=5.0,
            straggler_excess_s=6.0,
        )
        assert r.overhead_s == pytest.approx(21.0)

    def test_to_dict_reprs_floats(self):
        d = FaultReport(wasted_compute_s=0.1, task_failures=2).to_dict()
        assert d["wasted_compute_s"] == repr(0.1)
        assert d["task_failures"] == 2
        assert d["overhead_s"] == repr(0.1)
        json.dumps(d)  # must be JSON-serializable as-is

    def test_merge_and_copy(self):
        a = FaultReport(task_failures=1, wasted_compute_s=0.5)
        b = a.copy()
        b.merge(FaultReport(task_failures=2, wasted_compute_s=0.25))
        assert (b.task_failures, b.wasted_compute_s) == (3, 0.75)
        assert (a.task_failures, a.wasted_compute_s) == (1, 0.5)  # copy is isolated


class TestFaultSession:
    def test_reset_rewinds_counters_keeps_stragglers(self):
        plan = FaultPlan(seed=1, straggler_rate=1.0, straggler_slowdown=2.0)
        s = FaultSession(plan=plan, n_workers=4)
        s.next_task_seq()
        s.next_ship_seq()
        s.report.task_failures = 7
        s.reset()
        assert (s.task_seq, s.ship_seq) == (0, 0)
        assert s.report.task_failures == 0
        assert s.report.stragglers == 4  # plan-derived, survives reset

    def test_quantile_one_disables_speculation(self):
        plan = FaultPlan(seed=1, straggler_rate=0.5, straggler_slowdown=4.0)
        policy = RecoveryPolicy(speculation_quantile=1.0)
        s = FaultSession(plan=plan, policy=policy, n_workers=8)
        for f in s._factors:
            assert not s.should_speculate(f)

    def test_use_speculation_false_disables(self):
        s = FaultSession(
            plan=FaultPlan(),
            policy=RecoveryPolicy(use_speculation=False),
            n_workers=4,
        )
        assert not s.should_speculate(10.0)


# --------------------------------------------------------------------- #
# cluster-level machinery
# --------------------------------------------------------------------- #


def _cluster(n_workers, plan, policy=None, **kw):
    c = Cluster(n_workers=n_workers, **kw)
    c.place_partitions(list(range(n_workers)))
    c.install_faults(plan, policy)
    return c


class TestClusterRetries:
    def test_transient_failures_retry_and_fn_runs_once(self):
        plan = FaultPlan(seed=2, task_failure_rate=0.5)
        c = _cluster(2, plan, RecoveryPolicy(max_retries=20))
        calls = []
        for i in range(40):
            out = c.run_local(i % 2, lambda i=i: calls.append(i) or i, work=1.0)
            assert out == i
        rep = c.fault_report()
        assert rep.task_failures > 0  # the plan did fire at rate 0.5
        assert rep.task_retries == rep.task_failures  # nothing abandoned
        assert rep.abandoned_tasks == 0
        assert rep.wasted_compute_s > 0
        assert rep.backoff_wait_s > 0
        # the task body ran exactly once per task, in submission order
        assert calls == list(range(40))

    def test_abandonment_is_typed_and_prompt(self):
        plan = FaultPlan(seed=0, task_failure_rate=1.0)
        c = _cluster(1, plan, RecoveryPolicy(max_retries=2))
        with pytest.raises(TaskAbandonedError) as exc:
            c.run_local(0, lambda: pytest.fail("body must never run"))
        assert exc.value.attempts == 3  # initial try + 2 retries
        assert "abandoned after 3 failed attempts" in str(exc.value)
        assert c.fault_report().abandoned_tasks == 1

    def test_zero_retries_abandons_on_first_failure(self):
        plan = FaultPlan(seed=0, task_failure_rate=1.0)
        c = _cluster(1, plan, RecoveryPolicy(max_retries=0))
        with pytest.raises(TaskAbandonedError) as exc:
            c.run_local(0, lambda: None)
        assert exc.value.attempts == 1

    def test_null_plan_matches_healthy_cluster(self):
        healthy = Cluster(n_workers=3)
        healthy.place_partitions([0, 1, 2])
        faulty = _cluster(3, FaultPlan(seed=7))  # all rates zero
        for c in (healthy, faulty):
            for pid in (0, 1, 2, 0):
                c.run_local(pid, lambda: None, work=2.0)
            c.ship(0, 1, 10_000)
        a, b = healthy.report(), faulty.report()
        assert a.worker_times == b.worker_times
        assert a.total_compute_s == b.total_compute_s
        assert b.faults is not None and b.faults.overhead_s == 0.0


class TestClusterCrashRecovery:
    def _crash_plan(self):
        # 2 workers, crash rate 1.0: the survivor guarantee keeps worker 0,
        # so worker 1 crashes before its first task (crash_after_tasks_max=1
        # forces crash point 0)
        return FaultPlan(seed=0, worker_crash_rate=1.0, crash_after_tasks_max=1)

    def test_lineage_recovery_replaces_and_rebuilds(self):
        c = _cluster(2, self._crash_plan())
        rebuilt = []
        c.register_rebuild(1, lambda: rebuilt.append(1), work=2.0)
        out = c.run_local(1, lambda: "ok")
        assert out == "ok"
        assert rebuilt == [1]  # the lineage closure ran for real
        assert c.worker_of(1) == 0  # re-placed on the survivor
        rep = c.fault_report()
        assert rep.worker_crashes == 1
        assert rep.recovered_partitions == 1
        assert rep.rebuild_compute_s > 0

    def test_crash_counted_once(self):
        c = _cluster(2, self._crash_plan())
        c.run_local(1, lambda: None)
        c.run_local(1, lambda: None)  # partition already recovered
        assert c.fault_report().worker_crashes == 1
        assert c.fault_report().recovered_partitions == 1

    def test_run_on_worker_reroutes(self):
        c = _cluster(2, self._crash_plan())
        c.run_on_worker(1, lambda: None)
        rep = c.fault_report()
        assert rep.rerouted_tasks == 1
        assert c.workers[1].compute_s == 0.0  # dead worker charged nothing

    def test_crash_of_only_replica_recovers_to_sole_survivor(self):
        # 4 workers all doomed but worker 0 (survivor guarantee); every
        # partition converges on worker 0 and every answer still arrives
        plan = FaultPlan(seed=1, worker_crash_rate=1.0, crash_after_tasks_max=1)
        c = _cluster(4, plan)
        for pid in range(4):
            assert c.run_local(pid, lambda pid=pid: pid) == pid
        assert [c.worker_of(pid) for pid in range(4)] == [0, 0, 0, 0]
        assert c.fault_report().worker_crashes == 3

    def test_partition_lost_when_no_survivor(self):
        c = _cluster(1, FaultPlan(seed=0))
        c.workers[0].alive = False  # the plan never kills the last worker;
        with pytest.raises(PartitionLostError):  # simulate a dead cluster
            c.run_local(0, lambda: None)

    def test_reset_revives_and_restores_placement(self):
        c = _cluster(2, self._crash_plan())
        c.run_local(1, lambda: None)
        assert not c.workers[1].alive and c.worker_of(1) == 0
        c.reset_clocks()
        assert c.workers[1].alive
        assert c.worker_of(1) == 1  # baseline placement restored
        assert c.fault_report().worker_crashes == 0

    def test_clear_faults_revives(self):
        c = _cluster(2, self._crash_plan())
        c.run_local(1, lambda: None)
        c.clear_faults()
        assert c.faults is None
        assert all(w.alive for w in c.workers)
        assert c.fault_report() is None


class TestClusterShip:
    def test_colocated_still_free(self):
        c = Cluster(n_workers=1, faults=FaultPlan(seed=0, message_drop_rate=1.0))
        c.place_partitions([0, 1])
        assert c.ship(0, 1, 10_000) == 0.0

    def test_drops_resend_and_cost(self):
        net = NetworkModel(bandwidth_bytes_per_s=1e6, latency_s=0.0, drop_detect_s=0.5)
        plan = FaultPlan(seed=4, message_drop_rate=0.5)
        c = _cluster(2, plan, RecoveryPolicy(max_retries=20), network=net)
        for _ in range(20):
            t = c.ship(0, 1, 1_000_000)
            assert t == pytest.approx(1.0)  # the successful transfer's time
        rep = c.fault_report()
        assert rep.message_drops > 0
        assert rep.message_resends == rep.message_drops
        # each drop wastes (t + drop_detect) at the sender and t at the dst
        assert rep.resend_network_s == pytest.approx(rep.message_drops * 2.5)
        assert rep.backoff_wait_s > 0

    def test_drop_forever_abandons_typed(self):
        plan = FaultPlan(seed=0, message_drop_rate=1.0)
        c = _cluster(2, plan, RecoveryPolicy(max_retries=3))
        with pytest.raises(TaskAbandonedError) as exc:
            c.ship(0, 1, 1000)
        assert exc.value.attempts == 4
        assert exc.value.what.startswith("message")

    def test_crash_during_ship_recovers_endpoints(self):
        plan = FaultPlan(seed=0, worker_crash_rate=1.0, crash_after_tasks_max=1)
        c = _cluster(2, plan)
        rebuilt = []
        c.register_rebuild(1, lambda: rebuilt.append(1))
        # worker 1 is doomed: shipping to its partition first recovers it
        # onto worker 0, making the transfer co-located (and free)
        assert c.ship(0, 1, 10_000) == 0.0
        assert rebuilt == [1]
        assert c.fault_report().recovered_partitions == 1


class TestSpeculation:
    @staticmethod
    def _one_straggler_seed(n_workers=4, rate=0.3, slowdown=4.0):
        for seed in range(200):
            plan = FaultPlan(seed=seed, straggler_rate=rate, straggler_slowdown=slowdown)
            factors = plan.straggler_factors(n_workers)
            if sum(1 for f in factors if f > 1.0) == 1:
                return seed, factors.index(slowdown)
        raise AssertionError("no single-straggler seed in range")

    def test_speculation_reduces_makespan_strictly(self):
        seed, slow_wid = self._one_straggler_seed()
        plan = FaultPlan(seed=seed, straggler_rate=0.3, straggler_slowdown=4.0)

        def run(use_speculation):
            c = _cluster(4, plan, RecoveryPolicy(use_speculation=use_speculation))
            for _ in range(4):
                for pid in range(4):
                    c.run_local(pid, lambda: None, work=1.0)
            return c.report()

        fast, slow = run(True), run(False)
        assert fast.makespan < slow.makespan  # strictly better
        assert fast.faults.speculative_tasks > 0
        assert fast.faults.speculative_wins > 0
        assert slow.faults.speculative_tasks == 0
        assert fast.faults.stragglers == slow.faults.stragglers == 1

    def test_straggler_excess_accounted(self):
        seed, slow_wid = self._one_straggler_seed()
        plan = FaultPlan(seed=seed, straggler_rate=0.3, straggler_slowdown=4.0)
        c = _cluster(4, plan, RecoveryPolicy(use_speculation=False))
        for pid in range(4):
            c.run_local(pid, lambda: None, work=1.0)
        rep = c.fault_report()
        # one worker ran its task 4x slower: 3 nominal task-costs of excess
        nominal = c._price_work(1.0)
        assert rep.straggler_excess_s == pytest.approx(3 * nominal)

    def test_speculative_win_charges_healthy_time(self):
        seed, slow_wid = self._one_straggler_seed()
        plan = FaultPlan(seed=seed, straggler_rate=0.3, straggler_slowdown=4.0)
        c = _cluster(4, plan)
        c.run_local(slow_wid, lambda: None, work=1.0)
        nominal = c._price_work(1.0)
        # winner finishes in healthy time; both copies charged that much
        assert c.workers[slow_wid].compute_s == pytest.approx(nominal)
        rep = c.fault_report()
        assert rep.speculative_compute_s == pytest.approx(nominal)
        assert rep.straggler_excess_s == 0.0


class TestReporting:
    def test_execution_report_carries_faults(self):
        c = _cluster(2, FaultPlan(seed=2, task_failure_rate=0.5), RecoveryPolicy(max_retries=20))
        for i in range(10):
            c.run_local(i % 2, lambda: None)
        rep = c.report()
        assert rep.faults is not None
        assert rep.faults.task_failures == c.fault_report().task_failures
        d = rep.to_dict()
        assert d["faults"]["task_failures"] == rep.faults.task_failures
        json.dumps(d)

    def test_fault_report_is_a_snapshot(self):
        c = _cluster(2, FaultPlan(seed=2, task_failure_rate=0.5), RecoveryPolicy(max_retries=20))
        c.run_local(0, lambda: None)
        snap = c.fault_report()
        before = snap.task_failures
        for i in range(20):
            c.run_local(i % 2, lambda: None)
        assert snap.task_failures == before  # later work doesn't mutate it

    def test_merge_propagates_faults(self):
        from repro.cluster import ExecutionReport

        a = ExecutionReport()
        b = ExecutionReport(faults=FaultReport(task_failures=2))
        a.merge(b)
        assert a.faults.task_failures == 2
        a.merge(b)
        assert a.faults.task_failures == 4
        b.faults.task_failures = 99
        assert a.faults.task_failures == 4  # merged a copy, not the object


# --------------------------------------------------------------------- #
# engine and SQL wiring
# --------------------------------------------------------------------- #

LOSSY = FaultPlan(
    seed=11,
    worker_crash_rate=0.5,
    task_failure_rate=0.3,
    message_drop_rate=0.3,
    straggler_rate=0.3,
    straggler_slowdown=4.0,
)
PATIENT = RecoveryPolicy(max_retries=8)


@pytest.fixture(scope="module")
def fault_city():
    return beijing_like(60, seed=7)


@pytest.fixture(scope="module")
def fault_config():
    return DITAConfig(num_global_partitions=3, trie_fanout=4, num_pivots=3)


def _ids(matches):
    return sorted((t.traj_id, d) for t, d in matches)


class TestEngineUnderFaults:
    def test_search_knn_join_equal_fault_free(self, fault_city, fault_config):
        query = sample_queries(fault_city, 1, seed=5)[0]
        healthy = DITAEngine(fault_city, fault_config)
        faulty = DITAEngine(fault_city, fault_config)
        faulty.cluster.install_faults(LOSSY, PATIENT)
        assert _ids(faulty.search(query, 0.01)) == _ids(healthy.search(query, 0.01))
        assert _ids(faulty.search_batch([query], [0.01])[0]) == _ids(
            healthy.search_batch([query], [0.01])[0]
        )
        assert _ids(knn_search(faulty, query, 5)) == _ids(knn_search(healthy, query, 5))
        assert faulty.self_join(0.005) == healthy.self_join(0.005)
        rep = faulty.fault_report()
        assert rep.worker_crashes > 0 and rep.recovered_partitions > 0

    def test_recovery_rebuilds_the_trie_for_real(self, fault_city, fault_config):
        engine = DITAEngine(fault_city, fault_config)
        engine.cluster.install_faults(
            FaultPlan(seed=0, worker_crash_rate=1.0, crash_after_tasks_max=1),
            PATIENT,
        )
        before = {pid: id(t) for pid, t in engine.runtime.loaded().items()}
        query = sample_queries(fault_city, 1, seed=5)[0]
        engine.search(query, 0.01)
        after = {pid: id(t) for pid, t in engine.runtime.loaded().items()}
        swapped = [pid for pid in before if before[pid] != after[pid]]
        assert swapped  # at least one partition was rebuilt via lineage
        assert engine.fault_report().recovered_partitions >= len(swapped)

    def test_config_driven_installation(self, fault_city, fault_config):
        """`install_faults` on the engine's cluster is the one route (the
        config carries no fault knobs): the plan it was handed is the plan
        that runs."""
        plan = FaultPlan(seed=13, task_failure_rate=0.3)
        engine = DITAEngine(fault_city, fault_config)
        assert engine.cluster.faults is None
        engine.cluster.install_faults(plan, PATIENT)
        assert engine.cluster.faults.plan == plan
        query = sample_queries(fault_city, 1, seed=5)[0]
        healthy = DITAEngine(fault_city, fault_config)
        assert _ids(engine.search(query, 0.01)) == _ids(healthy.search(query, 0.01))
        assert engine.fault_report().task_failures > 0

    def test_abandonment_propagates_typed(self, fault_city, fault_config):
        engine = DITAEngine(fault_city, fault_config)
        engine.cluster.install_faults(
            FaultPlan(seed=0, task_failure_rate=1.0), RecoveryPolicy(max_retries=1)
        )
        query = sample_queries(fault_city, 1, seed=5)[0]
        with pytest.raises(TaskAbandonedError):
            engine.search(query, 0.01)


class TestSQLUnderFaults:
    def test_session_results_equal_fault_free(self, fault_city):
        from repro.sql import DITASession

        cfg = DITAConfig(num_global_partitions=3, trie_fanout=4, num_pivots=3)
        plan = FaultPlan(seed=21, task_failure_rate=0.3, worker_crash_rate=0.3)
        query = sample_queries(fault_city, 1, seed=5)[0]
        rows = {}
        for name in ("healthy", "faulty"):
            session = DITASession(cfg)
            session.register("taxi", fault_city)
            session.sql("CREATE INDEX idx ON taxi USE TRIE")
            if name == "faulty":
                session.catalog.get("taxi").engine.cluster.install_faults(plan, PATIENT)
            out = session.sql(
                "SELECT taxi.traj_id, distance FROM taxi "
                "WHERE DTW(taxi, :q) <= 0.01 ORDER BY distance, taxi.traj_id",
                params={"q": query},
            )
            rows[name] = [(r["taxi.traj_id"], r["distance"]) for r in out]
        assert rows["faulty"] == rows["healthy"]

    def test_abandonment_becomes_sql_error(self, fault_city, fault_config):
        from repro.sql.physical import IndexSearch
        from repro.sql.tokens import SQLError

        engine = DITAEngine(fault_city, fault_config)
        engine.cluster.install_faults(
            FaultPlan(seed=0, task_failure_rate=1.0), RecoveryPolicy(max_retries=0)
        )
        query = sample_queries(fault_city, 1, seed=5)[0]
        op = IndexSearch(engine, "t", query, 0.01)
        with pytest.raises(SQLError, match="distributed execution failed"):
            op.execute({})

    def test_abandoned_dataframe_knn_becomes_sql_error(self, fault_city, fault_config):
        """The DataFrame's kNN is the SQL path's ``IndexSearch`` with ``k``
        set: an abandoned task surfaces as ``SQLError`` there too, not the
        cluster exception."""
        from repro.sql import DITASession
        from repro.sql.tokens import SQLError

        session = DITASession(fault_config)
        session.register("taxi", fault_city)
        session.catalog.engine_for("taxi", "dtw").cluster.install_faults(
            FaultPlan(seed=0, task_failure_rate=1.0), RecoveryPolicy(max_retries=0)
        )
        query = sample_queries(fault_city, 1, seed=5)[0]
        with pytest.raises(SQLError, match="distributed execution failed"):
            session.table("taxi").knn(query, 3).collect()
