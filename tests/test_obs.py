"""Tests for the observability layer: tracer, metrics registry, per-stage
breakdown, and the accounting identities tying them to the simulator."""

import json

import pytest

from repro import DITAConfig, DITAEngine, FaultPlan, RecoveryPolicy
from repro.cluster.faults import TaskAbandonedError
from repro.cluster.simulator import Cluster
from repro.core.knn import knn_search
from repro.datagen import beijing_like, sample_queries
from repro.distances import available_distances
from repro.obs import (
    MetricsRegistry,
    Tracer,
    accounted_spans,
    stage_rows,
    worker_span_seconds,
)


@pytest.fixture(scope="module")
def city():
    return beijing_like(80, seed=17)


@pytest.fixture(scope="module")
def query(city):
    return sample_queries(city, 1, seed=4)[0]


def traced_engine(city, **cfg):
    engine = DITAEngine(city, DITAConfig(**cfg))
    engine.enable_tracing()
    return engine


# --------------------------------------------------------------------- #
# tracer unit tests
# --------------------------------------------------------------------- #


class TestTracer:
    def test_record_parents_to_open_job(self):
        tr = Tracer()
        with tr.job("search", tau=0.5) as job_id:
            tr.record("task", "task", 0, 0.0, 1.0)
        job = tr.spans[0]
        task = tr.spans[1]
        assert task.parent_id == job_id
        assert job.cat == "job"
        assert job.t0 == 0.0 and job.t1 == 1.0
        assert job.seconds == 1.0

    def test_job_envelope_excludes_stage_seconds(self):
        tr = Tracer()
        with tr.job("j"):
            s = tr.record("task", "task", 0, 0.0, 2.0)
            tr.subdivide(s, [("a", 1.0, None), ("b", 3.0, None)])
        job = tr.spans[0]
        assert job.seconds == 2.0  # stages are views, not extra time

    def test_subdivide_tiles_parent_exactly(self):
        tr = Tracer()
        s = tr.record("task", "task", 2, 1.0, 4.0, seconds=3.0)
        kids = tr.subdivide(s, [("a", 1.0, None), ("b", 2.0, None)])
        assert kids[0].t0 == s.t0
        assert kids[-1].t1 == s.t1  # last boundary pinned, no float gap
        assert sum(k.seconds for k in kids) == s.seconds
        assert all(k.cat == "stage" and k.worker == 2 for k in kids)

    def test_subdivide_zero_weight_records_nothing(self):
        tr = Tracer()
        s = tr.record("task", "task", 0, 0.0, 1.0)
        assert tr.subdivide(s, [("a", 0.0, None)]) == []
        assert len(tr.spans) == 1

    def test_clear_resets_ids(self):
        tr = Tracer()
        tr.record("x", "task", 0, 0.0, 1.0)
        tr.clear()
        assert tr.spans == []
        assert tr.record("y", "task", 0, 0.0, 1.0).span_id == 0

    def test_end_wrong_span_rejected(self):
        tr = Tracer()
        tr.begin("outer")
        inner = tr.begin("inner")
        with pytest.raises(ValueError):
            tr.end(inner + 1)

    def test_export_json_round_trips(self):
        tr = Tracer()
        tr.record("task", "task", 1, 0.0, 0.5, args={"work": 3, "f": 0.1})
        doc = json.loads(tr.export_json())
        (ev,) = doc["spans"]
        assert ev["name"] == "task"
        assert ev["t1"] == repr(0.5)
        assert ev["args"]["f"] == repr(0.1)

    def test_export_chrome_lanes(self):
        tr = Tracer()
        with tr.job("j"):
            tr.record("t", "task", 1, 0.0, 1.0)
            tr.record("s", "net", 1, 0.0, 0.5)
        events = json.loads(tr.export_chrome())["traceEvents"]
        tids = {e["name"]: e["tid"] for e in events}
        assert tids == {"j": "driver", "t": "w1", "s": "w1.net"}
        assert all(e["ph"] == "X" for e in events)


# --------------------------------------------------------------------- #
# registry unit tests
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_counters_accumulate(self):
        r = MetricsRegistry()
        r.counter("a")
        r.counter("a", 4)
        assert r.value("a") == 5
        assert r.value("missing") == 0

    def test_snapshot_sorted_and_typed(self):
        r = MetricsRegistry()
        r.counter("z", 1)
        r.gauge("a", 0.5)
        r.observe("h", 1.0)
        r.observe("h", 3.0)
        snap = r.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["counter.z"] == 1
        assert snap["gauge.a"] == repr(0.5)
        assert snap["hist.h.count"] == 2
        assert snap["hist.h.min"] == repr(1.0)
        assert snap["hist.h.max"] == repr(3.0)

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x", 1)
        b.counter("x", 2)
        b.gauge("g", 1.5)
        b.observe("h", 2.0)
        a.merge(b)
        assert a.value("x") == 3
        assert a.snapshot()["gauge.g"] == repr(1.5)

    def test_under_moves_counters_below_a_prefix(self):
        r = MetricsRegistry()
        r.counter("filter.candidates", 7)
        r.counter("jobs")
        assert r.under("search").counters() == {"search.filter.candidates": 7, "search.jobs": 1}


# --------------------------------------------------------------------- #
# the stats contract: one source for every count
# --------------------------------------------------------------------- #

#: each stats-taking entry point, called on a traced engine with ``stats``
STATS_CALLS = {
    "search": lambda e, qs, stats: e.search(qs[0], 0.01, stats=stats),
    "search_batch": lambda e, qs, stats: e.search_batch(qs, [0.01, 0.004, 0.02], stats=stats),
    "join": lambda e, qs, stats: e.join(e, 0.005, stats=stats),
    "self_join": lambda e, qs, stats: e.self_join(0.005, stats=stats),
}


@pytest.fixture(scope="module")
def backend_engines(city):
    engines = {
        backend: traced_engine(city, backend=backend, num_processes=2)
        for backend in ("simulated", "process")
    }
    yield engines
    for engine in engines.values():
        engine.shutdown()


class TestStatsContract:
    """A call's ``stats`` registry holds exactly the counters the call adds
    to ``engine.metrics`` — the stages count into a task registry, the
    coordinator merges the tasks into one job registry, and that one
    registry feeds both — and it is the same on both backends."""

    @pytest.mark.parametrize("call", sorted(STATS_CALLS))
    def test_stats_equal_engine_metrics_on_both_backends(self, backend_engines, city, call):
        qs = sample_queries(city, 3, seed=8)
        seen = {}
        for backend, engine in backend_engines.items():
            engine.metrics.clear()
            stats = MetricsRegistry()
            answer = STATS_CALLS[call](engine, qs, stats)
            assert stats.snapshot() == engine.metrics.snapshot(), backend
            assert stats.value("join.jobs" if "join" in call else "search.jobs") == 1, backend
            seen[backend] = (answer, stats.snapshot())
        assert seen["simulated"] == seen["process"]

    def test_batch_counts_are_its_queries_counts(self, city):
        """``search_batch`` counts, in one registry, what its queries'
        one-by-one searches count together (bar the job count)."""
        engine = DITAEngine(city, DITAConfig())
        qs = sample_queries(city, 3, seed=8)
        batch, alone = MetricsRegistry(), MetricsRegistry()
        engine.search_batch(qs, [0.01] * 3, stats=batch)
        for q in qs:
            engine.search(q, 0.01, stats=alone)
        assert alone.value("search.jobs") == 3 and batch.value("search.jobs") == 1
        drop = {"search.jobs"}
        assert {k: v for k, v in batch.counters().items() if k not in drop} == {
            k: v for k, v in alone.counters().items() if k not in drop
        }


# --------------------------------------------------------------------- #
# accounting identities against the simulator
# --------------------------------------------------------------------- #


def assert_span_accounting(cluster):
    """Exact identities between spans and the ExecutionReport.

    With single-core workers the compute spans on one worker are laid out
    back to back on its core clock and the net spans on its network lane,
    so ``busy_time = max(compute t1) + max(net t1)`` holds with float
    equality (not just approximately).
    """
    spans = cluster.tracer.spans
    report = cluster.report()
    per_worker = worker_span_seconds(spans)
    for wid, busy in report.worker_times.items():
        max_compute = max(
            (s.t1 for s in accounted_spans(spans) if s.worker == wid and s.cat != "net"),
            default=0.0,
        )
        max_net = max(
            (s.t1 for s in accounted_spans(spans) if s.worker == wid and s.cat == "net"),
            default=0.0,
        )
        assert max_compute + max_net == busy
        # sum of exact charges reconciles too (addition-order tolerance)
        assert per_worker.get(wid, 0.0) == pytest.approx(busy, abs=1e-9)
    untraced = set(per_worker) - set(report.worker_times)
    assert not untraced


class TestAccountingIdentity:
    def test_search(self, city, query):
        engine = traced_engine(city)
        engine.search(query, tau=0.01)
        assert_span_accounting(engine.cluster)

    def test_join(self, city):
        engine = traced_engine(city)
        engine.join(engine, tau=0.005)
        assert_span_accounting(engine.cluster)

    def test_knn(self, city, query):
        engine = traced_engine(city)
        knn_search(engine, query, k=5)
        assert_span_accounting(engine.cluster)

    def test_under_faults(self, city, query):
        cluster = Cluster(
            n_workers=4,
            faults=FaultPlan(seed=3, task_failure_rate=0.4, message_drop_rate=0.15),
            recovery=RecoveryPolicy(max_retries=50),
        )
        engine = DITAEngine(city, DITAConfig(), cluster=cluster)
        engine.enable_tracing()
        engine.join(engine, tau=0.005)
        spans = engine.cluster.tracer.spans
        assert any(s.cat == "fault" for s in spans)
        assert_span_accounting(engine.cluster)

    def test_stage_rows_tile_their_task(self, city, query):
        engine = traced_engine(city)
        engine.search(query, tau=0.01)
        rows = stage_rows(engine.cluster.tracer.spans)
        parents = [r for r in rows if r["indent"] == 0]
        stages = [r for r in rows if r["indent"] == 1]
        assert parents and stages
        assert sum(r["seconds"] for r in stages) == pytest.approx(
            sum(r["seconds"] for r in parents), abs=1e-12
        )


# --------------------------------------------------------------------- #
# determinism + zero-interference
# --------------------------------------------------------------------- #


def run_all(engine, city, query):
    search = engine.search(query, tau=0.01)
    engine.cluster.reset_clocks()
    nn = knn_search(engine, query, k=5)
    engine.cluster.reset_clocks()
    pairs = engine.join(engine, tau=0.005)
    return search, nn, pairs


class TestTraceDeterminism:
    def test_same_seed_exports_byte_identical(self, city, query):
        outputs = []
        for _ in range(2):
            engine = traced_engine(city)
            engine.search(query, tau=0.01)
            engine.join(engine, tau=0.005)
            outputs.append(
                (
                    engine.cluster.tracer.export_json(),
                    engine.cluster.tracer.export_chrome(),
                    engine.metrics.to_json(),
                )
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("distance", sorted(available_distances()))
    def test_tracing_does_not_change_results(self, city, query, distance):
        """Traced and untraced runs of search/knn/join agree bit-for-bit
        on every adapter."""
        plain = DITAEngine(city, DITAConfig(), distance=distance)
        traced = DITAEngine(city, DITAConfig(), distance=distance)
        traced.enable_tracing()
        tau = 0.01 if distance not in ("edr", "lcss") else 5.0

        def key(matches):
            return sorted((t.traj_id, d) for t, d in matches)

        q_plain = plain.search(query, tau=tau)
        q_traced = traced.search(query, tau=tau)
        assert key(q_plain) == key(q_traced)

        nn_plain = [(t.traj_id, d) for t, d in knn_search(plain, query, 5)]
        nn_traced = [(t.traj_id, d) for t, d in knn_search(traced, query, 5)]
        assert nn_plain == nn_traced

        j_plain = sorted(plain.join(plain, tau=tau / 2))
        j_traced = sorted(traced.join(traced, tau=tau / 2))
        assert j_plain == j_traced

    def test_untraced_engine_records_nothing(self, city, query):
        engine = DITAEngine(city, DITAConfig())
        engine.search(query, tau=0.01)
        assert engine.cluster.tracer is None
        assert engine.metrics is None

    def test_abandoned_job_closes_its_span(self, city, query):
        """A job that dies mid-flight still ends its driver span: the open
        stack is empty afterwards and the next job is a root span again."""
        engine = traced_engine(city)
        engine.cluster.install_faults(
            FaultPlan(seed=0, task_failure_rate=1.0), RecoveryPolicy(max_retries=0)
        )
        with pytest.raises(TaskAbandonedError):
            engine.search(query, tau=0.01)
        tracer = engine.cluster.tracer
        assert tracer._open == []
        engine.cluster.clear_faults()
        first = len(tracer.spans)
        engine.search(query, tau=0.01)
        jobs = [s for s in tracer.spans[first:] if s.cat == "job"]
        assert jobs and jobs[0].parent_id is None

    def test_reset_clocks_clears_trace(self, city, query):
        engine = traced_engine(city)
        engine.search(query, tau=0.01)
        assert engine.cluster.tracer.spans
        engine.cluster.reset_clocks()
        assert engine.cluster.tracer.spans == []
