"""Serving-layer tests: the serial-twin byte-identity harness, cache
invalidation across every mutation path, admission, fairness, and
determinism.

The central contract (ISSUE 10): every request the serving layer admits
must produce an answer byte-identical — results *and* stats — to a
serial execution of the same requests in the serving layer's dispatch
order at the same logical snapshot.  The harness replays each run
against a twin engine and compares canonical results plus the stats
registry snapshots.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DITAConfig, DITAEngine
from repro.core.knn import knn_search
from repro.datagen import beijing_like
from repro.obs import LatencyHistogram, MetricsRegistry
from repro.serving import (
    AdmissionController,
    FairQueue,
    QueueFullError,
    RateLimitedError,
    Request,
    ResultCache,
    ServingLayer,
    TokenBucket,
    canonical_result,
    snapshot_footprint,
)
from repro.sql.session import DITASession
from repro.trajectory import Trajectory
from serving_workload import open_loop

ADAPTERS = ["dtw", "frechet", "hausdorff", "edr", "lcss", "erp"]


def make_config(**kw):
    base = dict(
        num_global_partitions=2,
        trie_fanout=4,
        num_pivots=3,
        trie_leaf_capacity=4,
        delta_max_rows=10_000,
    )
    base.update(kw)
    return DITAConfig(**base)


def serial_execute(twin, req, twin_session=None):
    """Run one request serially against the twin; mirrors the serving
    layer's execution without caches, admission or scheduling."""
    p = req.payload
    if req.kind == "search":
        stats = MetricsRegistry()
        return canonical_result("search", twin.search(p["query"], p["tau"], stats=stats)), stats.snapshot()
    if req.kind == "knn":
        return canonical_result("knn", knn_search(twin, p["query"], p["k"])), None
    if req.kind == "join":
        stats = MetricsRegistry()
        return canonical_result("join", twin.join(p.get("other", twin), p["tau"], stats=stats)), stats.snapshot()
    if req.kind == "sql":
        rows = twin_session.sql(p["text"], params=p.get("params"))
        return canonical_result("sql", rows), None
    if req.kind == "append":
        return twin.append_trajectory(p["traj_id"], p["points"]), None
    if req.kind == "extend":
        twin.extend_trajectory(p["traj_id"], p["points"])
        return True, None
    if req.kind == "remove":
        return twin.remove_trajectory(p["traj_id"]), None
    if req.kind == "merge":
        return (twin.merge() if twin.generations is not None else twin.flush_deltas()), None
    if req.kind == "repartition":
        return twin.repartition(), None
    raise AssertionError(req.kind)


def assert_byte_identical_to_serial(outcomes, twin, twin_session=None):
    """Replay the dispatch order serially on the twin and compare."""
    ok = sorted(
        (o for o in outcomes if o.status == "ok"), key=lambda o: o.dispatch_seq
    )
    assert ok, "workload produced no successful outcomes"
    for o in ok:
        want_value, want_stats = serial_execute(twin, o.request, twin_session)
        assert o.result == want_value, (
            f"req {o.request.req_id} ({o.request.kind}, cached={o.cached}) "
            f"diverged from serial execution"
        )
        assert o.stats == want_stats, (
            f"req {o.request.req_id} ({o.request.kind}, cached={o.cached}) "
            f"stats diverged from serial execution"
        )


def build_workload(data, seed, n_per_tenant, tenants=3, mix=None, sql_table=None):
    kwargs = {"sql_table": sql_table}
    if mix is not None:
        kwargs["mix"] = mix
    return open_loop(
        data,
        [f"t{i}" for i in range(tenants)],
        n_per_tenant=n_per_tenant,
        rate_per_tenant=64.0,
        seed=seed,
        **kwargs,
    )


# --------------------------------------------------------------------- #
# the serial-twin byte-identity harness
# --------------------------------------------------------------------- #


class TestByteIdenticalToSerial:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 10_000))
    def test_interleaved_mixed_workload_dtw(self, seed):
        """Hypothesis interleaving harness: random mixed workloads —
        queries racing streamed mutations — answer exactly like a serial
        run at each request's dispatch snapshot."""
        data = beijing_like(60, seed=17)
        cfg = make_config()
        engine = DITAEngine(data, cfg)
        session = DITASession(cfg)
        session.register("taxi", data)
        session.catalog.get("taxi").engine = engine
        twin = DITAEngine(data, cfg)
        twin_session = DITASession(cfg)
        twin_session.register("taxi", data)
        twin_session.catalog.get("taxi").engine = twin

        mix = (
            ("search", 0.45),
            ("knn", 0.15),
            ("sql", 0.10),
            ("append", 0.12),
            ("extend", 0.08),
            ("remove", 0.10),
        )
        reqs = build_workload(data, seed, n_per_tenant=7, mix=mix, sql_table="taxi")
        layer = ServingLayer(engine, session=session, config=cfg)
        outcomes = layer.run(reqs)
        assert all(o.status == "ok" for o in outcomes)
        assert_byte_identical_to_serial(outcomes, twin, twin_session)

    @pytest.mark.parametrize("distance", ADAPTERS)
    def test_all_adapters(self, distance):
        data = beijing_like(50, seed=23)
        cfg = make_config()
        engine = DITAEngine(data, cfg, distance=distance)
        twin = DITAEngine(data, cfg, distance=distance)
        mix = (
            ("search", 0.5),
            ("knn", 0.2),
            ("append", 0.15),
            ("remove", 0.15),
        )
        reqs = build_workload(data, seed=5, n_per_tenant=6, mix=mix)
        layer = ServingLayer(engine, config=cfg)
        outcomes = layer.run(reqs)
        assert all(o.status == "ok" for o in outcomes)
        assert_byte_identical_to_serial(outcomes, twin)

    @pytest.mark.parametrize("backend", ["simulated", "process"])
    def test_both_backends(self, backend):
        data = beijing_like(40, seed=29)
        cfg = make_config(backend=backend, num_processes=2)
        engine = DITAEngine(data, cfg)
        # the twin runs simulated: the process backend's contract is
        # bit-identity with the simulated one, so this also re-checks it
        twin = DITAEngine(data, make_config())
        mix = (("search", 0.6), ("knn", 0.2), ("append", 0.2))
        reqs = build_workload(data, seed=11, n_per_tenant=4, tenants=2, mix=mix)
        layer = ServingLayer(engine, config=cfg)
        try:
            outcomes = layer.run(reqs)
            assert all(o.status == "ok" for o in outcomes)
            assert_byte_identical_to_serial(outcomes, twin)
        finally:
            engine.shutdown()

    def test_join_requests(self):
        data = beijing_like(30, seed=31)
        cfg = make_config()
        engine = DITAEngine(data, cfg)
        twin = DITAEngine(data, cfg)
        reqs = [
            Request(req_id=0, tenant="a", kind="join", payload={"tau": 0.004}, arrival=0.0),
            Request(req_id=1, tenant="b", kind="join", payload={"tau": 0.004}, arrival=0.01),
        ]
        layer = ServingLayer(engine, config=cfg)
        outcomes = layer.run(reqs)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert outcomes[1].cached  # identical self-join: second one hits
        assert_byte_identical_to_serial(outcomes, twin)

    def test_cache_lookups_counted_once(self):
        """One source for the cache counts: ``serve.cache.hits`` plus
        ``serve.cache.misses`` is the number of cacheable lookups, each
        counted once, and ``summary()["cache"]`` reads those counters."""
        data = beijing_like(60, seed=17)
        cfg = make_config()
        engine = DITAEngine(data, cfg)
        session = DITASession(cfg)
        session.register("taxi", data)
        session.catalog.get("taxi").engine = engine
        mix = (("search", 0.45), ("knn", 0.15), ("join", 0.1), ("sql", 0.15), ("append", 0.15))
        reqs = build_workload(data, seed=3, n_per_tenant=10, mix=mix, sql_table="taxi")
        reqs += [  # a repeat of each cacheable request, after the rest
            Request(req_id=1000 + r.req_id, tenant=r.tenant, kind=r.kind, payload=r.payload,
                    arrival=r.arrival + 100.0)
            for r in reqs if r.kind in ("search", "knn", "join", "sql")
        ]
        layer = ServingLayer(engine, session=session, config=cfg)
        outcomes = layer.run(reqs)

        def cacheable(req):
            if req.kind == "sql":
                return req.payload["text"].lstrip().upper().startswith(("SELECT", "EXPLAIN"))
            return req.kind in ("search", "knn", "join")

        looked_up = [o for o in outcomes if o.status != "shed" and cacheable(o.request)]
        hits = layer.metrics.value("serve.cache.hits")
        assert hits + layer.metrics.value("serve.cache.misses") == len(looked_up)
        assert hits == sum(o.cached for o in outcomes) > 0
        cache = layer.summary()["cache"]
        assert (cache["hits"], cache["misses"]) == (
            hits, layer.metrics.value("serve.cache.misses")
        )


# --------------------------------------------------------------------- #
# cache invalidation across every mutation path
# --------------------------------------------------------------------- #


def _query_for_partition(engine, data, tau):
    """(query, relevant pids) pairs with small, distinct footprints."""
    found = {}
    for t in data:
        q = Trajectory(-1, t.points + 1e-6)
        pids = tuple(engine.global_index.relevant_partitions(q.points, tau, engine.adapter))
        if pids and pids not in found:
            found[pids] = q
    return found


class TestCacheInvalidation:
    TAU = 0.0015

    def _layer(self):
        data = beijing_like(80, seed=41)
        cfg = make_config()
        engine = DITAEngine(data, cfg)
        engine_twin = DITAEngine(data, cfg)
        return ServingLayer(engine, config=cfg), engine, engine_twin, list(data)

    def _serve(self, layer, reqs):
        return layer.run(reqs)

    def _search_req(self, rid, q, arrival):
        return Request(
            req_id=rid, tenant="t0", kind="search",
            payload={"query": q, "tau": self.TAU}, arrival=arrival,
        )

    @pytest.mark.parametrize("path", ["append", "extend", "remove", "merge", "repartition"])
    def test_mutation_invalidates_affected_entry(self, path, tmp_path):
        layer, engine, twin, data = self._layer()
        if path == "merge":
            engine.attach_generations(tmp_path / "gens")
            twin.attach_generations(tmp_path / "gens_twin")
        q = Trajectory(-1, data[0].points + 1e-6)
        # warm the cache, then prove the hit
        o1, o2 = layer.run(
            [self._search_req(0, q, 0.0), self._search_req(1, q, 10.0)]
        )
        assert o1.status == o2.status == "ok"
        assert not o1.cached and o2.cached

        target = data[0].traj_id
        if path == "append":
            payload = {"traj_id": 999_001, "points": data[0].points + 2e-6}
        elif path == "extend":
            payload = {"traj_id": target, "points": data[0].points[-1:] + 1e-6}
        elif path == "remove":
            payload = {"traj_id": target}
        else:
            payload = {}
        mut = Request(req_id=2, tenant="t0", kind=path, payload=payload, arrival=20.0)
        o3 = layer.run([mut])[0]
        assert o3.status == "ok", o3.error
        if path == "repartition" and o3.result is False:
            pytest.skip("no skew: repartition declined (covered by merge path)")

        # the same query must now re-execute — and agree with a serial twin
        o4 = layer.run([self._search_req(3, q, 30.0)])[0]
        assert o4.status == "ok"
        assert not o4.cached
        assert layer.metrics.value("serve.cache.invalidations") >= 1
        serial_execute(twin, mut)
        assert_byte_identical_to_serial([o4], twin)

    def test_mutation_elsewhere_keeps_entry(self):
        """Partition-exactness: a buffered write routed to a partition
        outside an entry's footprint must not invalidate it."""
        layer, engine, _twin, data = self._layer()
        by_pids = _query_for_partition(engine, data, self.TAU)
        assert len(by_pids) >= 2, "need two disjoint footprints"
        pids_a = q_a = pids_b = q_b = None
        items = sorted(by_pids.items())
        for pa, qa in items:
            for pb, qb in items:
                if not set(pa) & set(pb):
                    pids_a, q_a, pids_b, q_b = pa, qa, pb, qb
                    break
            if pids_a is not None:
                break
        assert pids_a is not None, "no disjoint partition footprints found"
        # warm both entries
        layer.run([self._search_req(0, q_a, 0.0), self._search_req(1, q_b, 1.0)])
        # a write that lands only in one of q_b's partitions
        donor = next(
            t for t in data
            if engine.global_index.relevant_partitions(t.points, self.TAU, engine.adapter)
            and set(
                engine.global_index.relevant_partitions(t.points, self.TAU, engine.adapter)
            ) <= set(pids_b)
        )
        mut = Request(
            req_id=2, tenant="t0", kind="append",
            payload={"traj_id": 999_002, "points": donor.points + 1e-6}, arrival=2.0,
        )
        assert layer.run([mut])[0].status == "ok"
        o_a = layer.run([self._search_req(3, q_a, 3.0)])[0]
        o_b = layer.run([self._search_req(4, q_b, 4.0)])[0]
        assert o_a.cached, "entry with untouched footprint must survive"
        assert not o_b.cached, "entry whose partition mutated must die"

    def test_result_cache_footprint_api(self):
        """Direct cache-level check of the footprint contract."""
        data = beijing_like(40, seed=43)
        cfg = make_config()
        engine = DITAEngine(data, cfg)
        metrics = MetricsRegistry()
        cache = ResultCache(1 << 20, metrics)
        engine.sync_for_read()
        fp = snapshot_footprint(engine)
        cache.put(("k",), "value", None, fp, 100)
        assert cache.get(("k",), engine) == ("value", None)
        engine.append_trajectory(888_001, data[0].points + 1e-5)
        assert cache.get(("k",), engine) is None  # buffered write already kills it
        assert metrics.value("serve.cache.invalidations") == 1

    def test_cache_disabled_by_zero_budget(self):
        data = beijing_like(30, seed=47)
        cfg = make_config(result_cache_bytes=0)
        layer = ServingLayer(DITAEngine(data, cfg), config=cfg)
        q = Trajectory(-1, data[0].points + 1e-6)
        o1, o2 = layer.run(
            [self._search_req(0, q, 0.0), self._search_req(1, q, 1.0)]
        )
        assert not o1.cached and not o2.cached


# --------------------------------------------------------------------- #
# admission, fairness, components
# --------------------------------------------------------------------- #


class TestAdmission:
    def test_token_bucket_refills_on_simulated_clock(self):
        b = TokenBucket(rate=2.0, burst=2.0)
        assert b.try_take(0.0) and b.try_take(0.0)
        assert not b.try_take(0.0)
        assert b.try_take(0.5)  # 0.5s * 2/s = 1 token
        assert not b.try_take(0.5)

    def test_rate_limited_error(self):
        cfg = make_config(tenant_rate=1.0, tenant_burst=1.0)
        ac = AdmissionController(cfg)
        ac.admit("a", 0.0)
        with pytest.raises(RateLimitedError):
            ac.admit("a", 0.0)
        ac.admit("b", 0.0)  # independent bucket

    def test_queue_depth_shedding(self):
        cfg = make_config(tenant_rate=1000.0, tenant_burst=100.0, serving_queue_depth=2)
        ac = AdmissionController(cfg)
        ac.admit("a", 0.0)
        ac.admit("a", 0.0)
        with pytest.raises(QueueFullError) as exc:
            ac.admit("a", 0.0)
        assert exc.value.which == "tenant queue"

    def test_global_inflight_ceiling(self):
        cfg = make_config(
            tenant_rate=1000.0, tenant_burst=100.0, max_inflight=2, serving_queue_depth=10
        )
        ac = AdmissionController(cfg)
        ac.admit("a", 0.0)
        ac.admit("b", 0.0)
        with pytest.raises(QueueFullError) as exc:
            ac.admit("c", 0.0)
        assert exc.value.which == "max_inflight"
        ac.note_dispatch("a")
        ac.release("a")
        ac.admit("c", 0.0)

    def test_shed_outcomes_are_typed(self):
        data = beijing_like(30, seed=53)
        cfg = make_config(tenant_rate=1.0, tenant_burst=1.0)
        layer = ServingLayer(DITAEngine(data, cfg), config=cfg)
        q = Trajectory(-1, data[0].points + 1e-6)
        reqs = [
            Request(req_id=i, tenant="t0", kind="search",
                    payload={"query": q, "tau": 0.002}, arrival=0.0)
            for i in range(3)
        ]
        outcomes = layer.run(reqs)
        statuses = [o.status for o in outcomes]
        assert statuses.count("shed") == 2
        shed = [o for o in outcomes if o.status == "shed"]
        assert all("RateLimitedError" in o.error for o in shed)
        assert int(layer.metrics.value("serve.shed")) == 2


class TestFairQueue:
    def test_weighted_share(self):
        q = FairQueue()
        q.set_weight("heavy", 4.0)
        q.set_weight("light", 1.0)
        for i in range(8):
            q.push("heavy", f"h{i}", 1.0)
        for i in range(2):
            q.push("light", f"l{i}", 1.0)
        order = [q.pop()[0] for _ in range(10)]
        # within the first 5 pops, light (weight 1, 2 items) must not be
        # fully starved by heavy's backlog
        assert "light" in order[:5]
        # heavy's 4x weight gives it ~4 of the first 5 slots
        assert order[:5].count("heavy") >= 3

    def test_deterministic_ties(self):
        a, b = FairQueue(), FairQueue()
        for q in (a, b):
            q.push("x", 1, 1.0)
            q.push("y", 2, 1.0)
            q.push("x", 3, 1.0)
        assert [a.pop() for _ in range(3)] == [b.pop() for _ in range(3)]


class TestLatencyHistogram:
    def test_percentiles_exact(self):
        h = LatencyHistogram()
        for v in [5.0, 1.0, 2.0, 4.0, 3.0]:
            h.record(v)
        assert h.percentile(50) == 3.0
        assert h.percentile(99) == 5.0
        assert h.percentile(0) == 1.0
        assert h.count == 5

    def test_empty(self):
        h = LatencyHistogram()
        assert h.percentile(99) == 0.0
        assert h.summary()["count"] == 0

    def test_summary_idempotent_to_the_ulp(self):
        # percentile() sorts the sample list in place; the mean must not
        # change (even in the last ULP) because the addition order did
        h = LatencyHistogram()
        for v in [0.051, 1.982, 0.013, 0.7, 0.01200000000000005]:
            h.record(v)
        first = h.summary()
        assert h.summary() == first
        assert h.summary() == first


# --------------------------------------------------------------------- #
# scheduling, determinism, throughput
# --------------------------------------------------------------------- #


class TestServingBehaviour:
    def test_deterministic_summaries(self):
        data = beijing_like(50, seed=59)
        cfg = make_config()

        def run_once():
            engine = DITAEngine(data, cfg)
            layer = ServingLayer(engine, config=cfg)
            reqs = build_workload(data, seed=7, n_per_tenant=6)
            layer.run(reqs)
            return json.dumps(layer.summary(), sort_keys=True)

        assert run_once() == run_once()

    @pytest.mark.parametrize(
        "mix",
        [
            (("search", 0.8), ("knn", 0.2)),
            (("search", 0.65), ("knn", 0.20), ("append", 0.10), ("remove", 0.05)),
        ],
        ids=["reads", "writes"],
    )
    def test_concurrency_beats_serial(self, mix):
        data = beijing_like(60, seed=61)
        cfg = make_config()
        tenants = [f"t{i}" for i in range(8)]

        def makespan(serial):
            engine = DITAEngine(data, cfg)
            layer = ServingLayer(engine, config=cfg, serial=serial)
            # every request offered at once: the makespan is throughput-bound
            layer.run(open_loop(data, tenants, 5, rate_per_tenant=1e9, seed=3, mix=mix))
            return layer.scheduler.makespan

        speedup = makespan(True) / makespan(False)
        assert speedup >= 2.0, f"speedup {speedup:.2f} < 2x over serial admission"

    def test_overload_sheds_with_typed_errors(self):
        """Offered at 4x a serial server's capacity, admission control
        sheds, and every shed outcome names the admission error it got."""
        data = beijing_like(60, seed=79)
        tenants = [f"t{i}" for i in range(8)]
        mix = (("search", 0.8), ("knn", 0.2))
        unlimited = make_config(tenant_rate=1e9, tenant_burst=1e9, serving_queue_depth=10_000)
        probe = ServingLayer(DITAEngine(data, unlimited), config=unlimited, serial=True)
        served = probe.run(open_loop(data, ["probe"], 8, rate_per_tenant=1e9, seed=5, mix=mix))
        capacity = sum(o.status == "ok" for o in served) / probe.scheduler.makespan
        cfg = make_config(tenant_rate=2.0 * capacity / len(tenants), tenant_burst=4.0)
        layer = ServingLayer(DITAEngine(data, cfg), config=cfg)
        rate = 4.0 * capacity / len(tenants)
        outcomes = layer.run(open_loop(data, tenants, 12, rate_per_tenant=rate, seed=5, mix=mix))
        shed = [o for o in outcomes if o.status == "shed"]
        assert shed, "4x overload shed nothing: admission control never engaged"
        assert {o.error.split(":")[0] for o in shed} <= {"RateLimitedError", "QueueFullError"}
        assert int(layer.metrics.value("serve.shed")) == len(shed)

    def test_duplicate_searches_come_from_the_cache(self):
        """With no mutation in between, the second copy of every search is
        answered from the result cache."""
        data = beijing_like(60, seed=83)
        cfg = make_config(tenant_rate=1e9, tenant_burst=1e9, serving_queue_depth=10_000)
        layer = ServingLayer(DITAEngine(data, cfg), config=cfg)
        firsts = open_loop(data, ["t0", "t1"], 10, rate_per_tenant=100.0, seed=19, mix=(("search", 1.0),))
        dupes = [
            Request(req_id=len(firsts) + i, tenant=r.tenant, kind=r.kind,
                    payload=r.payload, arrival=r.arrival + 1_000.0)
            for i, r in enumerate(firsts)
        ]
        outcomes = layer.run(firsts + dupes)
        assert [(o.status, o.cached) for o in outcomes[len(firsts):]] == [("ok", True)] * len(dupes)

    def test_cost_model_learns_per_partition(self):
        data = beijing_like(60, seed=67)
        cfg = make_config()
        engine = DITAEngine(data, cfg)
        layer = ServingLayer(engine, config=cfg)
        reqs = build_workload(data, seed=13, n_per_tenant=8)
        layer.run(reqs)
        model = layer.scheduler.model
        assert model._by_kind.get("search") is not None
        assert any(k[0] == "search" for k in model._by_kind_pid)

    def test_per_tenant_latency_recorded(self):
        data = beijing_like(40, seed=71)
        cfg = make_config()
        layer = ServingLayer(DITAEngine(data, cfg), config=cfg)
        reqs = build_workload(data, seed=3, n_per_tenant=4, tenants=2)
        layer.run(reqs)
        assert layer.latency.keys() == ["t0", "t1"]
        for t in layer.latency.keys():
            assert layer.latency.histogram(t).count == 4

    def test_charge_reaches_cluster_makespan(self):
        data = beijing_like(40, seed=73)
        cfg = make_config()
        engine = DITAEngine(data, cfg)
        layer = ServingLayer(engine, config=cfg)
        layer.run(build_workload(data, seed=3, n_per_tenant=3, tenants=2))
        rep = engine.cluster.report()
        assert rep.makespan > 0
        assert float(layer.metrics.value("serve.scheduler.charged_s")) > 0
