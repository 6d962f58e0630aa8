"""The multi-tenant serving layer: a deterministic concurrent front end.

:class:`ServingLayer` admits a stream of mixed requests — threshold
search, kNN, join, SQL, and the five mutation kinds — from many
simulated tenants, and executes them with:

* **admission control** (:mod:`repro.serving.admission`): per-tenant
  token buckets + queue-depth shedding, typed errors;
* **weighted fair queuing** across tenants;
* **cost-based scheduling** (:mod:`repro.serving.scheduler`): requests
  are priced by the EXPLAIN ANALYZE feedback loop and placed on the
  earliest-available worker; completed costs are charged back to the
  cluster (``charge_query``) so the serving makespan is an honest
  simulated quantity;
* **mutation-safe caching** (:mod:`repro.serving.cache`): results and
  partition candidates keyed on the engine's generation counter.

Determinism contract: the whole loop runs on simulated time (arrival
stamps in, completion stamps out — no host clock anywhere), requests
execute atomically in dispatch order, and a serial replay of the same
dispatch order against a twin engine produces byte-identical results
and stats (``tests/test_serving.py`` pins this).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import DITAConfig
from ..core.engine import DITAEngine
from ..core.knn import knn_search
from ..obs import LatencyRecorder, MetricsRegistry
from ..trajectory.trajectory import Trajectory
from .admission import AdmissionController, AdmissionError
from .cache import CandidateCache, ResultCache, snapshot_footprint
from .scheduler import CostScheduler, FairQueue

#: request kinds that mutate the engine (never cached, always invalidating)
MUTATION_KINDS = ("append", "extend", "remove", "merge", "repartition")
#: request kinds that read
QUERY_KINDS = ("search", "knn", "join", "sql")


@dataclass(frozen=True)
class Request:
    """One tenant request.  ``payload`` by kind:

    * ``search``: ``query`` (Trajectory), ``tau`` (float)
    * ``knn``: ``query`` (Trajectory), ``k`` (int)
    * ``join``: ``tau`` (float) — a self-join of the serving engine
    * ``sql``: ``text`` (str), optional ``params`` (dict)
    * ``append``: ``traj_id``, ``points``; ``extend``: ``traj_id``,
      ``points``; ``remove``: ``traj_id``; ``merge``/``repartition``: none
    """

    req_id: int
    tenant: str
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    arrival: float = 0.0


@dataclass
class Outcome:
    """What happened to one request."""

    request: Request
    status: str  # "ok" | "shed" | "error"
    result: Any = None
    #: a search's or join's counters as ``MetricsRegistry.snapshot()``
    stats: Any = None
    start: float = 0.0
    finish: float = 0.0
    worker: int = -1
    cached: bool = False
    error: Optional[str] = None
    #: position in the serving layer's dispatch order — the order request
    #: bodies actually executed, which a serial replay must follow to
    #: reproduce results byte-identically
    dispatch_seq: int = -1

    @property
    def latency(self) -> float:
        return self.finish - self.request.arrival


def canonical_result(kind: str, value: Any) -> Any:
    """A hashable, comparison-stable form of a query answer.

    Trajectories reduce to their ids, floats to their reprs — two
    executions agree on this form iff they agreed bit-for-bit on the
    (id, distance) level, which is the byte-identity the interleaving
    harness asserts.
    """
    if kind == "search" or kind == "knn":
        return tuple((t.traj_id, repr(d)) for t, d in value)
    if kind == "join":
        return tuple((a, b, repr(d)) for a, b, d in value)
    if kind == "sql":
        return tuple(_canon_row(row) for row in value)
    return value


def _canon_row(row: Any) -> Any:
    if isinstance(row, dict):
        return tuple((k, _canon_cell(row[k])) for k in sorted(row))
    return _canon_cell(row)


def _canon_cell(v: Any) -> Any:
    if isinstance(v, Trajectory):
        return ("traj", v.traj_id)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return tuple(_canon_cell(x) for x in v)
    return v


def _result_nbytes(value: Any) -> int:
    """Rough byte estimate of a canonical result (LRU accounting)."""

    def size(v: Any) -> int:
        if isinstance(v, (tuple, list)):
            return 24 + sum(size(x) for x in v)
        if isinstance(v, str):
            return 48 + len(v)
        return 32

    return size(value)


class ServingLayer:
    """Deterministic multi-tenant serving over one engine (+ session).

    Parameters
    ----------
    engine:
        The engine answering ``search``/``knn``/``join`` requests and
        receiving the mutation kinds.
    session:
        Optional :class:`~repro.sql.session.DITASession` for ``sql``
        requests; each tenant gets a :meth:`for_tenant` clone over the
        shared catalog the first time it issues SQL.
    serial:
        Model the no-concurrency baseline: one serving slot, FIFO-ish
        (WFQ over one worker), no throughput from overlap: the speedup
        denominator.
    """

    #: simulated cost of serving a cached answer
    CACHE_HIT_COST_S = 1e-5
    #: simulated cost floor for any dispatched request
    MIN_COST_S = 1e-6

    def __init__(
        self,
        engine: DITAEngine,
        session=None,
        config: Optional[DITAConfig] = None,
        serial: bool = False,
    ) -> None:
        self.engine = engine
        self.session = session
        self.config = config or engine.config
        engine.enable_tracing()
        self.metrics = MetricsRegistry()
        self.latency = LatencyRecorder()
        self.admission = AdmissionController(self.config)
        self.scheduler = CostScheduler(engine.cluster, self.metrics, serial=serial)
        self.queue = FairQueue()
        self.result_cache = ResultCache(self.config.result_cache_bytes, self.metrics)
        self.candidate_cache = CandidateCache(self.metrics)
        self._tenant_sessions: Dict[str, Any] = {}
        self.outcomes: List[Outcome] = []
        self._clock = 0.0

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #

    def set_tenant_weight(self, tenant: str, weight: float) -> None:
        self.queue.set_weight(tenant, weight)

    def run(self, requests: List[Request]) -> List[Outcome]:
        """Serve ``requests``, each arriving at its fixed ``arrival``
        time.  Returns outcomes in request order."""
        events: List[Tuple[float, int, int, Any]] = []
        for r in sorted(requests, key=lambda r: (r.arrival, r.req_id)):
            heapq.heappush(events, (r.arrival, 1, r.req_id, r))
        return self._loop(events)

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #

    def _loop(self, events) -> List[Outcome]:
        """Discrete-event simulation.  Event tuples are
        ``(time, kind, seq, payload)`` with kind 0 = completion, 1 =
        arrival — completions at time t free their worker before
        arrivals at t are admitted (the conventional DES ordering)."""
        outcomes: List[Outcome] = []
        seq = 0
        while events:
            now, ekind, _, payload = heapq.heappop(events)
            self._clock = max(self._clock, now)
            if ekind == 0:
                outcome = payload
                self.admission.release(outcome.request.tenant)
                self.latency.record(outcome.request.tenant, outcome.latency)
                self.metrics.counter("serve.completed")
                outcomes.append(outcome)
            else:
                req = payload
                try:
                    self.admission.admit(req.tenant, now)
                except AdmissionError as exc:
                    self.metrics.counter("serve.shed")
                    self.metrics.counter(f"serve.shed.{exc.reason.split(' ')[0]}")
                    out = Outcome(
                        request=req, status="shed", start=now, finish=now,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    outcomes.append(out)
                    continue
                self.metrics.counter("serve.admitted")
                self.queue.push(req.tenant, req, self._estimate(req))
            # dispatch everything an idle worker can take at `now`
            while len(self.queue) and self.scheduler.idle_workers(now):
                tenant, req = self.queue.pop()
                self.admission.note_dispatch(tenant)
                outcome = self._dispatch(req, now)
                outcome.dispatch_seq = seq
                seq += 1
                heapq.heappush(events, (outcome.finish, 0, seq, outcome))
        self.outcomes.extend(outcomes)
        outcomes.sort(key=lambda o: o.request.req_id)
        return outcomes

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def _dispatch(self, req: Request, now: float) -> Outcome:
        wid, start = self.scheduler.place(now)
        try:
            value, stats, cost, cached = self._execute(req)
            status, error = "ok", None
        except Exception as exc:  # typed query errors become error outcomes
            value, stats, cached = None, None, False
            cost = self.MIN_COST_S
            status, error = "error", f"{type(exc).__name__}: {exc}"
            self.metrics.counter("serve.errors")
        finish = self.scheduler.commit(
            wid, start, cost, req.kind, req.tenant, args={"req": req.req_id}
        )
        return Outcome(
            request=req, status=status, result=value, stats=stats,
            start=start, finish=finish, worker=wid, cached=cached, error=error,
        )

    def _execute(self, req: Request) -> Tuple[Any, Any, float, bool]:
        """Run one request against the engine; returns
        ``(canonical value, stats, simulated cost, cache hit?)``."""
        if req.kind in MUTATION_KINDS:
            return self._execute_mutation(req)
        if req.kind not in QUERY_KINDS:
            raise ValueError(f"unknown request kind {req.kind!r}")
        engine = self.engine
        gen = engine.sync_for_read()
        key, current_pids = self._cache_key(req)
        if key is not None:
            hit = self.result_cache.get(key, engine, current_pids)
            if hit is not None:
                value, stats = hit
                return value, stats, self.CACHE_HIT_COST_S, True
        cost0 = self._cluster_cost()
        span0 = len(engine.tracer.spans) if engine.tracer is not None else 0
        value, stats = self._run_query(req)
        cost = max(self._cluster_cost() - cost0, self.MIN_COST_S)
        spans = engine.tracer.spans[span0:] if engine.tracer is not None else []
        task_spans = [s for s in spans if s.cat == "task"]
        self.scheduler.observe_spans(req.kind, task_spans)
        self.scheduler.model.observe_total(req.kind, cost)
        if key is None:
            return value, stats, cost, False
        if req.kind == "search":
            per_pid: Dict[int, float] = {}
            for s in task_spans:
                pid = s.args.get("partition") if s.args else None
                if pid is not None:
                    per_pid[int(pid)] = per_pid.get(int(pid), 0.0) + s.seconds
            self.candidate_cache.put(key, engine, sorted(per_pid.items()))
        footprint = snapshot_footprint(
            engine, current_pids if current_pids is not None else None
        )
        assert engine.generation == gen, "query must not mutate the engine"
        self.result_cache.put(key, value, stats, footprint, _result_nbytes(value))
        return value, stats, cost, False

    def _run_query(self, req: Request) -> Tuple[Any, Any]:
        """``(canonical value, stats)``: a search's or join's stats are the
        :meth:`~repro.obs.MetricsRegistry.snapshot` of the counters the
        call added to the engine's registry."""
        engine = self.engine
        p = req.payload
        stats = MetricsRegistry()
        if req.kind == "search":
            matches = engine.search(p["query"], p["tau"], stats=stats)
            return canonical_result("search", matches), stats.snapshot()
        if req.kind == "knn":
            result = knn_search(engine, p["query"], p["k"])
            return canonical_result("knn", result), None
        if req.kind == "join":
            pairs = engine.join(p.get("other", engine), p["tau"], stats=stats)
            return canonical_result("join", pairs), stats.snapshot()
        # sql
        session = self._session_for(req.tenant)
        rows = session.sql(p["text"], params=p.get("params"))
        return canonical_result("sql", rows), None

    def _execute_mutation(self, req: Request) -> Tuple[Any, Any, float, bool]:
        engine = self.engine
        p = req.payload
        cost0 = self._cluster_cost()
        if req.kind == "append":
            value = engine.append_trajectory(p["traj_id"], p["points"])
        elif req.kind == "extend":
            engine.extend_trajectory(p["traj_id"], p["points"])
            value = True
        elif req.kind == "remove":
            value = engine.remove_trajectory(p["traj_id"])
        elif req.kind == "merge":
            value = engine.merge() if engine.generations is not None else engine.flush_deltas()
        else:  # repartition
            value = engine.repartition()
        self.metrics.counter(f"serve.mutations.{req.kind}")
        cost = max(self._cluster_cost() - cost0, self.MIN_COST_S)
        return value, None, cost, False

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _estimate(self, req: Request) -> float:
        """The request's estimated-cost bin for WFQ sizing: the candidate
        cache's observed per-partition costs when this exact query ran
        before (and its partitions haven't mutated), else the cost
        model's kind/partition estimate."""
        if req.kind == "search":
            key, pids = self._cache_key(req)
            if key is not None:
                cached = self.candidate_cache.get(key, self.engine)
                if cached is not None:
                    return max(sum(c for _, c in cached), self.MIN_COST_S)
            return self.scheduler.model.estimate("search", pids)
        return self.scheduler.model.estimate(req.kind)

    def _cluster_cost(self) -> float:
        rep = self.engine.cluster.report()
        return rep.total_compute_s + rep.total_network_s

    def _session_for(self, tenant: str):
        if self.session is None:
            raise ValueError("no SQL session attached to this serving layer")
        s = self._tenant_sessions.get(tenant)
        if s is None:
            s = self._tenant_sessions[tenant] = self.session.for_tenant(tenant)
        return s

    def _cache_key(self, req: Request) -> Tuple[tuple, Optional[List[int]]]:
        """``(key, current_pids)``: the canonical cache key and — for
        threshold search, whose footprint is partition-exact — the
        query's currently-relevant partitions (None means whole-dataset
        dependency)."""
        engine = self.engine
        p = req.payload
        if req.kind == "search":
            q = p["query"]
            pids = engine.global_index.relevant_partitions(q.points, p["tau"], engine.adapter)
            key = ("search", id(engine), q.points.tobytes(), repr(float(p["tau"])))
            return key, pids
        if req.kind == "knn":
            q = p["query"]
            return ("knn", id(engine), q.points.tobytes(), int(p["k"])), None
        if req.kind == "join":
            other = p.get("other", engine)
            return ("join", id(engine), id(other), repr(float(p["tau"]))), None
        # sql: canonical text + params (trajectories by content); only
        # side-effect-free statements are cacheable — DDL like CREATE
        # INDEX must re-execute every time (key None ⇒ never cached).
        # Footprint validity rides self.engine's counters, which is exact
        # when the catalog serves tables through this engine and merely
        # over-invalidating (never stale) for engines the catalog built
        # itself, since those are static within a serving run.
        text = p["text"]
        if not text.lstrip().upper().startswith(("SELECT", "EXPLAIN")):
            return None, None
        params = p.get("params") or {}
        canon_params = tuple(
            (k, _canon_param(params[k])) for k in sorted(params)
        )
        return ("sql", id(self.session), text, canon_params), None

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable run summary: throughput, makespan, shedding,
        cache effectiveness, per-tenant latency percentiles."""
        completed = int(self.metrics.value("serve.completed"))
        makespan = self.scheduler.makespan
        return {
            "completed": completed,
            "admitted": int(self.metrics.value("serve.admitted")),
            "shed": int(self.metrics.value("serve.shed")),
            "errors": int(self.metrics.value("serve.errors")),
            "makespan_s": repr(makespan),
            "throughput_rps": repr(completed / makespan if makespan > 0 else 0.0),
            "cache": self._cache_counts(ResultCache.PREFIX),
            "candidate_cache": self._cache_counts(CandidateCache.PREFIX),
            "tenants": self.latency.summary(),
        }

    def _cache_counts(self, prefix: str) -> Dict[str, int]:
        """One cache's five counts, read off the layer's registry."""
        return {
            name: int(self.metrics.value(f"{prefix}.{name}"))
            for name in ("hits", "misses", "invalidations", "evictions", "stored")
        }


def _canon_param(v: Any) -> Any:
    if isinstance(v, Trajectory):
        return ("traj", v.points.tobytes())
    if isinstance(v, float):
        return repr(v)
    return v
