"""Cost-based placement and weighted fair queuing.

The scheduler prices every admitted request with the same feedback loop
EXPLAIN ANALYZE exposes (PR 5): a query starts in an *estimated-cost
bin* derived from its kind and the partitions it will touch, and every
completed execution refines the estimates with the observed
per-partition span costs (EWMA).  Placement is earliest-availability
over the cluster's workers on the serving layer's simulated clock, and
each completed request's simulated cost is charged to its worker via
:meth:`~repro.cluster.simulator.Cluster.charge_query`, so the serving
makespan (max worker clock) reflects placement quality — the accounting
identity the bench gates on.

Cross-tenant ordering is weighted fair queuing: each tenant accrues
virtual time proportional to its served cost over its weight, and the
backlog pops the smallest virtual finish tag, so a tenant flooding the
queue cannot starve the others beyond its weight share.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..cluster.simulator import Cluster
from ..obs import MetricsRegistry


class CostModel:
    """EWMA cost estimates: per request kind, refined per partition.

    ``estimate(kind, pids)`` sums per-partition estimates where observed
    history exists and falls back to the kind-level average (or the
    bootstrap default) elsewhere — the "estimated-cost bins refined by
    observed per-partition costs" loop.
    """

    #: bootstrap estimate for a kind never observed (simulated seconds)
    DEFAULT_COST = 1e-3
    #: EWMA weight of the newest observation
    ALPHA = 0.3

    def __init__(self) -> None:
        self._by_kind: Dict[str, float] = {}
        self._by_kind_pid: Dict[Tuple[str, int], float] = {}

    def _ewma(self, old: Optional[float], new: float) -> float:
        if old is None:
            return new
        return (1 - self.ALPHA) * old + self.ALPHA * new

    def observe_total(self, kind: str, cost_s: float) -> None:
        self._by_kind[kind] = self._ewma(self._by_kind.get(kind), float(cost_s))

    def observe_partition(self, kind: str, pid: int, cost_s: float) -> None:
        key = (kind, pid)
        self._by_kind_pid[key] = self._ewma(self._by_kind_pid.get(key), float(cost_s))

    def estimate(self, kind: str, pids: Optional[Iterable[int]] = None) -> float:
        """Estimated simulated cost of one ``kind`` request over ``pids``."""
        base = self._by_kind.get(kind, self.DEFAULT_COST)
        if pids is None:
            return base
        pids = list(pids)
        if not pids:
            return base
        known = [self._by_kind_pid.get((kind, pid)) for pid in pids]
        observed = [c for c in known if c is not None]
        if not observed:
            return base
        # unobserved partitions are priced at the mean observed one
        fill = sum(observed) / len(observed)
        return sum(c if c is not None else fill for c in known)


class CostScheduler:
    """Earliest-availability placement over the cluster's workers.

    ``worker_free[w]`` is worker ``w``'s clock on the *serving* timeline
    (independent of the engine-internal per-query task clocks).  A
    ``serial=True`` scheduler models the no-concurrency baseline: every
    request lands on worker 0 — the denominator of the bench's speedup
    gate.
    """

    def __init__(
        self,
        cluster: Cluster,
        metrics: MetricsRegistry,
        serial: bool = False,
    ) -> None:
        self.cluster = cluster
        self.metrics = metrics
        self.model = CostModel()
        self.serial = serial
        self.n_slots = 1 if serial else cluster.n_workers
        self.worker_free: List[float] = [0.0] * self.n_slots

    def idle_workers(self, now: float) -> List[int]:
        return [w for w, free in enumerate(self.worker_free) if free <= now]

    def place(self, now: float) -> Tuple[int, float]:
        """``(worker, start_time)`` for the next dispatch: the earliest-
        available worker, ties to the lowest id."""
        wid = min(range(self.n_slots), key=lambda w: (self.worker_free[w], w))
        return wid, max(now, self.worker_free[wid])

    def commit(
        self,
        wid: int,
        start: float,
        cost_s: float,
        kind: str,
        tenant: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> float:
        """Account a dispatched request: advance the worker's serving
        clock, charge the simulated cluster (makespan accounting), and
        write the scheduler metrics (a charge must always reach a
        metrics write).  Returns the completion time."""
        end = start + cost_s
        self.worker_free[wid] = end
        a = {"tenant": tenant, "kind": kind}
        if args:
            a.update(args)
        self.cluster.charge_query(wid % self.cluster.n_workers, cost_s, tag=f"serve.{kind}", args=a)
        self.metrics.counter("serve.scheduler.charged_s", cost_s)
        self.metrics.counter(f"serve.scheduler.{kind}.requests")
        self.metrics.observe("serve.scheduler.request_cost_s", cost_s)
        return end

    @property
    def makespan(self) -> float:
        return max(self.worker_free) if self.worker_free else 0.0

    def observe_spans(self, kind: str, spans) -> None:
        """Refine per-partition estimates from one request's spans (the
        ``search.partition``-style task spans carry their partition in
        ``args``)."""
        for span in spans:
            pid = span.args.get("partition") if span.args else None
            if pid is None:
                continue
            self.model.observe_partition(kind, int(pid), span.seconds)


class FairQueue:
    """Weighted fair queuing across tenants (virtual-finish-time WFQ).

    Each pushed item carries a size (its estimated cost); a tenant's next
    item finishes at ``max(V, last_finish[tenant]) + size / weight``
    where ``V`` is the queue's virtual time (the finish tag of the last
    popped item).  Ties break on push sequence, so the order is total
    and deterministic.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, str, Any]] = []
        self._last_finish: Dict[str, float] = {}
        self._virtual = 0.0
        self._seq = 0
        self.weights: Dict[str, float] = {}

    def set_weight(self, tenant: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.weights[tenant] = weight

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, tenant: str, item: Any, size: float) -> None:
        weight = self.weights.get(tenant, 1.0)
        start = max(self._virtual, self._last_finish.get(tenant, 0.0))
        finish = start + max(size, 1e-12) / weight
        self._last_finish[tenant] = finish
        heapq.heappush(self._heap, (finish, self._seq, tenant, item))
        self._seq += 1

    def pop(self) -> Tuple[str, Any]:
        finish, _, tenant, item = heapq.heappop(self._heap)
        self._virtual = max(self._virtual, finish)
        return tenant, item
