"""A deterministic in-process cluster simulator (the Spark substitute).

DITA's distributed behaviour — which partitions a query touches, which
trajectories are shipped between partitions, how balanced the per-worker
workloads are — is entirely algorithmic; Spark merely executes it.  This
simulator executes the same plans in-process while accounting the costs a
real cluster would pay:

* every partition lives on one worker (round-robin placement by default);
* ``run_local(partition_id, fn, work)`` executes ``fn`` *for real* and
  charges its cost — by default ``work`` deterministic cost units, or real
  wall time when the cluster was built with
  ``measure=``:func:`~repro.cluster.clock.wall_clock_measure` — to the
  owning worker's simulated clock;
* ``ship(src, dst, nbytes)`` charges network transfer time to the sender
  and receiver workers using the :class:`NetworkModel`;
* the job's simulated makespan is the max worker clock — which is what
  scale-up/scale-out curves measure.

The default measure never reads the host clock, so two runs over the same
seed yield byte-identical reports (see ``tests/test_determinism.py``).

A worker is one executor slot: its tasks run one after another on its
compute clock (tasks are the unit of parallelism, as in Spark), and its
transfers on a separate network lane.

Fault tolerance (:mod:`repro.cluster.faults`): installing a
:class:`~repro.cluster.faults.FaultPlan` makes every task attempt and every
ship consult the plan.  Failed attempts charge their partial cost but never
execute the task body, so results are identical to the fault-free run;
crashed workers trigger lineage-based partition re-execution (re-placement
plus a registered rebuild closure run on a surviving worker); stragglers
get speculative task copies.  Everything is counted in a
:class:`~repro.cluster.faults.FaultReport` attached to the job's
:class:`ExecutionReport`.  Fault decisions are keyed by event index, not by
a stateful RNG, so same seed + same plan ⇒ byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .clock import TaskMeasure, unit_cost_measure
from .faults import (
    FaultPlan,
    FaultReport,
    FaultSession,
    PartitionLostError,
    RecoveryPolicy,
    TaskAbandonedError,
)
from .metrics import ExecutionReport
from .network import NetworkModel

if TYPE_CHECKING:  # deferred so untraced clusters never import repro.obs
    from ..obs.trace import Tracer


@dataclass
class Worker:
    """One simulated executor: a compute clock and a network lane."""

    worker_id: int
    #: accumulated compute time within the current job
    compute_s: float = 0.0
    network_s: float = 0.0
    #: False once the fault layer has crashed this worker (until reset)
    alive: bool = True
    #: task attempts started here — the fault layer's crash-point odometer
    tasks_started: int = 0

    def charge_compute(self, seconds: float) -> Tuple[float, float]:
        """Run a task after the worker's previous ones; returns its
        ``(start, end)`` on the compute clock (the tracer's span interval;
        other callers ignore it)."""
        start = self.compute_s
        self.compute_s += seconds
        return start, self.compute_s

    def charge_network(self, seconds: float) -> Tuple[float, float]:
        """Charge the network lane; returns its ``(start, end)`` interval."""
        start = self.network_s
        self.network_s += seconds
        return start, self.network_s

    @property
    def busy_time(self) -> float:
        return self.compute_s + self.network_s

    def reset(self) -> None:
        """Fresh-job state: clear both clocks *and* the fault-layer
        fields — back-to-back experiments on one cluster must not leak
        simulated time, crashes or crash-point progress from the previous
        job."""
        self.compute_s = 0.0
        self.network_s = 0.0
        self.alive = True
        self.tasks_started = 0


class Cluster:
    """A simulated cluster: workers, partition placement, cost accounting.

    Parameters
    ----------
    n_workers, network, measure:
        As before (see the module docstring).
    faults:
        Optional :class:`~repro.cluster.faults.FaultPlan` to install at
        construction; equivalent to calling :meth:`install_faults`.
    recovery:
        The :class:`~repro.cluster.faults.RecoveryPolicy` used when
        ``faults`` is given (defaults apply otherwise).
    """

    def __init__(
        self,
        n_workers: int,
        network: Optional[NetworkModel] = None,
        measure: Optional[TaskMeasure] = None,
        faults: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.workers = [Worker(i) for i in range(n_workers)]
        self.network = network or NetworkModel()
        #: how executed tasks are priced; deterministic unless the caller
        #: explicitly opts into wall-clock profiling
        self.measure: TaskMeasure = measure or unit_cost_measure
        self._placement: Dict[int, int] = {}
        #: placement as last set by the caller — recovery re-placements
        #: drift ``_placement`` away from it; ``reset_clocks`` restores it
        self._baseline_placement: Dict[int, int] = {}
        self._report = ExecutionReport()
        #: lineage rebuild closures: partition id -> (fn, work units)
        self._rebuilds: Dict[int, Tuple[Callable[[], Any], float]] = {}
        self._faults: Optional[FaultSession] = None
        #: real execution-backend failures noted since the last reset
        #: (process-pool crashes surfaced as typed ExecutorError)
        self._executor_failures = 0
        #: span tracer (None on an untraced cluster — the near-zero-cost
        #: gate every recording site checks first)
        self.tracer: "Optional[Tracer]" = None
        if faults is not None:
            self.install_faults(faults, recovery)

    # ------------------------------------------------------------------ #
    # tracing
    # ------------------------------------------------------------------ #

    def install_tracer(self, tracer: "Optional[Tracer]" = None) -> "Tracer":
        """Attach a span tracer; every subsequent charge records a span on
        the owning worker's simulated clock.  ``reset_clocks`` clears it
        with the clocks (spans are per-job, like the report)."""
        if tracer is None:
            from ..obs.trace import Tracer

            tracer = Tracer()
        self.tracer = tracer
        return tracer

    def _trace(
        self,
        name: str,
        cat: str,
        worker_id: int,
        interval: Tuple[float, float],
        seconds: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one charge: ``interval`` is the ``(start, end)`` a
        worker's compute clock or network lane returned for it."""
        t0, t1 = interval
        self.tracer.record(
            name, cat, worker_id, t0, t1, seconds=seconds, args=dict(args) if args else {}
        )

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #

    @property
    def faults(self) -> Optional[FaultSession]:
        """The installed fault session, or None on a healthy cluster."""
        return self._faults

    def install_faults(
        self, plan: FaultPlan, policy: Optional[RecoveryPolicy] = None
    ) -> FaultSession:
        """Attach a seeded fault plan to this cluster.  Subsequent tasks
        and ships consult it; ``reset_clocks`` rewinds it with the clocks
        so every job replays the same fault sequence."""
        self._faults = FaultSession(
            plan=plan,
            policy=policy or RecoveryPolicy(),
            n_workers=self.n_workers,
        )
        return self._faults

    def clear_faults(self) -> None:
        """Detach the fault session and revive every worker."""
        self._faults = None
        for w in self.workers:
            w.alive = True

    def note_executor_failure(self) -> None:
        """Record a *real* execution-backend failure (a process-pool
        worker crash or unpicklable result, surfaced to the caller as a
        typed :class:`~repro.cluster.parallel.ExecutorError`) so it shows
        up in the job's fault accounting alongside the simulated faults."""
        self._executor_failures += 1

    def fault_report(self) -> Optional[FaultReport]:
        """Snapshot of the fault accounting: the session's report (when a
        plan is installed) plus any real executor failures; None when
        neither has anything to say."""
        rep = self._faults.report.copy() if self._faults else None
        if self._executor_failures:
            if rep is None:
                rep = FaultReport()
            rep.executor_failures = self._executor_failures
        return rep

    def register_rebuild(
        self, partition_id: int, fn: Callable[[], Any], work: float = 1.0
    ) -> None:
        """Register the lineage closure re-creating ``partition_id``'s
        state (e.g. its local index build).  When the partition's worker
        crashes, the closure runs *for real* on the surviving worker that
        inherits the partition and its cost is charged there."""
        self._rebuilds[partition_id] = (fn, float(work))

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def place_partitions(self, partition_ids: List[int]) -> None:
        """Round-robin placement, Spark's default for freshly built RDDs."""
        for i, pid in enumerate(partition_ids):
            self._placement[pid] = i % self.n_workers
            self._baseline_placement[pid] = i % self.n_workers

    def place_partition(self, partition_id: int, worker_id: int) -> None:
        if not 0 <= worker_id < self.n_workers:
            raise ValueError(f"no worker {worker_id}")
        self._placement[partition_id] = worker_id
        self._baseline_placement[partition_id] = worker_id

    def worker_of(self, partition_id: int) -> int:
        try:
            return self._placement[partition_id]
        except KeyError:
            raise KeyError(f"partition {partition_id} is not placed") from None

    # ------------------------------------------------------------------ #
    # fault-layer internals
    # ------------------------------------------------------------------ #

    def _worker_alive(self, worker_id: int) -> bool:
        """Liveness check; lazily marks a worker crashed once its planned
        crash point is reached (counting the crash exactly once)."""
        w = self.workers[worker_id]
        if not w.alive:
            return False
        session = self._faults
        if session is not None and session.crashes_at(worker_id, w.tasks_started):
            w.alive = False
            session.report.worker_crashes += 1
            return False
        return True

    def _next_alive(self, worker_id: int) -> int:
        """The first surviving worker scanning upward from ``worker_id``
        (deterministic); raises :class:`PartitionLostError` if none."""
        for k in range(1, self.n_workers + 1):
            cand = (worker_id + k) % self.n_workers
            if self._worker_alive(cand):
                return cand
        raise PartitionLostError("no surviving worker to host the partition")

    def _recover_partition(self, partition_id: int) -> int:
        """Lineage-based re-execution: re-place the partition on a
        surviving worker and re-run its registered rebuild closure there,
        charging the rebuild cost to the new home."""
        session = self._faults
        assert session is not None
        new_wid = self._next_alive(self._placement[partition_id])
        self._placement[partition_id] = new_wid
        session.report.recovered_partitions += 1
        rebuild = self._rebuilds.get(partition_id)
        if rebuild is not None:
            fn, work = rebuild
            _, cost = self.measure(fn, work)
            interval = self.workers[new_wid].charge_compute(cost)
            session.report.rebuild_compute_s += cost
            if self.tracer is not None:
                self._trace(
                    "recover.rebuild", "fault", new_wid, interval, cost,
                    {"partition": partition_id},
                )
        return new_wid

    def _price_work(self, work: float) -> float:
        """The measure's price for ``work`` units without running a body —
        the nominal cost a failed attempt's partial charge scales from."""
        _, cost = self.measure(lambda: None, work)
        return cost

    def _speculation_target(self, avoid: int) -> Optional[int]:
        """The healthiest (lowest slowdown factor), least busy surviving
        worker other than ``avoid``; ties break on worker id."""
        session = self._faults
        assert session is not None
        best: Optional[int] = None
        best_key: Optional[Tuple[float, float, int]] = None
        for w in self.workers:
            if w.worker_id == avoid or not self._worker_alive(w.worker_id):
                continue
            key = (session.factor(w.worker_id), w.busy_time, w.worker_id)
            if best_key is None or key < best_key:
                best, best_key = w.worker_id, key
        return best

    def _run_task(
        self,
        fn: Callable[[], Any],
        work: float,
        partition_id: Optional[int] = None,
        worker_id: Optional[int] = None,
        tag: Optional[str] = None,
    ) -> Any:
        """Fault-aware task execution: retry with exponential backoff on
        transient failures, recover crashed homes, speculate stragglers.
        The task body runs exactly once, on the successful attempt."""
        session = self._faults
        assert session is not None
        policy = session.policy
        seq = session.next_task_seq()
        nominal = self._price_work(work)
        attempt = 0
        while True:
            if partition_id is not None:
                wid = self.worker_of(partition_id)
                if not self._worker_alive(wid):
                    wid = self._recover_partition(partition_id)
            else:
                wid = worker_id  # type: ignore[assignment]
                if not self._worker_alive(wid):
                    wid = self._next_alive(wid)
                    session.report.rerouted_tasks += 1
            w = self.workers[wid]
            w.tasks_started += 1
            factor = session.factor(wid)
            if session.plan.task_fails(seq, attempt):
                session.report.task_failures += 1
                wasted = session.plan.failure_progress(seq, attempt) * nominal * factor
                interval = w.charge_compute(wasted)
                session.report.wasted_compute_s += wasted
                if self.tracer is not None:
                    self._trace(
                        "task.failed", "fault", wid, interval, wasted,
                        {"seq": seq, "attempt": attempt},
                    )
                if attempt >= policy.max_retries:
                    session.report.abandoned_tasks += 1
                    raise TaskAbandonedError(f"task {seq}", attempt + 1)
                backoff = policy.backoff_s(attempt)
                interval = w.charge_compute(backoff)
                session.report.backoff_wait_s += backoff
                if self.tracer is not None:
                    self._trace(
                        "task.backoff", "fault", wid, interval, backoff,
                        {"seq": seq, "attempt": attempt},
                    )
                session.report.task_retries += 1
                attempt += 1
                continue
            result, elapsed = self.measure(fn, work)
            slowed = elapsed * factor
            charged = slowed
            if session.should_speculate(factor):
                target = self._speculation_target(wid)
                if target is not None:
                    # both copies run until the faster finishes, then the
                    # loser is killed: each worker is busy for the winning
                    # attempt's duration
                    t_cost = elapsed * session.factor(target)
                    charged = min(slowed, t_cost)
                    interval = self.workers[target].charge_compute(charged)
                    session.report.speculative_tasks += 1
                    session.report.speculative_compute_s += charged
                    if t_cost < slowed:
                        session.report.speculative_wins += 1
                    if self.tracer is not None:
                        self._trace(
                            "task.speculative", "fault", target, interval, charged,
                            {"seq": seq, "home": wid},
                        )
            interval = w.charge_compute(charged)
            if charged > elapsed:
                session.report.straggler_excess_s += charged - elapsed
            self._report.total_compute_s += elapsed
            self._report.tasks += 1
            if self.tracer is not None:
                args: Dict[str, Any] = {"seq": seq, "work": work}
                if partition_id is not None:
                    args["partition"] = partition_id
                self._trace(tag or "task", "task", wid, interval, charged, args)
            return result

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run_local(
        self,
        partition_id: int,
        fn: Callable[[], Any],
        work: float = 1.0,
        tag: Optional[str] = None,
    ) -> Any:
        """Execute ``fn`` on the partition's worker and charge its cost (as
        priced by the cluster's measure hook) to that worker's clock.
        ``tag`` names the traced span (default ``"task"``)."""
        if self._faults is not None:
            return self._run_task(fn, work, partition_id=partition_id, tag=tag)
        wid = self.worker_of(partition_id)
        result, elapsed = self.measure(fn, work)
        interval = self.workers[wid].charge_compute(elapsed)
        self._report.total_compute_s += elapsed
        self._report.tasks += 1
        if self.tracer is not None:
            self._trace(
                tag or "task", "task", wid, interval, elapsed,
                {"partition": partition_id, "work": work},
            )
        return result

    def run_on_worker(
        self,
        worker_id: int,
        fn: Callable[[], Any],
        work: float = 1.0,
        tag: Optional[str] = None,
    ) -> Any:
        """Execute ``fn`` on a specific worker (used when load balancing
        routes a task away from its partition's home) and charge its cost."""
        if not 0 <= worker_id < self.n_workers:
            raise ValueError(f"no worker {worker_id}")
        if self._faults is not None:
            return self._run_task(fn, work, worker_id=worker_id, tag=tag)
        result, elapsed = self.measure(fn, work)
        interval = self.workers[worker_id].charge_compute(elapsed)
        self._report.total_compute_s += elapsed
        self._report.tasks += 1
        if self.tracer is not None:
            self._trace(
                tag or "task", "task", worker_id, interval, elapsed, {"work": work}
            )
        return result

    def charge_compute(
        self, partition_id: int, seconds: float, tag: Optional[str] = None
    ) -> None:
        """Charge pre-measured compute time to a partition's worker.

        Pre-measured charges bypass fault injection (they model already-
        completed work); use :meth:`run_local` for fault-tolerant tasks."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        wid = self.worker_of(partition_id)
        interval = self.workers[wid].charge_compute(seconds)
        self._report.total_compute_s += seconds
        self._report.tasks += 1
        if self.tracer is not None:
            self._trace(
                tag or "task", "task", wid, interval, seconds,
                {"partition": partition_id},
            )

    def charge_query(
        self,
        worker_id: int,
        seconds: float,
        tag: str = "serve.query",
        args: Optional[Dict[str, Any]] = None,
    ) -> float:
        """Charge a *scheduled query* to a worker's simulated clock and
        return the charge's end time on that worker.

        This is the serving scheduler's accounting primitive
        (:mod:`repro.serving.scheduler`): the placement decision picked
        ``worker_id``, and the query's whole simulated cost lands there so
        the serving makespan (max worker clock) reflects the placement
        quality.  Like :meth:`charge_compute` it bypasses fault
        injection (the query machinery does its own retries), but it is a
        distinct, greppable site whose caller also writes the scheduler
        metrics, so scheduler decisions stay observable.
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        if not 0 <= worker_id < self.n_workers:
            raise ValueError(f"no worker {worker_id}")
        interval = self.workers[worker_id].charge_compute(seconds)
        self._report.total_compute_s += seconds
        self._report.tasks += 1
        if self.tracer is not None:
            self._trace(tag, "serve", worker_id, interval, seconds, args)
        return interval[1]

    def ship(self, src_partition: int, dst_partition: int, nbytes: int) -> float:
        """Account a data transfer between two partitions' workers.

        Under a fault plan, a crashed endpoint first triggers lineage
        recovery of its partition, and each delivery attempt may be
        dropped — the wasted transfer is charged to both endpoints and the
        message is re-sent after backoff, up to ``max_retries`` times.

        Returns the simulated time of the *successful* transfer (0 when
        co-located); drop/backoff costs appear in the fault report."""
        session = self._faults
        if session is None:
            src_w = self.worker_of(src_partition)
            dst_w = self.worker_of(dst_partition)
            if src_w == dst_w:
                return 0.0
            t = self.network.transfer_time(nbytes)
            send_iv = self.workers[src_w].charge_network(t)
            recv_iv = self.workers[dst_w].charge_network(t)
            self._report.total_network_s += t
            self._report.total_network_bytes += nbytes
            if self.tracer is not None:
                args = {"src": src_partition, "dst": dst_partition, "nbytes": nbytes}
                self._trace("ship.send", "net", src_w, send_iv, t, args)
                self._trace("ship.recv", "net", dst_w, recv_iv, t, args)
            return t
        src_w = self.worker_of(src_partition)
        if not self._worker_alive(src_w):
            src_w = self._recover_partition(src_partition)
        dst_w = self.worker_of(dst_partition)
        if not self._worker_alive(dst_w):
            dst_w = self._recover_partition(dst_partition)
        if src_w == dst_w:
            return 0.0
        t = self.network.transfer_time(nbytes)
        policy = session.policy
        seq = session.next_ship_seq()
        attempt = 0
        while session.plan.ship_dropped(seq, attempt):
            session.report.message_drops += 1
            wasted = t + self.network.drop_detect_s
            send_iv = self.workers[src_w].charge_network(wasted)
            recv_iv = self.workers[dst_w].charge_network(t)
            session.report.resend_network_s += wasted + t
            if self.tracer is not None:
                args = {"seq": seq, "attempt": attempt, "nbytes": nbytes}
                self._trace("ship.dropped.send", "net", src_w, send_iv, wasted, args)
                self._trace("ship.dropped.recv", "net", dst_w, recv_iv, t, args)
            if attempt >= policy.max_retries:
                session.report.abandoned_tasks += 1
                raise TaskAbandonedError(f"message {seq}", attempt + 1)
            backoff = policy.backoff_s(attempt)
            backoff_iv = self.workers[src_w].charge_network(backoff)
            session.report.backoff_wait_s += backoff
            if self.tracer is not None:
                self._trace(
                    "ship.backoff", "net", src_w, backoff_iv, backoff,
                    {"seq": seq, "attempt": attempt},
                )
            session.report.message_resends += 1
            attempt += 1
        send_iv = self.workers[src_w].charge_network(t)
        recv_iv = self.workers[dst_w].charge_network(t)
        self._report.total_network_s += t
        self._report.total_network_bytes += nbytes
        if self.tracer is not None:
            args = {"src": src_partition, "dst": dst_partition, "nbytes": nbytes}
            self._trace("ship.send", "net", src_w, send_iv, t, args)
            self._trace("ship.recv", "net", dst_w, recv_iv, t, args)
        return t

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def report(self) -> ExecutionReport:
        """Snapshot of the job metrics accumulated since the last reset."""
        rep = ExecutionReport(
            worker_times={w.worker_id: w.busy_time for w in self.workers},
            total_compute_s=self._report.total_compute_s,
            total_network_s=self._report.total_network_s,
            total_network_bytes=self._report.total_network_bytes,
            tasks=self._report.tasks,
            faults=self.fault_report(),
        )
        return rep

    def reset_clocks(self) -> None:
        """Start a fresh job: zero every worker clock and the counters,
        revive crashed workers, rewind the fault stream, and restore the
        caller's partition placement (recovery may have re-placed
        partitions during the previous job)."""
        for w in self.workers:
            w.reset()
        self._report = ExecutionReport()
        self._executor_failures = 0
        if self._faults is not None:
            self._faults.reset()
        if self.tracer is not None:
            self.tracer.clear()
        self._placement = dict(self._baseline_placement)
