"""The task path: how the engine's coordinators run per-partition work.

Both coordinators — the engine's similarity scan and the join's
:class:`~repro.core.join.JoinExecutor` — hand :class:`EngineTask` batches
to an engine's :class:`TaskExecutor`, which runs the bodies on the
configured backend and the tasks through the simulated schedule.  Bodies
resolve their references through :class:`LocalResolver` on both backends.
The executor owns the worker pool and the spilled snapshot, and sees a new
layout from the runtime's install counter.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..cluster.parallel import ExecutorError, ParallelExecutor, SideInit, WorkerInit
from ..cluster.tasks import TaskSpec, run_task_body
from ..kernels.batch import TrajectoryBlock
from ..obs import MetricsRegistry
from ..storage.store import snapshot_partitions
from .verify import VerificationData

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .engine import DITAEngine


@dataclass
class EngineTask:
    """One schedulable unit: the backend-neutral :class:`TaskSpec` plus
    the simulator routing and accounting the engine has always used.

    The task runs where ``cluster_pid`` lives (``Cluster.run_local``) —
    or, for a join's division replicas, ``replica`` workers past that home
    (``Cluster.run_on_worker``), the home being read when the task is
    submitted.  ``ship`` is a ``Cluster.ship(src, dst, nbytes)`` charged
    just before it: a join edge's transfer rides its first chunk."""

    spec: TaskSpec
    work: float
    tag: str
    cluster_pid: int
    replica: Optional[int] = None
    ship: Optional[Tuple[int, int, int]] = None


class LocalResolver:
    """The resolver of both backends (:mod:`repro.cluster.tasks`): one
    engine per join side — the coordinator's inline, a worker's store-backed
    ones on the pool.  A query's artifacts are built once, on first ask."""

    def __init__(self, left: "DITAEngine", right: Optional["DITAEngine"] = None) -> None:
        self._engines: Dict[str, "DITAEngine"] = {"L": left, "R": right if right is not None else left}
        self._qdata: Dict[int, VerificationData] = {}

    def engine(self, side: str) -> "DITAEngine":
        return self._engines[side]

    def query_data(self, points) -> VerificationData:
        q = self._qdata.get(id(points))
        if q is None:
            q = VerificationData.from_points(points, self._engines["L"].config.cell_size)
            self._qdata[id(points)] = q
        return q

    def sender_block(self, side: str, pid: int, rows: np.ndarray) -> Tuple[TrajectoryBlock, np.ndarray]:
        """A join chunk's shipped ``rows`` of partition ``pid`` as verification
        artifacts at the join's cell size (the left engine's): a block and the
        rows' places in it.  A sending side built at that size already holds
        them in its partition's block; another's shipped rows are compressed
        in one pass."""
        eng = self._engines[side]
        cell_size = self._engines["L"].config.cell_size
        if eng.config.cell_size == cell_size:
            return eng.trie(pid).batch_block(), rows
        shipped = eng.partition(pid).subset(rows)
        return TrajectoryBlock.from_columnar(shipped, cell_size), np.arange(rows.shape[0], dtype=np.int64)


def subdivide_task(tracer, counts: MetricsRegistry) -> None:
    """Split the just-recorded task span into filter/verify stage spans
    weighted by the task's trie-node visits and verifier pair count, read
    off the task's registry."""
    span = tracer.last_span()
    if span is None or span.cat != "task":
        return
    stages = {"filter": ("nodes_visited", "nodes_pruned", "candidates"),
              "verify": ("pairs", "exact_computed", "accepted")}
    tracer.subdivide(span, [
        (stage, float(counts.value(f"{stage}.{names[0]}")),
         {name: counts.value(f"{stage}.{name}") for name in names})
        for stage, names in stages.items()
    ])


class TaskExecutor:
    """One engine's task path: the simulated schedule, the pool, the spill."""

    def __init__(self, engine: "DITAEngine") -> None:
        self.engine = engine
        #: the live worker pool (None until a process-backend batch runs)
        self.pool: Optional[ParallelExecutor] = None
        #: what the pool was spawned against: bootstrap and layout install
        self._pool_key: Optional[Tuple[WorkerInit, int]] = None
        #: the spilled snapshot directory and the layout install it mirrors
        self._spill: Optional[Tuple[str, int]] = None

    def job(self, name: str, **args: object):
        """A coordinator's job span (a no-op context when tracing is off)."""
        tracer = self.engine.cluster.tracer
        return nullcontext() if tracer is None else tracer.job(name, **args)

    def run(
        self,
        tasks: List[EngineTask],
        resolver: LocalResolver,
        on_result: Callable[[EngineTask, Any], None],
    ) -> None:
        """Run a task batch — the one place a body is chosen between inline
        and a pooled outcome.

        The simulated cluster sees the same schedule either way: every task
        (its ``ship`` first) passes through ``run_local``/``run_on_worker``
        in order with its declared work, so traces, fault injection and the
        report are byte-identical across backends; under the process
        backend the simulator's closure returns the pooled outcome.
        ``on_result`` fires right after each task's simulator call, next to
        its span."""
        cluster = self.engine.cluster
        outcomes = self.outcomes(tasks, resolver)
        for t in tasks:
            if t.ship is not None:
                cluster.ship(*t.ship)
            if outcomes is None:
                body = lambda s=t.spec, r=resolver: run_task_body(s, r)  # noqa: E731
            else:
                body = lambda v=outcomes[t.spec.task_id]: v  # noqa: E731
            if t.replica is None:
                result = cluster.run_local(t.cluster_pid, body, work=t.work, tag=t.tag)
            else:
                result = cluster.run_on_worker(self.worker_for(t), body, work=t.work, tag=t.tag)
            on_result(t, result)

    def worker_for(self, t: EngineTask) -> int:
        """The simulated worker ``t`` targets: its partition's current home
        (fault recovery may move it), ``t.replica`` places further on."""
        cluster = self.engine.cluster
        return (cluster.worker_of(t.cluster_pid) + (t.replica or 0)) % cluster.n_workers

    def outcomes(
        self, tasks: List[EngineTask], resolver: LocalResolver
    ) -> Optional[Dict[int, Any]]:
        """Under ``backend="process"``, execute every task body on the
        worker pool up front and return ``{task_id: value}``; None under
        the simulated backend (bodies then run inline).

        A pool failure surfaces as :class:`ExecutorError` and is recorded
        in the cluster's fault accounting (``FaultReport.executor_failures``);
        the broken pool is dropped so a later call starts a fresh one."""
        if self.engine.config.backend != "process" or not tasks:
            return None
        pool = self._ensure_pool(resolver)
        affinity = [self.worker_for(t) % pool.num_workers for t in tasks]
        try:
            results = pool.run([t.spec for t in tasks], affinity=affinity)
        except ExecutorError:
            self.engine.cluster.note_executor_failure()
            self._close_pool()  # already shut down by the failure; forget it
            raise
        self._merge_pool_obs(tasks, results)
        return {tid: r.value for tid, r in results.items()}

    def _ensure_pool(self, resolver: LocalResolver) -> ParallelExecutor:
        """The worker pool for the resolver's engine pair, (re)spawned when
        this engine installed a layout or either side's snapshot moved.
        Both sides ride the bootstrap, so one pool serves searches and
        joins against the same counterpart."""
        right = resolver.engine("R").executor
        init = WorkerInit(sides=(("L", self.side_init()), ("R", right.side_init())))
        key = (init, self.engine.runtime.installs)
        if self.pool is not None and key == self._pool_key:
            return self.pool
        self._close_pool()
        n = self.engine.config.num_processes or os.cpu_count() or 1
        self.pool = ParallelExecutor(init, n)
        self._pool_key = key
        return self.pool

    def side_init(self) -> SideInit:
        """This engine's share of a worker bootstrap (see :meth:`snapshot`)."""
        engine = self.engine
        return SideInit(store_path=self.snapshot(), config=engine.config, adapter=engine.adapter)

    def snapshot(self) -> str:
        """The store directory workers map the engine's partitions from: an
        unmutated store's own, else a spill of the live partitions made once
        per installed layout, pids and rows preserved."""
        rt = self.engine.runtime
        if rt.store is not None and not rt.mutated:
            self._drop_spill()
            return str(rt.store.path)
        if self._spill is None or self._spill[1] != rt.installs:
            self._drop_spill()
            spill = tempfile.mkdtemp(prefix="repro-spill-")
            parts = {pid: rt.partition(pid) for pid in rt.partition_pids()}
            snapshot_partitions(
                parts, Path(spill) / "store", rt.ndim, self.engine.config.num_global_partitions
            )
            self._spill = (spill, rt.installs)
        return str(Path(self._spill[0]) / "store")

    def _merge_pool_obs(self, tasks: List[EngineTask], results: Dict[int, Any]) -> None:
        """Fold the pool's per-task observability into the coordinator's:
        each task's worker-side run becomes a ``cat="pool"`` span, re-based
        to the batch start and ordered by (pool worker, start) — wall-clock
        diagnostics outside the simulated accounting."""
        tracer = self.engine.cluster.tracer
        if tracer is not None:
            base = min(r.t0 for r in results.values())
            spec_by_id = {t.spec.task_id: t.spec for t in tasks}
            ordered = sorted(results.items(), key=lambda kv: (kv[1].worker_id, kv[1].t0, kv[0]))
            for tid, r in ordered:
                spec = spec_by_id[tid]
                tracer.record(
                    spec.kind,
                    "pool",
                    r.worker_id,
                    r.t0 - base,
                    r.t1 - base,
                    args={"task_id": tid, "partition": spec.partition_id},
                )

    def _close_pool(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
            self._pool_key = None

    def _drop_spill(self) -> None:
        if self._spill is not None:
            shutil.rmtree(self._spill[0], ignore_errors=True)
            self._spill = None

    def close(self) -> None:
        """Release the worker pool and any spilled snapshot.  Idempotent;
        a later process-backend batch re-creates both."""
        self._close_pool()
        self._drop_spill()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
