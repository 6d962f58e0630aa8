"""The DITA engine: the library's primary entry point.

``DITAEngine`` owns one indexed dataset: the first/last-point partitioning,
the global index, one trie per partition and the verification artifacts —
exactly the state a Spark driver plus its executors would hold — and runs
searches and joins on a simulated cluster.

Every partition is a :class:`~repro.storage.columnar.ColumnarDataset` (one
contiguous CSR block, possibly memory-mapped from a persisted
:class:`~repro.storage.store.TrajectoryStore`); the search/join/kNN hot
paths move dataset *rows* through the kernels and materialize
``Trajectory`` objects only for accepted results.

Typical use::

    from repro import DITAEngine, DITAConfig
    from repro.datagen import beijing_like, sample_queries

    data = beijing_like(1000)
    engine = DITAEngine(data, DITAConfig(num_global_partitions=4))
    query = sample_queries(data, 1)[0]
    matches = engine.search(query, tau=0.005)          # [(Trajectory, dist)]
    pairs = engine.join(engine, tau=0.002)             # [(id, id, dist)]

Or, cold-starting from a persisted store (no parsing, no partitioning, no
summary computation — blocks load lazily, and partitions the global index
prunes are never read at all)::

    engine = DITAEngine.from_store(TrajectoryStore.open("trips.store"))
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..cluster.clock import Stopwatch, wall_clock
from ..cluster.parallel import ExecutorError, ParallelExecutor, SideInit, WorkerInit
from ..cluster.simulator import Cluster
from ..cluster.tasks import TaskSpec, run_task_body
from ..obs import MetricsRegistry
from ..storage.columnar import ColumnarDataset, check_finite, concat_datasets
from ..storage.delta import DeltaPartition
from ..storage.generations import GenerationalStore
from ..storage.store import snapshot_partitions, write_catalog, write_partition_block
from ..trajectory.trajectory import Trajectory
from .adapters import IndexAdapter, get_adapter
from .config import DITAConfig
from .global_index import GlobalIndex, PartitionInfo, partition_info, partition_trajectories
from .join import JoinExecutor, JoinPair, JoinStats
from .numerics import slack
from .search import Match, SearchStats
from .trie import TrieIndex
from .verify import VerificationData, Verifier


@dataclass
class _EngineTask:
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


class _LocalResolver:
    """The resolver of both backends: task-body references resolve
    against the partitions, tries and verifier of one engine per join side
    (see :mod:`repro.cluster.tasks` for the protocol) — the coordinator's
    own engines inline, a worker's store-backed ones
    (:func:`repro.cluster.parallel.open_sides`) on the pool.  A query's
    verification artifacts are built once, by the first task that asks.
    """

    def __init__(self, left: "DITAEngine", right: Optional["DITAEngine"] = None) -> None:
        self._engines: Dict[str, "DITAEngine"] = {"L": left, "R": right if right is not None else left}
        self._qdata: Dict[int, VerificationData] = {}

    def engine(self, side: str) -> "DITAEngine":
        return self._engines[side]

    def dataset(self, side: str, pid: int) -> ColumnarDataset:
        return self._engines[side].partition(pid)

    def query_data(self, points) -> VerificationData:
        q = self._qdata.get(id(points))
        if q is None:
            q = VerificationData.from_points(points, self._engines["L"].config.cell_size)
            self._qdata[id(points)] = q
        return q

    def sender_data(self, side: str, pid: int, row: int) -> VerificationData:
        # a join verifies with the left engine's cell size; a sending side
        # built with the same one already holds the row's cells in its block
        eng = self._engines[side]
        cell_size = self._engines["L"].config.cell_size
        if eng.config.cell_size == cell_size:
            return VerificationData.from_block(eng.trie(pid).batch_block(), int(row))
        return VerificationData.from_points(eng.partition(pid).points(int(row)), cell_size)


class DITAEngine:
    """An indexed, partitioned trajectory collection with search and join.

    Parameters
    ----------
    dataset:
        The trajectories to index: a ``ColumnarDataset`` (adopted without
        copying) or any iterable of :class:`Trajectory`.
    config:
        Index and planner parameters (defaults are sensible for ~10^3-10^4
        trajectories; scale ``num_global_partitions`` with data size).
    distance:
        Name of a registered adapter (``available_adapters()``) or an
        :class:`IndexAdapter` instance for parameterized distances.
    cluster:
        The simulated cluster; defaults to one worker per partition group
        (capped at 16).
    clock:
        Time source for the (real) index-build measurement; defaults to
        the wall clock.  Simulated metrics never use it — they are priced
        by the cluster's deterministic measure hook.
    """

    def __init__(
        self,
        dataset: "ColumnarDataset | Iterable[Trajectory]",
        config: Optional[DITAConfig] = None,
        distance: "str | IndexAdapter" = "dtw",
        cluster: Optional[Cluster] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        config = config or DITAConfig()
        data = ColumnarDataset.from_trajectories(dataset)
        watch = Stopwatch(clock or wall_clock)
        groups = partition_trajectories(data, config.num_global_partitions)
        self._open(config, distance, cluster, watch, dict(enumerate(groups)))

    @classmethod
    def from_store(
        cls,
        store,
        config: Optional[DITAConfig] = None,
        distance: "str | IndexAdapter" = "dtw",
        cluster: Optional[Cluster] = None,
        clock: Optional[Callable[[], float]] = None,
        lazy: bool = True,
    ) -> "DITAEngine":
        """Cold-start an engine from a persisted
        :class:`~repro.storage.store.TrajectoryStore`.

        The store's partitioning is adopted as-is: the global index is
        built from catalog metadata alone (no block bytes touched), and
        with ``lazy=True`` each partition's memory-mapped block — and its
        trie — is loaded only when a search, join or update first reaches
        it, so globally-pruned partitions are never read from disk.
        Results and stats are identical to ``lazy=False`` (and to an
        engine built from the same trajectories with the store's
        ``n_groups`` as ``num_global_partitions``).  Block coordinates are
        not re-validated here: the store was checked when it was built.
        """
        self = cls.__new__(cls)
        watch = Stopwatch(clock or wall_clock)
        self._open(config or DITAConfig(), distance, cluster, watch, {}, store, lazy)
        return self

    @classmethod
    def from_partitions(
        cls,
        parts: Dict[int, ColumnarDataset],
        config: Optional[DITAConfig] = None,
        distance: "str | IndexAdapter" = "dtw",
        cluster: Optional[Cluster] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> "DITAEngine":
        """Bulk-build an engine adopting a *given* partition assignment
        verbatim (``{pid: dataset}``; empty partitions are dropped).

        This is the differential-testing oracle for streaming ingestion:
        handing it a streamed engine's ``{pid: engine.partition(pid)}``
        yields a freshly bulk-built twin with the same partition ids, row
        numbering and (therefore) byte-identical query results and stats.
        """
        self = cls.__new__(cls)
        watch = Stopwatch(clock or wall_clock)
        adopted = {int(pid): part for pid, part in parts.items()}
        self._open(config or DITAConfig(), distance, cluster, watch, adopted)
        return self

    @classmethod
    def from_generations(cls, root, **kwargs) -> "DITAEngine":
        """Cold-start from the live generation of a
        :class:`~repro.storage.generations.GenerationalStore` root, with
        the generational store attached so :meth:`merge` keeps advancing
        it.  ``kwargs`` are forwarded to :meth:`from_store`."""
        gens = GenerationalStore.open(root)
        self = cls.from_store(gens.current_store(), **kwargs)
        self._generations = gens
        return self

    def _open(
        self,
        config: DITAConfig,
        distance: "str | IndexAdapter",
        cluster: Optional[Cluster],
        watch: Stopwatch,
        partitions: Dict[int, ColumnarDataset],
        store=None,
        lazy: bool = True,
    ) -> None:
        """The construction path every constructor shares; they differ
        only in where ``partitions`` (in-memory blocks, validated and
        bulk-indexed here) and ``store`` (blocks mapped on demand, or all
        up front with ``lazy=False``) come from."""
        self.config = config
        if isinstance(distance, str):
            distance = get_adapter(distance, use_suffix_pruning=config.use_suffix_pruning)
        self.adapter = distance
        self.verifier = Verifier(self.adapter, config.use_mbr_coverage, config.use_cell_filter)
        partitions = {pid: part for pid, part in sorted(partitions.items()) if len(part)}
        for part in partitions.values():
            check_finite(part.point_coords)
        unloaded = set(store.metas) if store is not None else set()
        if not partitions and not unloaded:
            raise ValueError("cannot index an empty dataset")
        #: point dimensionality, kept when removals empty every partition
        self.ndim = next(iter(partitions.values())).ndim if partitions else store.ndim
        if cluster is None:
            cluster = Cluster(n_workers=min(16, max(1, len(partitions) + len(unloaded))))
        self.cluster = cluster
        # process-backend state: the worker pool and the spilled snapshot a
        # non-store (or mutated) engine hands workers
        self._pool: Optional[ParallelExecutor] = None
        self._pool_init: Optional[WorkerInit] = None
        self._spill_dir: Optional[str] = None
        # streaming-ingestion state: per-partition write buffers, the
        # merge-trigger counter and the (optional) generational store
        # merges compact into
        self._deltas: Dict[int, DeltaPartition] = {}
        self._rows_since_merge = 0
        self._generations: Optional[GenerationalStore] = None
        # mutation-generation state for external caches (repro.serving):
        # the global counter bumps on every logical mutation — including
        # *buffered* delta writes, before any flush — and the per-partition
        # counters bump only for the partitions a mutation touches, so a
        # cache can invalidate exactly the affected entries
        self._generation = 0
        self._part_versions: Dict[int, int] = {}
        self._in_flush = False
        #: the observability layer (None until tracing is enabled)
        self.metrics: Optional[MetricsRegistry] = None
        self._install(
            {pid: self._build_index(part) for pid, part in partitions.items()}, store, unloaded
        )
        if not lazy:
            for pid in sorted(unloaded):
                self.trie(pid)
        self.build_time_s = watch.elapsed()
        if config.use_tracing:
            self.enable_tracing()

    def _build_index(self, part: ColumnarDataset) -> TrieIndex:
        """Index one in-memory partition: its trie, with the verification
        artifacts stacked now so the first query doesn't pay the
        batch-block build."""
        trie = TrieIndex(part, self.config)
        trie.batch_block()
        return trie

    def _install(
        self, tries: Dict[int, TrieIndex], store, unloaded: Set[int], mutated: bool = False
    ) -> None:
        """Adopt a partition layout — the one place the engine's view of
        its partitions changes (construction, delta flush, merge,
        repartition).

        ``tries`` are the loaded partitions, each an index over its own
        block (``trie.dataset``); ``store`` backs the ``unloaded``
        partition ids, and ``mutated`` says the loaded blocks are no
        longer the store's, so process workers need a spilled snapshot and
        not the store itself.  Everything derived from the layout follows:
        master-side metadata (cheap: one table row per partition, at most
        NG^2 of them), placement, lineage, and the invalidation of
        whatever mirrored the old layout (worker pool, spill, id map)."""
        self.tries = tries
        self._store, self._unloaded, self._mutated = store, unloaded, mutated
        pids = self.partition_pids()
        self.global_index = GlobalIndex.from_infos(
            [
                partition_info(pid, tries[pid].dataset)
                if pid in tries
                else _info_from_store_meta(store.metas[pid])
                for pid in pids
            ],
            self.config,
        )
        # left engine partitions occupy [0, n); a right engine in a join is
        # offset by n (JoinExecutor._cluster_pid)
        self.cluster.place_partitions(pids)
        self._register_rebuilds(self.cluster)
        # worker processes mirror a snapshot that no longer matches; the
        # next process-backend call respawns against a fresh one
        self._close_pool()
        self._drop_spill()
        #: the lazy id -> partition routing map (see :meth:`_id_map`)
        self._stream_ids: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------ #
    # partition access (lazy for store-backed engines)
    # ------------------------------------------------------------------ #

    def partition_pids(self) -> List[int]:
        """Every partition id, loaded or not, ascending."""
        return sorted(set(self.tries) | self._unloaded)

    def trie(self, pid: int) -> TrieIndex:
        """The partition: its local index over its columnar block.  A
        store block is mapped and indexed when first asked for; its
        verification artifacts wait for the first query."""
        if pid in self._unloaded:
            self.tries[pid] = TrieIndex(self._store.partition(pid), self.config)
            self._unloaded.discard(pid)
        return self.tries[pid]

    def partition(self, pid: int) -> ColumnarDataset:
        """The partition's columnar block (loads a store block on demand)."""
        return self.trie(pid).dataset

    def _block(self, pid: int) -> ColumnarDataset:
        """The partition's rows, an unloaded store block mapped but not indexed."""
        return self._store.partition(pid) if pid in self._unloaded else self.tries[pid].dataset

    @property
    def partitions(self) -> Dict[int, ColumnarDataset]:
        """The loaded partitions' blocks by pid — a read-only view derived
        from :attr:`tries` (unloaded store partitions are not in it)."""
        return {pid: trie.dataset for pid, trie in self.tries.items()}

    # ------------------------------------------------------------------ #
    # observability (repro.obs)
    # ------------------------------------------------------------------ #

    def enable_tracing(self) -> None:
        """Install the observability layer: a span tracer on the cluster
        and a metrics registry on the engine.  Idempotent; results are
        identical with or without it (only instrumentation changes)."""
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        if self.cluster.tracer is None:
            self.cluster.install_tracer()

    @property
    def tracer(self):
        """The cluster's span tracer (None when tracing is off)."""
        return self.cluster.tracer

    def _job(self, name: str, **args: object):
        tracer = self.cluster.tracer
        if tracer is None:
            return nullcontext()
        return tracer.job(name, **args)

    def _subdivide_task(self, tracer, ts: SearchStats) -> None:
        """Split the just-recorded task span into filter/verify stage spans
        weighted by the task's trie-node visits and verifier pair count."""
        span = tracer.last_span()
        if span is None or span.cat != "task":
            return
        tracer.subdivide(
            span,
            [
                (
                    "filter",
                    float(ts.filter.nodes_visited),
                    {
                        "nodes_visited": ts.filter.nodes_visited,
                        "nodes_pruned": ts.filter.nodes_pruned,
                        "candidates": ts.filter.candidates,
                    },
                ),
                (
                    "verify",
                    float(ts.verify.pairs),
                    {
                        "pairs": ts.verify.pairs,
                        "exact_computed": ts.verify.exact_computed,
                        "accepted": ts.verify.accepted,
                    },
                ),
            ],
        )

    # ------------------------------------------------------------------ #
    # fault tolerance (lineage)
    # ------------------------------------------------------------------ #

    def _register_rebuilds(self, cluster: Cluster, offset: int = 0) -> None:
        """Register each partition's lineage closure with the cluster:
        when a worker crashes, the surviving worker that inherits a
        partition re-runs its local index build *for real* (deterministic,
        so post-recovery answers are identical) and is charged for it."""
        for pid in self.partition_pids():
            cluster.register_rebuild(
                offset + pid, self._make_rebuild(pid), work=self.global_index.meta(pid).size
            )

    def _make_rebuild(self, pid: int) -> Callable[[], None]:
        def rebuild() -> None:
            self.tries[pid] = self._build_index(self.partition(pid))

        return rebuild

    def fault_report(self):
        """The cluster's fault accounting (None without a fault plan)."""
        return self.cluster.fault_report()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def n_partitions(self) -> int:
        return len(self.tries) + len(self._unloaded)

    def __len__(self) -> int:
        indexed = sum(m.size for m in self.global_index.partitions_meta)
        return indexed + sum(d.net_rows for d in self._deltas.values())

    @property
    def n_pending(self) -> int:
        """Buffered write operations not yet folded into the index."""
        return sum(d.n_pending for d in self._deltas.values())

    @property
    def generation(self) -> int:
        """The engine's mutation-generation counter: a monotonic integer
        that advances on *every* logical mutation — buffered
        ``append_trajectory``/``extend_trajectory``/``remove_trajectory``
        writes (before any flush), delta flushes, :meth:`merge` and
        :meth:`repartition`.  External caches
        (:mod:`repro.serving`) key entries on it: an entry stamped at an
        older generation can never be served against newer data.
        """
        return self._generation

    def partition_version(self, pid: int) -> int:
        """The partition-granular mutation counter: advances only when a
        mutation touches partition ``pid`` (a buffered write routed to it,
        a flush rebuilding it, a merge or repartition replacing it), so a
        per-partition cache entry elsewhere stays valid across mutations
        confined to other partitions."""
        return self._part_versions.get(pid, 0)

    def _bump_generation(self, pids: Iterable[int]) -> None:
        self._generation += 1
        for pid in pids:
            self._part_versions[pid] = self._part_versions.get(pid, 0) + 1

    def sync_for_read(self) -> int:
        """Fold any pending deltas (the flush-on-read every query entry
        performs) and return the resulting :attr:`generation` — the
        snapshot stamp a caller should key caches on.  Reads taken after
        this call and before the next mutation see exactly this
        generation's data."""
        self._sync_streams()
        return self._generation

    def trajectory(self, traj_id: int) -> Trajectory:
        """Materialize one trajectory by id (KeyError when absent) — the
        boundary accessor result rendering uses; hot paths never call it.
        The id routes through :meth:`_id_map`, so no partition is indexed
        by a lookup."""
        self._sync_streams()
        return self._block(self._id_map()[traj_id]).by_id(traj_id)

    def index_size_bytes(self) -> Tuple[int, int]:
        """(global index bytes, total local index bytes) — Table 5 metric.

        For a lazily-loaded store engine, only materialized local indexes
        are counted (unloaded partitions hold no index yet)."""
        local = sum(trie.size_bytes() for trie in self.tries.values())
        return self.global_index.size_bytes(), local

    # ------------------------------------------------------------------ #
    # writes (delta buffers, merge, online repartitioning)
    # ------------------------------------------------------------------ #

    def _delta(self, pid: int) -> DeltaPartition:
        return self._deltas.setdefault(pid, DeltaPartition(self.ndim))

    def _id_map(self) -> Dict[int, int]:
        """``trajectory id -> partition id`` over base and pending rows.

        Built lazily and invalidated by any index refresh; building it
        reads every block's id column (updates need the full id set) but
        indexes no unloaded partition.
        """
        if self._stream_ids is None:
            ids: Dict[int, int] = {}
            for pid in self.partition_pids():
                ids.update(dict.fromkeys(self._block(pid).traj_ids.tolist(), pid))
            for pid, delta in self._deltas.items():
                for tid in delta.removed:
                    ids.pop(tid, None)
                for tid in delta.appended:
                    ids[tid] = pid
            self._stream_ids = ids
        return self._stream_ids

    def _checked_points(self, points) -> np.ndarray:
        """A write's points as an ``(n, ndim)`` float64 array.

        Appends and extends are the only way rows enter an engine, so what
        would poison an index (a NaN coordinate defeats every MBR test of
        its partition) or surface later as an unrelated numpy error is
        rejected here with ``ValueError``: no points, a dimensionality
        other than the engine's, NaN or infinite coordinates."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != self.ndim:
            raise ValueError(
                f"points must be a non-empty (n, {self.ndim}) array, got shape {pts.shape}"
            )
        check_finite(pts)
        return pts

    def _check_query(self, taus: Iterable[float], queries: Iterable[Trajectory] = ()) -> None:
        """The read-side twin of :meth:`_checked_points`, called by every
        query entry point before it does anything: a negative or NaN
        ``tau`` (``inf`` is legal) and query points that are non-finite or
        not of the engine's dimensionality raise ``ValueError`` — a NaN
        fails every comparison on the way down, so it would otherwise come
        back as an empty (search) or arbitrary (kNN) answer."""
        for tau in taus:
            if not tau >= 0:
                raise ValueError(f"tau must be non-negative, got {tau!r}")
        for query in queries:
            self._checked_points(query.points)

    def append_trajectory(self, traj_id: int, points) -> int:
        """Buffer a new trajectory in its home partition's delta; returns
        the partition id it was routed to.

        Routing (:meth:`GlobalIndex.route`) picks the partition whose MBR
        pair needs the least enlargement, and the write is O(1): no block,
        trie or global-index bytes move until the delta is applied (at
        ``delta_max_rows``, or lazily by the next query).  Queries between
        now and then still see the trajectory — the read path folds
        pending deltas in first — with results and stats byte-identical to
        a bulk rebuild over the same logical data.
        """
        traj_id = int(traj_id)
        if traj_id in self._id_map():
            raise ValueError(f"trajectory id {traj_id} already present")
        pts = self._checked_points(points)
        pid = self.global_index.route(pts[0], pts[-1])
        self._delta(pid).append(traj_id, pts)
        self._stream_ids[traj_id] = pid
        self._note_write(pid)
        return pid

    def extend_trajectory(self, traj_id: int, extra_points) -> None:
        """Buffer extra points onto an existing trajectory (KeyError when
        absent).  A base row is shadowed by a delta row holding the full
        extended point array; a pending row just grows in place."""
        traj_id = int(traj_id)
        pid = self._id_map().get(traj_id)
        if pid is None:
            raise KeyError(traj_id)
        pts = self._checked_points(extra_points)
        delta = self._delta(pid)
        if traj_id in delta.appended:
            delta.extend_pending(traj_id, pts)
        else:
            part = self._block(pid)
            full = np.concatenate([part.points(part.row_of(traj_id)), pts], axis=0)
            delta.replace(traj_id, full)
        self._note_write(pid)

    def remove_trajectory(self, traj_id: int) -> bool:
        """Buffer a removal (False when the id is unknown)."""
        traj_id = int(traj_id)
        ids = self._id_map()
        pid = ids.get(traj_id)
        if pid is None:
            return False
        self._delta(pid).remove(traj_id)
        del ids[traj_id]
        self._note_write(pid)
        return True

    def insert(self, traj: Trajectory) -> None:
        """:meth:`append_trajectory` for callers holding a
        :class:`Trajectory`; visible to the next read, like any append."""
        self.append_trajectory(traj.traj_id, traj.points)

    def remove(self, traj_id: int) -> bool:
        """:meth:`remove_trajectory` under its short name."""
        return self.remove_trajectory(traj_id)

    def _note_write(self, pid: int) -> None:
        # the *buffered* write is already a logical mutation: caches keyed
        # on the generation must miss even before the flush-on-read folds
        # the delta in (the PR 9 stale-state hazard)
        self._bump_generation([pid])
        self._rows_since_merge += 1
        if self._deltas[pid].n_pending >= self.config.delta_max_rows:
            self.flush_deltas([pid])

    def flush_deltas(self, pids: Optional[Iterable[int]] = None) -> int:
        """Fold pending deltas into their partitions' live indexes.

        Each dirty partition becomes one new compact dataset (surviving
        base rows in base order, then delta rows in arrival order) with a
        freshly bulk-built trie — the canonical layout, so the resulting
        index is structurally identical to any bulk build over the same
        logical rows.  Returns the number of operations applied.

        Idempotent under reentrancy: a flush entered while another flush
        is already running (two interleaved reads on one engine, or a
        read issued from inside the flush machinery) is a no-op, so
        deltas can never be double-applied.  Application is staged — all
        new datasets and tries are built before the engine adopts any of
        them — so no caller can ever observe a half-compacted layout: a
        failure mid-build restores the popped deltas and leaves every
        partition, trie and the global index exactly as before.
        """
        if self._in_flush:
            return 0
        if pids is None:
            items = [(pid, self._deltas.pop(pid)) for pid in sorted(self._deltas)]
        else:
            items = [
                (pid, self._deltas.pop(pid)) for pid in sorted(pids) if pid in self._deltas
            ]
        items = [(pid, d) for pid, d in items if d]
        if not items:
            return 0
        self._in_flush = True
        applied = 0
        staged: List[Tuple[int, Optional[TrieIndex]]] = []
        try:
            for pid, delta in items:
                applied += delta.n_pending
                known = pid in self.tries or pid in self._unloaded
                part = delta.apply(self._block(pid) if known else None)
                staged.append((pid, self._build_index(part) if len(part) else None))
        except BaseException:
            # nothing was adopted; put every popped delta back so a retry
            # (or the next read) sees the exact pre-flush pending state
            for pid, delta in items:
                self._deltas[pid] = delta
            raise
        finally:
            self._in_flush = False
        for pid, trie in staged:
            self._unloaded.discard(pid)
            if trie is None:
                self.tries.pop(pid, None)
            else:
                self.tries[pid] = trie
            self._part_versions[pid] = self._part_versions.get(pid, 0) + 1
        self._install(self.tries, self._store, self._unloaded, mutated=True)
        return applied

    def _sync_streams(self) -> None:
        """Reads call this first: fold any pending deltas so the query
        plan runs over base ∪ delta.  Reentrant calls (a read issued
        while a flush is in flight) are no-ops — see :meth:`flush_deltas`."""
        if self._deltas and not self._in_flush:
            self.flush_deltas()

    # -- background merge ---------------------------------------------- #

    def attach_generations(self, root) -> GenerationalStore:
        """Attach (opening or initialising) the generational store that
        :meth:`merge` compacts into."""
        self._generations = GenerationalStore.open_or_init(root)
        return self._generations

    @property
    def generations(self) -> Optional[GenerationalStore]:
        return self._generations

    def merge(self, prune: bool = False) -> int:
        """Compact the live partitions into a new catalog generation and
        re-base the engine onto it; returns the committed generation.

        Each partition is written by a simulated task homed on the
        partition's worker (``tag="merge.partition"``; the block writer is
        idempotent, so fault-injected retries are safe), then the catalog
        is written and the generation commits atomically.  Any failure —
        including a task abandoned after exhausting retries — aborts the
        staging directory and re-raises, leaving ``CURRENT`` (and the
        engine) exactly as before: readers can never observe a torn image.

        After the commit the engine adopts the new generation as its
        store with all partitions lazily mapped, so process-backend
        workers attach straight to the merged blocks (no spill).  With
        ``prune=True`` superseded generations' blocks are deleted afterwards.
        """
        if self._generations is None:
            raise ValueError(
                "no generational store attached; call attach_generations() first"
            )
        self.flush_deltas()
        pids = self.partition_pids()
        if not pids:
            raise ValueError("cannot merge an empty engine")
        gens = self._generations
        staging, gen = gens.begin()
        try:
            metas = []
            for pid in pids:
                part = self._block(pid).compact()
                meta = self.cluster.run_local(
                    pid,
                    lambda p=part, i=pid: write_partition_block(staging, i, p),
                    work=self.global_index.meta(pid).size,
                    tag="merge.partition",
                )
                metas.append(meta)
            write_catalog(staging, metas, self.ndim, self.config.num_global_partitions)
            gens.commit(gen)
        except BaseException:
            gens.abort(gen)
            raise
        store = gens.current_store()
        # the compaction re-lays every partition's rows: caches holding
        # row-addressed state for any partition are stale now
        self._bump_generation(set(pids) | set(store.metas))
        self._install({}, store, set(store.metas))
        self._rows_since_merge = 0
        if prune:
            gens.prune()
        return gen

    def maybe_merge(self, prune: bool = False) -> bool:
        """Merge when rows written since the last merge exceed
        ``merge_trigger`` × the indexed size (False when no generational
        store is attached or the trigger hasn't tripped)."""
        if self._generations is None:
            return False
        total = len(self)
        if total == 0:
            return False
        if self._rows_since_merge / total < self.config.merge_trigger:
            return False
        self.merge(prune=prune)
        return True

    # -- online repartitioning ----------------------------------------- #

    def skew_ratio(self) -> float:
        """Largest partition size over the mean (pending delta rows
        included) — the load-imbalance signal the repartition trigger
        watches."""
        pending: Dict[int, int] = {pid: d.net_rows for pid, d in self._deltas.items()}
        sizes = [
            m.size + pending.pop(m.partition_id, 0)
            for m in self.global_index.partitions_meta
        ]
        sizes.extend(n for n in pending.values() if n > 0)
        sizes = [n for n in sizes if n > 0]
        if not sizes:
            return 1.0
        return max(sizes) * len(sizes) / sum(sizes)

    def repartition(self) -> bool:
        """Re-run the first/last-point STR partitioning over the full
        logical dataset and migrate trajectories to their new homes.

        Destination indexes are staged (and their lineage registered with
        the cluster) before any migration is accounted, and the engine
        adopts the new layout only after every transfer lands: a shipment
        abandoned mid-migration (crashed endpoints, dropped messages past
        the retry budget) raises out of this method with the old layout —
        partitions, tries, global index, placement — fully intact.

        Transfers go through the simulator's :meth:`~repro.cluster.simulator.Cluster.ship`
        accounting, one aggregated shipment per (source, destination)
        partition pair, charging only rows whose partition id changes.
        """
        self.flush_deltas()
        old_pids = self.partition_pids()
        if not old_pids:
            return False
        id_to_old = self._id_map()  # nothing is pending: this loads and maps every block
        logical = concat_datasets([self.partition(pid) for pid in old_pids])
        groups = partition_trajectories(logical, self.config.num_global_partitions)
        new_parts = {npid: part for npid, part in enumerate(groups) if len(part)}
        staged = {npid: self._build_index(part) for npid, part in new_parts.items()}
        # destinations live beside the old partitions during migration:
        # place them, register their lineage, then account the transfers
        offset = max(old_pids) + 1
        self.cluster.place_partitions(
            old_pids + [offset + npid for npid in sorted(new_parts)]
        )
        self._register_rebuilds(self.cluster)
        for npid, part in sorted(new_parts.items()):
            self.cluster.register_rebuild(
                offset + npid,
                self._make_stage_rebuild(staged, npid, part),
                work=len(part),
            )
        for npid, part in sorted(new_parts.items()):
            by_src: Dict[int, int] = {}
            for row in range(part.n_rows):
                src = id_to_old[int(part.traj_ids[row])]
                if src == npid:
                    continue
                nbytes = int(part.lengths[row]) * part.ndim * 8
                by_src[src] = by_src.get(src, 0) + nbytes
            for src in sorted(by_src):
                self.cluster.ship(src, offset + npid, by_src[src])
        # adoption: every old and new partition's row layout changed
        self._bump_generation(set(old_pids) | set(new_parts))
        self._install(staged, None, set())
        return True

    def _make_stage_rebuild(
        self, staged: Dict[int, TrieIndex], npid: int, part: ColumnarDataset
    ) -> Callable[[], None]:
        def rebuild() -> None:
            staged[npid] = self._build_index(part)

        return rebuild

    def maybe_repartition(self) -> bool:
        """Repartition when :meth:`skew_ratio` exceeds the config's
        ``repartition_skew_ratio``."""
        if self.skew_ratio() <= self.config.repartition_skew_ratio:
            return False
        return self.repartition()

    # ------------------------------------------------------------------ #
    # execution backends (the Executor seam)
    # ------------------------------------------------------------------ #

    def _run_tasks(
        self,
        tasks: List[_EngineTask],
        resolver: _LocalResolver,
        on_result: Callable[[_EngineTask, Any], None],
    ) -> None:
        """Run a task batch through the configured backend — the one
        place a body is chosen between inline and a pooled outcome.

        The simulated cluster sees the identical schedule either way:
        every task (its ``ship`` first, if it carries one) passes through
        ``run_local``/``run_on_worker`` in submission order with its
        declared work, so traces, fault injection and the execution
        report are byte-identical across backends.  Under ``backend="process"`` the bodies have already
        run on the pool and the closure handed to the simulator just
        returns the pooled outcome (the default unit-cost measure prices
        declared work, not body runtime, so the accounting matches).
        ``on_result`` fires immediately after each task's simulator call
        — span-adjacent, so stage subdivision keeps working."""
        outcomes = self._process_outcomes(tasks, resolver)
        for t in tasks:
            if t.ship is not None:
                self.cluster.ship(*t.ship)
            if outcomes is None:
                body = lambda s=t.spec, r=resolver: run_task_body(s, r)  # noqa: E731
            else:
                body = lambda v=outcomes[t.spec.task_id]: v  # noqa: E731
            if t.replica is None:
                result = self.cluster.run_local(t.cluster_pid, body, work=t.work, tag=t.tag)
            else:
                result = self.cluster.run_on_worker(
                    self._worker_for(t), body, work=t.work, tag=t.tag
                )
            on_result(t, result)

    def _worker_for(self, t: _EngineTask) -> int:
        """The simulated worker ``t`` targets: its partition's current home
        (a ship's fault recovery may have moved it), ``t.replica`` places
        further on for a join's division replica."""
        return (self.cluster.worker_of(t.cluster_pid) + (t.replica or 0)) % self.cluster.n_workers

    def _process_outcomes(
        self, tasks: List[_EngineTask], resolver: _LocalResolver
    ) -> Optional[Dict[int, Any]]:
        """Under ``backend="process"``, execute every task body on the
        worker pool up front and return ``{task_id: value}``; None under
        the simulated backend (bodies then run inline).

        A pool failure surfaces as :class:`ExecutorError` and is recorded
        in the cluster's fault accounting (``FaultReport.executor_failures``);
        the broken pool is dropped so a later call starts a fresh one."""
        if self.config.backend != "process" or not tasks:
            return None
        pool = self._ensure_pool(resolver)
        affinity = [self._worker_for(t) % pool.num_workers for t in tasks]
        try:
            results = pool.run([t.spec for t in tasks], affinity=affinity)
        except ExecutorError:
            self.cluster.note_executor_failure()
            self._close_pool()  # already shut down by the failure; forget it
            raise
        self._merge_pool_obs(tasks, results)
        return {tid: r.value for tid, r in results.items()}

    def _ensure_pool(self, resolver: _LocalResolver) -> ParallelExecutor:
        """The live worker pool for the resolver's engine pair, spawning
        (or respawning, when either side's snapshot moved) on demand.
        Both sides always ride the bootstrap, so searches, self-joins and
        joins against the same counterpart share one pool."""
        right = resolver.engine("R")
        init = WorkerInit(sides=(("L", self._side_init()), ("R", right._side_init())))
        if self._pool is not None and init == self._pool_init:
            return self._pool
        self._close_pool()
        n = self.config.num_processes or os.cpu_count() or 1
        self._pool = ParallelExecutor(init, n)
        self._pool_init = init
        return self._pool

    def _side_init(self) -> SideInit:
        return SideInit(
            store_path=self._ensure_snapshot(), config=self.config, adapter=self.adapter
        )

    def _ensure_snapshot(self) -> str:
        """The store directory giving worker processes a mappable,
        row-aligned view of this engine's partitions.

        A store-backed engine that was never mutated hands out its own
        store directory (zero extra bytes on disk).  Otherwise the live
        partitions are spilled once per installed layout — verbatim, pids
        and row numbering preserved (:func:`snapshot_partitions`).
        """
        if self._store is not None and not self._mutated:
            return str(self._store.path)
        if self._spill_dir is None:
            parts = {pid: self.partition(pid) for pid in self.partition_pids()}
            spill = tempfile.mkdtemp(prefix="repro-spill-")
            snapshot_partitions(
                parts, Path(spill) / "store", self.ndim, self.config.num_global_partitions
            )
            self._spill_dir = spill
        return str(Path(self._spill_dir) / "store")

    def _merge_pool_obs(self, tasks: List[_EngineTask], results: Dict[int, Any]) -> None:
        """Fold the pool's per-task observability into the coordinator's.

        Each task's worker-side execution becomes a ``cat="pool"`` span,
        re-based so the batch starts at 0 and ordered by (pool worker,
        start): wall-clock diagnostics, excluded from the simulated
        accounting identities."""
        if self.metrics is not None:
            self.metrics.counter("pool.tasks", len(tasks))
        tracer = self.cluster.tracer
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
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pool_init = None

    def _drop_spill(self) -> None:
        if self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None

    def shutdown(self) -> None:
        """Release process-backend resources: the worker pool and any
        spilled snapshot.  Idempotent, and the engine stays usable — a
        later process-backend call re-creates both."""
        self._close_pool()
        self._drop_spill()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            if getattr(self, "_pool", None) is not None or getattr(self, "_spill_dir", None) is not None:
                self.shutdown()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # search (Section 5)
    # ------------------------------------------------------------------ #

    def search(
        self,
        query: Trajectory,
        tau: float,
        stats: Optional[SearchStats] = None,
    ) -> List[Match]:
        """Distributed threshold similarity search (Definition 2.4).

        Returns every (trajectory, distance) with ``f(T, Q) <= tau``,
        exact and complete for the engine's distance function.
        """
        rows = self._search_rows(
            [query], [tau], None if stats is None else [stats], "search", tau=tau
        )[0]
        return [(self.partition(pid).view(row), d) for pid, row, d in rows]

    def search_batch(
        self,
        queries: List[Trajectory],
        taus: List[float],
        stats: Optional[List[Optional[SearchStats]]] = None,
    ) -> List[List[Match]]:
        """Batched distributed search: one result list per query.

        Object-facing wrapper over :meth:`search_batch_rows` — accepted
        rows, and only those, are materialized as ``Trajectory`` views.
        Results are identical to looping :meth:`search`.
        """
        row_results = self.search_batch_rows(queries, taus, stats)
        return [
            [(self.partition(pid).view(row), d) for pid, row, d in matches]
            for matches in row_results
        ]

    def search_batch_rows(
        self,
        queries: List[Trajectory],
        taus: List[float],
        stats: Optional[List[Optional[SearchStats]]] = None,
    ) -> List[List[Tuple[int, int, float]]]:
        """The row-native batched search: accepted ``(pid, dataset row,
        distance)`` triples per query, no ``Trajectory`` materialized
        anywhere on the path.

        Queries are grouped by relevant partition, and each partition
        answers all of its queries in one frontier sweep over the columnar
        trie (one simulated task per partition, charged for the whole
        group).
        """
        return self._search_rows(queries, taus, stats, "search_batch", n_queries=len(queries))

    def _search_rows(
        self,
        queries: List[Trajectory],
        taus: List[float],
        stats: Optional[List[Optional[SearchStats]]],
        job: str,
        k: Optional[int] = None,
        **job_args: object,
    ) -> List[List[Tuple[int, int, float]]]:
        """The one coordinator of ``search`` tasks, under the caller's job
        span: ``(pid, dataset row, distance)`` triples per query.

        ``k=None`` is the threshold search: one round over each query's
        relevant partitions.  A finite ``k`` is a best-first kNN within
        each query's ``tau``: a query asks for its partitions in
        endpoint-bound order in waves of 1, 2, 4 ..., each cut at its k-th
        distance so far, and gets its ``k`` nearest by ``(distance, id)``.
        A round ships one task per partition, in pid order, carrying every
        query that asks for it with that query's ``tau`` or k-th distance.
        """
        if len(queries) != len(taus):
            raise ValueError("queries and taus must have equal length")
        if stats is not None and len(stats) != len(queries):
            raise ValueError("stats must have one (possibly None) entry per query")
        self._check_query(taus, queries)
        self._sync_streams()
        want = None if k is None else min(k, len(self))
        if want == 0:
            return [[] for _ in queries]
        tracer = self.cluster.tracer
        track = stats is not None or tracer is not None or self.metrics is not None
        internal = [SearchStats() for _ in queries] if track else None
        resolver = _LocalResolver(self)
        results: List[List[Tuple[int, int, float]]] = [[] for _ in queries]
        #: per kNN query: its nearest so far, sorted, at most ``want`` long
        best: List[List[Tuple[float, int, int, int]]] = [[] for _ in queries]  # (d, id, pid, row)
        orders = [] if k is None else [
            self.global_index.nearest_partitions(q.points, self.adapter) for q in queries
        ]
        at = [0] * len(queries)  # per kNN query: partitions of its order asked so far

        def ask(i: int, wave: int) -> Tuple[float, List[int]]:
            # query i's distance bound and the partitions it asks this round
            if k is None:
                return taus[i], self.global_index.relevant_partitions(
                    queries[i].points, taus[i], self.adapter
                )
            kth = best[i][-1][0] if len(best[i]) == want else taus[i]
            # sorted by bound, so the cut keeps a prefix and an empty wave
            # means every later one is empty too
            order = orders[i][at[i] : at[i] + (1 << wave)]
            pids = [pid for bound, pid in order if bound <= slack(kth)]
            at[i] += len(pids)
            return kth, pids

        live = list(range(len(queries)))
        waves = n_tasks = 0
        with self._job(job, **job_args, **({} if k is None else {"k": k})):
            while live:
                asks = {i: ask(i, waves) for i in live}
                # a threshold search is one round; a kNN query that asks
                # for no partition is answered
                live = [i for i in live if k is not None and asks[i][1]]
                by_pid: Dict[int, List[int]] = {}
                for i, (_, pids) in asks.items():
                    if internal is not None:
                        internal[i].relevant_partitions += len(pids)
                    for pid in pids:
                        by_pid.setdefault(pid, []).append(i)
                if not by_pid:
                    break
                tasks = [
                    _EngineTask(
                        spec=TaskSpec(
                            task_id=tid,
                            kind="search",
                            side="L",
                            partition_id=pid,
                            payload=(
                                tuple(queries[i].points for i in by_pid[pid]),
                                tuple(asks[i][0] for i in by_pid[pid]),
                                want,
                                track,
                            ),
                        ),
                        work=self.global_index.meta(pid).size * len(by_pid[pid]),
                        tag="search.partition" if k is None else "knn.topk",
                        cluster_pid=pid,
                    )
                    for tid, pid in enumerate(sorted(by_pid))
                ]

                def on_result(task: _EngineTask, result: Any) -> None:
                    match_lists, stats_list = result
                    pid = task.spec.partition_id
                    idxs = by_pid[pid]
                    if stats_list is not None:
                        # a kNN task interleaves filter and verify rounds:
                        # one span, not subdivided
                        if tracer is not None and k is None:
                            merged = SearchStats()
                            for ts in stats_list:
                                merged.merge(ts)
                            self._subdivide_task(tracer, merged)
                        for i, ts in zip(idxs, stats_list):
                            internal[i].merge(ts)
                    for i, matches in zip(idxs, match_lists):
                        if k is None:
                            results[i].extend((pid, row, d) for row, d in matches)
                        else:
                            found = [(d, traj, pid, row) for row, d, traj in matches]
                            best[i] = sorted(best[i] + found)[:want]

                self._run_tasks(tasks, resolver, on_result)
                waves += 1
                n_tasks += len(tasks)
        if internal is not None:
            if stats is not None:
                for i, s in enumerate(stats):
                    if s is not None:
                        s.merge(internal[i])
            if self.metrics is not None:
                job_stats = SearchStats()
                for s in internal:
                    job_stats.merge(s)
                if k is None:
                    self.metrics.counter("search.jobs")
                    self.metrics.absorb("search", job_stats)
                else:
                    self.metrics.counter("knn.jobs", len(queries))
                    self.metrics.counter("knn.waves", waves)
                    self.metrics.counter("knn.tasks", n_tasks)
                    self.metrics.counter("knn.partitions_skipped", sum(map(len, orders)) - sum(at))
                    self.metrics.absorb("knn.filter", job_stats.filter)
                    self.metrics.absorb("knn.verify", job_stats.verify)
        if k is None:
            return results
        return [[(pid, row, d) for d, _, pid, row in nearest] for nearest in best]

    def search_ids(self, query: Trajectory, tau: float) -> List[int]:
        """Sorted ids of matching trajectories (brute-force-comparable)."""
        return sorted(t.traj_id for t, _ in self.search(query, tau))

    def count_candidates(self, query: Trajectory, tau: float) -> int:
        """Total trie candidates across relevant partitions (Fig 17 metric)."""
        self._sync_streams()
        relevant = self.global_index.relevant_partitions(query.points, tau, self.adapter)
        return sum(
            int(self.trie(pid).filter_candidates(query.points, tau, self.adapter).shape[0])
            for pid in relevant
        )

    # ------------------------------------------------------------------ #
    # join (Section 6)
    # ------------------------------------------------------------------ #

    def join(
        self,
        other: "DITAEngine",
        tau: float,
        use_orientation: bool = True,
        use_division: bool = True,
        stats: Optional[JoinStats] = None,
    ) -> List[JoinPair]:
        """Distributed threshold similarity join (Definition 2.5).

        Returns (this id, other id, distance) for every cross pair within
        ``tau``, the distance evaluated as ``exact(this row, other row)``.
        ``use_orientation``/``use_division`` toggle the Section 6
        load-balancing mechanisms (for the Figure 16 ablation).
        """
        return self._join(other, tau, False, use_orientation, use_division, stats)

    def self_join(
        self,
        tau: float,
        use_orientation: bool = True,
        use_division: bool = True,
        stats: Optional[JoinStats] = None,
    ) -> List[JoinPair]:
        """Join of the dataset with itself: (smaller id, greater id,
        distance) for each unordered pair of distinct trajectories within
        ``tau``, once — the pairs of ``join(self)`` with ``a < b``, bit for
        bit, with each pair verified once instead of twice."""
        return self._join(self, tau, True, use_orientation, use_division, stats)

    def _join(
        self,
        other: "DITAEngine",
        tau: float,
        self_join: bool,
        use_orientation: bool,
        use_division: bool,
        stats: Optional[JoinStats],
    ) -> List[JoinPair]:
        self._check_query([tau])
        self._sync_streams()
        if other is not self:
            other._sync_streams()
        # a joint cluster namespace: re-place both engines' partitions and
        # register both sides' lineage closures under the joint ids
        cluster = self.cluster
        left_pids = self.partition_pids()
        right_pids = [self.n_partitions + pid for pid in other.partition_pids()]
        cluster.place_partitions(left_pids + right_pids)
        self._register_rebuilds(cluster)
        other._register_rebuilds(cluster, offset=self.n_partitions)
        executor = JoinExecutor(self, other, self.adapter, cluster, self.config, self_join)
        js = stats
        if js is None and self.metrics is not None:
            js = JoinStats()
        with self._job("join", tau=tau):
            pairs = executor.execute(tau, use_orientation, use_division, js)
        if self.metrics is not None and js is not None:
            self.metrics.counter("join.jobs")
            self.metrics.absorb("join", js)
        return pairs


def _info_from_store_meta(meta) -> PartitionInfo:
    """Catalog :class:`~repro.storage.store.PartitionMeta` → master-side
    :class:`PartitionInfo` (no block bytes touched)."""
    return PartitionInfo(
        partition_id=meta.partition_id,
        mbr_first=meta.mbr_first,
        mbr_last=meta.mbr_last,
        size=meta.n_trajectories,
        nbytes=meta.nbytes,
        min_len=meta.min_len,
    )
