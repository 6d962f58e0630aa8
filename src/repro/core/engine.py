"""The DITA engine: the library's primary entry point.

``DITAEngine`` owns one indexed dataset and runs searches and joins on a
simulated cluster.  What a Spark driver plus its executors would hold —
the partitions, global index, tries and buffered writes — is its
:class:`~repro.core.runtime.PartitionRuntime` (``engine.runtime``); its
task batches run through its :class:`~repro.core.execution.TaskExecutor`
(``engine.executor``).  The hot paths move columnar *rows* through the
kernels and materialize ``Trajectory`` objects only for accepted results.

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

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..cluster.clock import Stopwatch
from ..cluster.simulator import Cluster
from ..cluster.tasks import TaskSpec
from ..obs import MetricsRegistry
from ..storage.columnar import ColumnarDataset
from ..storage.generations import GenerationalStore
from ..trajectory.trajectory import Trajectory
from .adapters import IndexAdapter, get_adapter
from .config import DITAConfig
from .execution import EngineTask, LocalResolver, TaskExecutor, subdivide_task
from .global_index import GlobalIndex, partition_trajectories
from .join import JoinExecutor, JoinPair
from .numerics import slack
from .runtime import PartitionRuntime
from .search import Match
from .trie import TrieIndex
from .verify import Verifier


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

    ``build_time_s`` is the construction's wall time; simulated metrics
    never read it — they are priced by the cluster's deterministic
    measure hook.
    """

    def __init__(
        self,
        dataset: "ColumnarDataset | Iterable[Trajectory]",
        config: Optional[DITAConfig] = None,
        distance: "str | IndexAdapter" = "dtw",
        cluster: Optional[Cluster] = None,
    ) -> None:
        config = config or DITAConfig()
        data = ColumnarDataset.from_trajectories(dataset)
        watch = Stopwatch()
        groups = partition_trajectories(data, config.num_global_partitions)
        self._open(config, distance, cluster, watch, dict(enumerate(groups)))

    @classmethod
    def from_store(
        cls,
        store,
        config: Optional[DITAConfig] = None,
        distance: "str | IndexAdapter" = "dtw",
        cluster: Optional[Cluster] = None,
    ) -> "DITAEngine":
        """Cold-start an engine from a persisted
        :class:`~repro.storage.store.TrajectoryStore`, adopting its
        partitioning: the global index comes from catalog metadata alone,
        and a partition's block and trie are loaded only when a query or
        write first reaches it — globally pruned partitions are never read.
        Results and stats equal a bulk build with the store's
        ``n_groups``; blocks are not re-validated.
        """
        self = cls.__new__(cls)
        self._open(config or DITAConfig(), distance, cluster, Stopwatch(), {}, store)
        return self

    @classmethod
    def from_partitions(
        cls,
        parts: Dict[int, ColumnarDataset],
        config: Optional[DITAConfig] = None,
        distance: "str | IndexAdapter" = "dtw",
        cluster: Optional[Cluster] = None,
    ) -> "DITAEngine":
        """Bulk-build an engine adopting a *given* partition assignment
        verbatim (``{pid: dataset}``; empty partitions are dropped).

        This is the differential-testing oracle for streaming ingestion:
        handing it a streamed engine's ``{pid: engine.partition(pid)}``
        yields a freshly bulk-built twin with the same partition ids, row
        numbering and (therefore) byte-identical query results and stats.
        """
        self = cls.__new__(cls)
        watch = Stopwatch()
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
        self.runtime.generations = gens
        return self

    def _open(
        self,
        config: DITAConfig,
        distance: "str | IndexAdapter",
        cluster: Optional[Cluster],
        watch: Stopwatch,
        partitions: Dict[int, ColumnarDataset],
        store=None,
    ) -> None:
        """The construction path every constructor shares; they differ
        only in where the runtime's ``partitions`` and ``store`` come from."""
        self.adapter = get_adapter(distance) if isinstance(distance, str) else distance
        #: the filter chain; an ablation swaps in ``Verifier(adapter, mbr, cells)``
        self.verifier = Verifier(self.adapter)
        #: the observability layer (None until :meth:`enable_tracing`)
        self.metrics: Optional[MetricsRegistry] = None
        self.runtime = PartitionRuntime(config, cluster, partitions, store)
        self.cluster = self.runtime.cluster
        self.executor = TaskExecutor(self)
        self.build_time_s = watch.elapsed()

    # ------------------------------------------------------------------ #
    # partitions (see PartitionRuntime)
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> DITAConfig:
        return self.runtime.config

    @config.setter
    def config(self, config: DITAConfig) -> None:
        self.runtime.config = config

    def partition_pids(self) -> List[int]:
        """Every partition id, indexed or not, ascending."""
        return self.runtime.partition_pids()

    def trie(self, pid: int) -> TrieIndex:
        """The partition's local index; the only read that indexes."""
        return self.runtime.trie(pid)

    def partition(self, pid: int) -> ColumnarDataset:
        """The partition's rows; never indexes a partition."""
        return self.runtime.partition(pid)

    @property
    def global_index(self) -> GlobalIndex:
        return self.runtime.global_index

    @property
    def n_partitions(self) -> int:
        return self.runtime.n_partitions

    def __len__(self) -> int:
        return len(self.runtime)

    @property
    def n_pending(self) -> int:
        """Buffered write operations not yet folded into the index."""
        return self.runtime.n_pending

    @property
    def generation(self) -> int:
        """The mutation-generation counter: a monotonic integer that
        advances on every *logical* mutation — a buffered append, extend or
        remove (before any flush), :meth:`merge`, :meth:`repartition`.  A
        delta flush keeps the logical rows, so it does not advance it; it
        bumps the flushed partitions' :meth:`partition_version` only.
        External caches (:mod:`repro.serving`) key entries on it."""
        return self.runtime.generation

    def partition_version(self, pid: int) -> int:
        """The partition-granular mutation counter: advances only when a
        write, flush, merge or repartition touches partition ``pid``, so a
        cache entry elsewhere outlives mutations of other partitions."""
        return self.runtime.versions.get(pid, 0)

    def sync_for_read(self) -> int:
        """Fold pending deltas in (every query's flush-on-read) and return
        the :attr:`generation` — the stamp caches key on: reads until the
        next mutation see exactly this generation's data."""
        self.runtime.sync()
        return self.runtime.generation

    def trajectory(self, traj_id: int) -> Trajectory:
        """One trajectory by id (KeyError when absent), for result
        rendering; the id map routes it, so no partition is indexed."""
        self.runtime.sync()
        return self.partition(self.runtime.id_map()[traj_id]).by_id(traj_id)

    def index_size_bytes(self) -> Tuple[int, int]:
        """(global index bytes, local index bytes) — Table 5 metric; only
        the partitions indexed so far count."""
        local = sum(trie.size_bytes() for trie in self.runtime.loaded().values())
        return self.global_index.size_bytes(), local

    # ------------------------------------------------------------------ #
    # observability (repro.obs) and fault tolerance
    # ------------------------------------------------------------------ #

    def enable_tracing(self) -> None:
        """Install a span tracer on the cluster and a metrics registry on
        the engine.  Idempotent; results are identical either way."""
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        if self.cluster.tracer is None:
            self.cluster.install_tracer()

    @property
    def tracer(self):
        """The cluster's span tracer (None when tracing is off)."""
        return self.cluster.tracer

    def resolver(self, right: Optional["DITAEngine"] = None) -> LocalResolver:
        """A fresh task resolver over this engine (and a join's ``right``)."""
        return LocalResolver(self, right)

    def fault_report(self):
        """The cluster's fault accounting (None without a fault plan)."""
        return self.cluster.fault_report()

    def shutdown(self) -> None:
        """Release the worker pool and any spilled snapshot.  Idempotent;
        a later process-backend call re-creates both."""
        self.executor.close()

    # ------------------------------------------------------------------ #
    # writes (see PartitionRuntime: delta buffers, merge, repartitioning)
    # ------------------------------------------------------------------ #

    def append_trajectory(self, traj_id: int, points) -> int:
        """Buffer a new trajectory (:meth:`PartitionRuntime.append`)."""
        return self.runtime.append(traj_id, points)

    def extend_trajectory(self, traj_id: int, extra_points) -> None:
        """Buffer extra points onto an existing trajectory (KeyError if absent)."""
        self.runtime.extend(traj_id, extra_points)

    def remove_trajectory(self, traj_id: int) -> bool:
        """Buffer a removal (False when the id is unknown)."""
        return self.runtime.remove(traj_id)

    def insert(self, traj: Trajectory) -> None:
        """:meth:`append_trajectory` for a :class:`Trajectory`."""
        self.runtime.append(traj.traj_id, traj.points)

    def remove(self, traj_id: int) -> bool:
        """:meth:`remove_trajectory` under its short name."""
        return self.runtime.remove(traj_id)

    def flush_deltas(self, pids: Optional[Iterable[int]] = None) -> int:
        """Fold pending deltas in (:meth:`PartitionRuntime.flush`)."""
        return self.runtime.flush(pids)

    def attach_generations(self, root) -> GenerationalStore:
        """Attach (opening or initialising) the store :meth:`merge` compacts into."""
        self.runtime.generations = GenerationalStore.open_or_init(root)
        return self.runtime.generations

    @property
    def generations(self) -> Optional[GenerationalStore]:
        return self.runtime.generations

    def merge(self, prune: bool = False) -> int:
        """Compact into a new store generation (:meth:`PartitionRuntime.merge`)."""
        return self.runtime.merge(prune)

    def maybe_merge(self, prune: bool = False) -> bool:
        """:meth:`merge` once the writes since the last pass ``MERGE_TRIGGER``."""
        return self.runtime.maybe_merge(prune)

    def skew_ratio(self) -> float:
        """Largest partition size over the mean, pending rows included."""
        return self.runtime.skew_ratio()

    def repartition(self) -> bool:
        """Re-partition the rows (:meth:`PartitionRuntime.repartition`)."""
        return self.runtime.repartition()

    def maybe_repartition(self) -> bool:
        """:meth:`repartition` once :meth:`skew_ratio` passes its trigger."""
        return self.runtime.maybe_repartition()

    # ------------------------------------------------------------------ #
    # search (Section 5)
    # ------------------------------------------------------------------ #

    def search(
        self,
        query: Trajectory,
        tau: float,
        stats: Optional[MetricsRegistry] = None,
    ) -> List[Match]:
        """Distributed threshold similarity search (Definition 2.4).

        Returns every (trajectory, distance) with ``f(T, Q) <= tau``,
        exact and complete for the engine's distance function.  ``stats``
        receives the counters the search adds to ``engine.metrics``
        (:meth:`scan_rows`).
        """
        rows = self.scan_rows([query], [tau], stats, "search", tau=tau)[0]
        return [(self.partition(pid).view(row), d) for pid, row, d in rows]

    def search_batch(
        self,
        queries: List[Trajectory],
        taus: List[float],
        stats: Optional[MetricsRegistry] = None,
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
        stats: Optional[MetricsRegistry] = None,
    ) -> List[List[Tuple[int, int, float]]]:
        """The row-native batched search: accepted ``(pid, dataset row,
        distance)`` triples per query, no ``Trajectory`` materialized
        anywhere on the path.

        Queries are grouped by relevant partition, and each partition
        answers all of its queries in one frontier sweep over the columnar
        trie (one simulated task per partition, charged for the whole
        group).  ``stats`` receives the whole batch's counters.
        """
        return self.scan_rows(queries, taus, stats, "search_batch", n_queries=len(queries))

    def scan_rows(
        self,
        queries: List[Trajectory],
        taus: List[float],
        stats: Optional[MetricsRegistry],
        job: str,
        k: Optional[int] = None,
        **job_args: object,
    ) -> List[List[Tuple[int, int, float]]]:
        """The one coordinator of ``search`` tasks, under a job span named
        ``job``: ``(pid, dataset row, distance)`` triples per query.

        ``k=None`` is the threshold search: one round over each query's
        relevant partitions.  A finite ``k`` is a best-first kNN within
        each query's ``tau``: a query asks for its partitions in
        endpoint-bound order in waves of 1, 2, 4 ..., each cut at its k-th
        distance so far, and gets its ``k`` nearest by ``(distance, id)``.
        A round ships one task per partition, in pid order, carrying every
        query that asks for it with that query's ``tau`` or k-th distance.

        The job counts into one registry: the partitions each query asks
        for (``relevant_partitions``) and, merged, every task's stage
        counts (``filter.*``, ``verify.*``).  It goes under the job's
        prefix — ``search``, or ``knn`` for a finite ``k`` — into
        ``engine.metrics`` and into ``stats``.
        """
        if len(queries) != len(taus):
            raise ValueError("queries and taus must have equal length")
        self.runtime.check_query(taus, queries)
        self.runtime.sync()
        want = None if k is None else min(k, len(self))
        if want == 0:
            return [[] for _ in queries]
        gi = self.runtime.global_index
        tracer = self.cluster.tracer
        counts = MetricsRegistry()
        resolver = self.resolver()
        results: List[List[Tuple[int, int, float]]] = [[] for _ in queries]
        #: per kNN query: its nearest so far, sorted, at most ``want`` long
        best: List[List[Tuple[float, int, int, int]]] = [[] for _ in queries]  # (d, id, pid, row)
        orders = [] if k is None else [gi.nearest_partitions(q.points, self.adapter) for q in queries]
        at = [0] * len(queries)  # per kNN query: partitions of its order asked so far

        def ask(i: int, wave: int) -> Tuple[float, List[int]]:
            # query i's distance bound and the partitions it asks this round
            if k is None:
                return taus[i], gi.relevant_partitions(queries[i].points, taus[i], self.adapter)
            kth = best[i][-1][0] if len(best[i]) == want else taus[i]
            # sorted by bound, so the cut keeps a prefix and an empty wave
            # means every later one is empty too
            order = orders[i][at[i] : at[i] + (1 << wave)]
            pids = [pid for bound, pid in order if bound <= slack(kth)]
            at[i] += len(pids)
            return kth, pids

        live = list(range(len(queries)))
        waves = n_tasks = 0
        with self.executor.job(job, **job_args, **({} if k is None else {"k": k})):
            while live:
                asks = {i: ask(i, waves) for i in live}
                # a threshold search is one round; a kNN query that asks
                # for no partition is answered
                live = [i for i in live if k is not None and asks[i][1]]
                by_pid: Dict[int, List[int]] = {}
                for i, (_, pids) in asks.items():
                    counts.counter("relevant_partitions", len(pids))
                    for pid in pids:
                        by_pid.setdefault(pid, []).append(i)
                if not by_pid:
                    break
                tasks = [
                    EngineTask(
                        TaskSpec(tid, "search", "L", pid, (
                            tuple(queries[i].points for i in by_pid[pid]),
                            tuple(asks[i][0] for i in by_pid[pid]),
                            want,
                        )),
                        work=gi.meta(pid).size * len(by_pid[pid]),
                        tag="search.partition" if k is None else "knn.topk",
                        cluster_pid=pid,
                    )
                    for tid, pid in enumerate(sorted(by_pid))
                ]

                def on_result(task: EngineTask, result: Any) -> None:
                    match_lists, task_counts = result
                    pid = task.spec.partition_id
                    idxs = by_pid[pid]
                    counts.merge(task_counts)
                    # a kNN task interleaves filter and verify rounds: one
                    # span, not subdivided
                    if tracer is not None and k is None:
                        subdivide_task(tracer, task_counts)
                    for i, matches in zip(idxs, match_lists):
                        if k is None:
                            results[i].extend((pid, row, d) for row, d in matches)
                        else:
                            found = [(d, traj, pid, row) for row, d, traj in matches]
                            best[i] = sorted(best[i] + found)[:want]

                self.executor.run(tasks, resolver, on_result)
                waves += 1
                n_tasks += len(tasks)
        if k is None:
            counts.counter("jobs")
            self._publish("search", counts, stats)
            return results
        counts.counter("jobs", len(queries))
        counts.counter("waves", waves)
        counts.counter("tasks", n_tasks)
        counts.counter("partitions_skipped", sum(map(len, orders)) - sum(at))
        self._publish("knn", counts, stats)
        return [[(pid, row, d) for d, _, pid, row in nearest] for nearest in best]

    def search_ids(self, query: Trajectory, tau: float) -> List[int]:
        """Sorted ids of matching trajectories (brute-force-comparable)."""
        return sorted(t.traj_id for t, _ in self.search(query, tau))

    def count_candidates(self, query: Trajectory, tau: float) -> int:
        """Total trie candidates across relevant partitions (Fig 17 metric)."""
        self.runtime.sync()
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
        stats: Optional[MetricsRegistry] = None,
    ) -> List[JoinPair]:
        """Distributed threshold similarity join (Definition 2.5).

        Returns (this id, other id, distance) for every cross pair within
        ``tau``, the distance evaluated as ``exact(this row, other row)``.
        ``use_orientation``/``use_division`` toggle the Section 6
        load-balancing mechanisms (for the Figure 16 ablation).  ``stats``
        receives the ``join.*`` counters the join adds to
        ``engine.metrics``.
        """
        return self._join(other, tau, False, use_orientation, use_division, stats)

    def self_join(
        self,
        tau: float,
        use_orientation: bool = True,
        use_division: bool = True,
        stats: Optional[MetricsRegistry] = None,
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
        stats: Optional[MetricsRegistry],
    ) -> List[JoinPair]:
        if not isinstance(other, DITAEngine):
            raise TypeError(f"other must be a DITAEngine, got {type(other).__name__}")
        if other.runtime.ndim != self.runtime.ndim:
            raise ValueError(
                f"cannot join a {self.runtime.ndim}-d engine with a {other.runtime.ndim}-d one "
                "(other has another dimensionality)"
            )
        self.runtime.check_query([tau])
        self.runtime.sync()
        if other is not self:
            other.runtime.sync()
        executor = JoinExecutor(self, other, self.adapter, self.cluster, self.config, self_join)
        with self.executor.job("join", tau=tau):
            pairs, counts = executor.execute(tau, use_orientation, use_division)
        counts.counter("jobs")
        self._publish("join", counts, stats)
        return pairs

    def _publish(self, prefix: str, counts: MetricsRegistry, stats: Optional[MetricsRegistry]) -> None:
        """A job's counters, moved under ``prefix``, into ``engine.metrics``
        (when tracing is on) and the caller's ``stats``: both see the same
        names and values."""
        targets = [t for t in (self.metrics, stats) if t is not None]
        if targets:
            job = counts.under(prefix)
            for target in targets:
                target.merge(job)
