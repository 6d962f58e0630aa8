"""The partition runtime: the one holder of an engine's per-partition state.

What DITA's driver and executors hold between queries (PAPER.md §3): the
partition layout, the global index over it, the buffered writes and the
mutation counters caches key on.  Every layout change — construction, a
delta flush, a merge, a repartition — goes through
:meth:`PartitionRuntime.install`.  :meth:`~PartitionRuntime.trie` is the
only read that indexes; :meth:`~PartitionRuntime.partition` returns rows.
"""

from __future__ import annotations

import numbers
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..cluster.simulator import Cluster
from ..storage.columnar import ColumnarDataset, check_finite, concat_datasets
from ..storage.delta import DeltaPartition
from ..storage.generations import GenerationalStore
from ..storage.store import write_catalog, write_partition_block
from .config import DITAConfig
from .global_index import GlobalIndex, PartitionInfo, partition_info, partition_trajectories
from .trie import TrieIndex

#: a partition layout: pid -> its trie, or None for a not yet indexed store block
Layout = Dict[int, Optional[TrieIndex]]

#: :meth:`PartitionRuntime.maybe_merge` merges once the rows written since
#: the last merge pass this fraction of the engine's rows
MERGE_TRIGGER = 0.25

#: the range a trajectory id must fit: ids are stored as int64
_INT64 = np.iinfo(np.int64)


class PartitionRuntime:
    """The partitions of one engine: ``parts`` in memory, validated and
    bulk-indexed here (empty ones dropped), and ``store`` blocks, mapped
    and indexed on demand.  The ``cluster`` (default: a worker per
    partition, at most 16) places them, holds their lineage and runs a
    merge's writes and a repartition's transfers."""

    def __init__(
        self,
        config: DITAConfig,
        cluster: Optional[Cluster],
        parts: Dict[int, ColumnarDataset],
        store=None,
    ) -> None:
        self.config = config
        parts = {pid: part for pid, part in sorted(parts.items()) if len(part)}
        for part in parts.values():
            check_finite(part.point_coords)
        unloaded = sorted(store.metas) if store is not None else []
        if not parts and not unloaded:
            raise ValueError("cannot index an empty dataset")
        n = len(parts) + len(unloaded)
        self.cluster = cluster if cluster is not None else Cluster(n_workers=min(16, max(1, n)))
        #: point dimensionality, kept when removals empty every partition
        self.ndim = next(iter(parts.values())).ndim if parts else store.ndim
        #: per-partition write buffers, folded in by :meth:`flush`
        self._deltas: Dict[int, DeltaPartition] = {}
        #: a flush is running (reads then skip their flush-on-read)
        self.in_flush = False
        #: writes since the last merge (the merge trigger's numerator)
        self.rows_since_merge = 0
        #: the generational store :meth:`merge` compacts into, if any
        self.generations: Optional[GenerationalStore] = None
        #: the caches' mutation counters: ``generation`` moves on every
        #: logical mutation, ``versions[pid]`` on every change to pid's rows
        self.generation = 0
        self.versions: Dict[int, int] = {}
        #: layouts installed so far: what mirrors a layout (a worker pool,
        #: a spilled snapshot) is stale once this moves
        self.installs = 0
        layout: Layout = {pid: self.build_index(part) for pid, part in parts.items()}
        layout.update(dict.fromkeys(unloaded))
        self.install(layout, store)

    def build_index(self, part: ColumnarDataset) -> TrieIndex:
        """A partition's trie, its verification artifacts stacked now so
        the first query doesn't pay for them."""
        trie = TrieIndex(part, self.config)
        trie.batch_block()
        return trie

    def install(self, layout: Layout, store, mutated: bool = False) -> None:
        """Adopt a partition layout — the one place the partitions change.

        ``store`` backs the layout's ``None`` entries; ``mutated`` says the
        indexed blocks are no longer the store's (process workers then need
        a spilled snapshot).  What derives from the layout follows: the
        global index (one row per partition), placement, lineage, the id
        map and :attr:`installs`."""
        self._tries, self.store, self.mutated = layout, store, mutated
        pids = self.partition_pids()
        self.global_index = GlobalIndex.from_infos(
            [
                partition_info(pid, layout[pid].dataset)
                if layout[pid] is not None
                else _info_from_store_meta(store.metas[pid])
                for pid in pids
            ],
            self.config,
        )
        # left engine partitions occupy [0, n); a right engine in a join is
        # offset by n (JoinExecutor._cluster_pid)
        self.cluster.place_partitions(pids)
        self.register_rebuilds(self.cluster)
        #: the lazy id -> partition routing map (see :meth:`id_map`)
        self._ids: Optional[Dict[int, int]] = None
        self.installs += 1

    # -- reads ---------------------------------------------------------- #

    def partition_pids(self) -> List[int]:
        return sorted(self._tries)

    @property
    def n_partitions(self) -> int:
        return len(self._tries)

    def trie(self, pid: int) -> TrieIndex:
        """The partition's trie — the only read that indexes: a store block
        is indexed when first asked for (its verification artifacts wait
        for the first query)."""
        trie = self._tries[pid]
        if trie is None:
            trie = self._tries[pid] = TrieIndex(self.store.partition(pid), self.config)
        return trie

    def partition(self, pid: int) -> ColumnarDataset:
        """The partition's rows; a store block is mapped, never indexed."""
        trie = self._tries[pid]
        return self.store.partition(pid) if trie is None else trie.dataset

    def loaded(self) -> Dict[int, TrieIndex]:
        """The indexed partitions' tries by pid (a copy)."""
        return {pid: trie for pid, trie in self._tries.items() if trie is not None}

    def pending_pids(self) -> List[int]:
        """The partitions holding buffered writes, ascending."""
        return sorted(self._deltas)

    def __len__(self) -> int:
        indexed = sum(m.size for m in self.global_index.partitions_meta)
        return indexed + sum(d.net_rows for d in self._deltas.values())

    @property
    def n_pending(self) -> int:
        return sum(d.n_pending for d in self._deltas.values())

    def id_map(self) -> Dict[int, int]:
        """``trajectory id -> partition id`` over base and pending rows
        (read-only to callers).  Built lazily from the id columns — no
        partition is indexed — and dropped by every install."""
        if self._ids is None:
            ids: Dict[int, int] = {}
            for pid in self.partition_pids():
                ids.update(dict.fromkeys(self.partition(pid).traj_ids.tolist(), pid))
            for pid, delta in self._deltas.items():
                for tid in delta.removed:
                    ids.pop(tid, None)
                for tid in delta.appended:
                    ids[tid] = pid
            self._ids = ids
        return self._ids

    def register_rebuilds(self, cluster: Cluster, offset: int = 0) -> None:
        """Register each partition's lineage closure with ``cluster``: the
        survivor inheriting a crashed worker's partition re-runs its index
        build for real (deterministic, so answers stay identical)."""
        for pid in self.partition_pids():
            cluster.register_rebuild(
                offset + pid, self._rebuild(self._tries, pid), work=self.global_index.meta(pid).size
            )

    def _rebuild(self, layout: Layout, pid: int) -> Callable[[], None]:
        """Re-index ``layout[pid]`` (the live or a staged layout's)."""

        def rebuild() -> None:
            trie = layout[pid]
            layout[pid] = self.build_index(
                self.store.partition(pid) if trie is None else trie.dataset
            )

        return rebuild

    def _bump(self, pids: Iterable[int], logical: bool = True) -> None:
        """Advance ``pids``' versions and, for a logical mutation (all but
        a flush, which keeps the logical rows), the generation."""
        self.generation += logical
        for pid in pids:
            self.versions[pid] = self.versions.get(pid, 0) + 1

    # -- writes --------------------------------------------------------- #

    def checked_points(self, points) -> np.ndarray:
        """A write's points as an ``(n, ndim)`` float64 array; what would
        poison an index (a NaN defeats every MBR test of its partition) is
        a ``ValueError``: no points, another dimensionality, NaN or inf."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != self.ndim:
            raise ValueError(
                f"points must be a non-empty (n, {self.ndim}) array, got shape {pts.shape}"
            )
        check_finite(pts)
        return pts

    @staticmethod
    def checked_id(traj_id) -> int:
        """A write's trajectory id as an ``int``.  Ids are stored as int64,
        so what would be truncated or overflow is a ``ValueError`` naming
        it: a ``bool`` or a value of no integer type (``1007.9`` must not
        address id 1007), or an integer outside int64 (it would make every
        later flush raise)."""
        if isinstance(traj_id, bool) or not isinstance(traj_id, numbers.Integral):
            raise ValueError(f"trajectory id must be an integer, got {traj_id!r}")
        if not _INT64.min <= traj_id <= _INT64.max:
            raise ValueError(f"trajectory id {traj_id} is outside int64")
        return int(traj_id)

    def check_query(self, taus: Iterable[float], queries: Iterable = ()) -> None:
        """The read-side twin of :meth:`checked_points`, first in every
        query: a ``tau`` that is no real number (a ``bool`` included), a
        negative or NaN one (``inf`` is legal) or bad query points raise
        ``ValueError`` — a NaN would fail every comparison and come back
        as an empty or arbitrary answer, a ``True`` would run at 1."""
        for tau in taus:
            if isinstance(tau, bool) or not isinstance(tau, numbers.Real):
                raise ValueError(f"tau must be a real number, got {tau!r}")
            if not tau >= 0:
                raise ValueError(f"tau must be non-negative, got {tau!r}")
        for query in queries:
            self.checked_points(query.points)

    def _delta(self, pid: int) -> DeltaPartition:
        return self._deltas.setdefault(pid, DeltaPartition(self.ndim))

    def append(self, traj_id: int, points) -> int:
        """Buffer a new trajectory in the delta of the partition whose MBR
        pair needs the least enlargement (:meth:`GlobalIndex.route`);
        returns that pid.  O(1): nothing moves until the delta is applied
        (at ``delta_max_rows``, or by the next read, which sees it with
        results byte-identical to a bulk build)."""
        traj_id = self.checked_id(traj_id)
        if traj_id in self.id_map():
            raise ValueError(f"trajectory id {traj_id} already present")
        pts = self.checked_points(points)
        pid = self.global_index.route(pts[0], pts[-1])
        self._delta(pid).append(traj_id, pts)
        self._ids[traj_id] = pid
        self._note_write(pid)
        return pid

    def extend(self, traj_id: int, extra_points) -> None:
        """Buffer extra points onto a trajectory (KeyError when absent): a
        base row is shadowed by a full delta row, a pending one grows."""
        traj_id = self.checked_id(traj_id)
        pid = self.id_map().get(traj_id)
        if pid is None:
            raise KeyError(traj_id)
        pts = self.checked_points(extra_points)
        delta = self._delta(pid)
        if traj_id in delta.appended:
            delta.extend_pending(traj_id, pts)
        else:
            part = self.partition(pid)
            full = np.concatenate([part.points(part.row_of(traj_id)), pts], axis=0)
            delta.replace(traj_id, full)
        self._note_write(pid)

    def remove(self, traj_id: int) -> bool:
        """Buffer a removal (False when the id is unknown)."""
        traj_id = self.checked_id(traj_id)
        ids = self.id_map()
        pid = ids.get(traj_id)
        if pid is None:
            return False
        self._delta(pid).remove(traj_id)
        del ids[traj_id]
        self._note_write(pid)
        return True

    def _note_write(self, pid: int) -> None:
        # a buffered write is already a logical mutation (caches must miss)
        self._bump([pid])
        self.rows_since_merge += 1
        if self._deltas[pid].n_pending >= self.config.delta_max_rows:
            self.flush([pid])

    def flush(self, pids: Optional[Iterable[int]] = None) -> int:
        """Fold pending deltas in; returns the operations applied.

        Each dirty partition becomes one compact dataset (surviving base
        rows, then delta rows by arrival) with a bulk-built trie — the
        canonical layout any bulk build over the same rows has.  The
        logical rows stay, so the flushed pids' versions move and the
        generation does not.  A flush entered during another is a no-op
        (deltas never apply twice), and it is staged: a failure mid-build
        restores the deltas and leaves the layout exactly as before.
        """
        if self.in_flush:
            return 0
        wanted = sorted(self._deltas) if pids is None else sorted(pids)
        items = [(pid, self._deltas.pop(pid)) for pid in wanted if pid in self._deltas]
        items = [(pid, d) for pid, d in items if d]
        if not items:
            return 0
        self.in_flush = True
        applied = 0
        staged: List[Tuple[int, Optional[TrieIndex]]] = []
        try:
            for pid, delta in items:
                applied += delta.n_pending
                part = delta.apply(self.partition(pid) if pid in self._tries else None)
                staged.append((pid, self.build_index(part) if len(part) else None))
        except BaseException:
            # nothing was adopted; put every popped delta back so a retry
            # (or the next read) sees the exact pre-flush pending state
            for pid, delta in items:
                self._deltas[pid] = delta
            raise
        finally:
            self.in_flush = False
        for pid, trie in staged:
            if trie is None:
                self._tries.pop(pid, None)
            else:
                self._tries[pid] = trie
        self._bump([pid for pid, _ in staged], logical=False)
        self.install(self._tries, self.store, mutated=True)
        return applied

    def sync(self) -> None:
        """Fold pending deltas so a read runs over base ∪ delta."""
        if self._deltas and not self.in_flush:
            self.flush()

    def merge(self, prune: bool = False) -> int:
        """Compact the partitions into a new catalog generation and re-base
        onto it; returns the committed generation.

        Each block is written by a task on its partition's worker
        (``tag="merge.partition"``, idempotent under retries), then the
        catalog, then the atomic commit.  Any failure aborts the staging
        directory and re-raises with ``CURRENT`` and the runtime as before.
        Afterwards every partition is a lazily mapped block of the new
        generation (process workers attach to it, no spill); ``prune``
        deletes superseded generations.
        """
        if self.generations is None:
            raise ValueError(
                "no generational store attached; call attach_generations() first"
            )
        self.flush()
        pids = self.partition_pids()
        if not pids:
            raise ValueError("cannot merge an empty engine")
        gens = self.generations
        staging, gen = gens.begin()
        try:
            metas = []
            for pid in pids:
                part = self.partition(pid).compact()
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
        self._bump(set(pids) | set(store.metas))
        self.install(dict.fromkeys(store.metas), store)
        self.rows_since_merge = 0
        if prune:
            gens.prune()
        return gen

    def maybe_merge(self, prune: bool = False) -> bool:
        """Merge once the rows written since the last merge exceed
        :data:`MERGE_TRIGGER` × the size (False without a generational store)."""
        if self.generations is None:
            return False
        total = len(self)
        if total == 0:
            return False
        if self.rows_since_merge / total < MERGE_TRIGGER:
            return False
        self.merge(prune=prune)
        return True

    def skew_ratio(self) -> float:
        """Largest partition size over the mean, pending rows included."""
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
        """Re-run the first/last-point STR partitioning over the logical
        rows and migrate trajectories to their new homes.

        Destination tries are staged, with their lineage, before any
        transfer; the layout is adopted after every transfer lands, so an
        abandoned shipment raises with the old layout fully intact.  One
        :meth:`~repro.cluster.simulator.Cluster.ship` per (source,
        destination) pair charges the rows whose partition changes.
        """
        self.flush()
        old_pids = self.partition_pids()
        if not old_pids:
            return False
        id_to_old = self.id_map()  # nothing is pending: this maps every block
        logical = concat_datasets([self.partition(pid) for pid in old_pids])
        groups = partition_trajectories(logical, self.config.num_global_partitions)
        new_parts = {npid: part for npid, part in enumerate(groups) if len(part)}
        staged: Layout = {npid: self.build_index(part) for npid, part in new_parts.items()}
        # destinations live beside the old partitions during migration:
        # place them, register their lineage, then account the transfers
        offset = max(old_pids) + 1
        self.cluster.place_partitions(
            old_pids + [offset + npid for npid in sorted(new_parts)]
        )
        self.register_rebuilds(self.cluster)
        for npid, part in sorted(new_parts.items()):
            self.cluster.register_rebuild(offset + npid, self._rebuild(staged, npid), work=len(part))
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
        self._bump(set(old_pids) | set(new_parts))
        self.install(staged, None)
        return True

    def maybe_repartition(self) -> bool:
        """Repartition once :meth:`skew_ratio` passes its trigger."""
        if self.skew_ratio() <= self.config.repartition_skew_ratio:
            return False
        return self.repartition()


def _info_from_store_meta(m) -> PartitionInfo:
    """A catalog entry as master-side metadata (no block bytes touched)."""
    return PartitionInfo(
        m.partition_id, m.mbr_first, m.mbr_last, m.n_trajectories, m.nbytes, m.min_len
    )
