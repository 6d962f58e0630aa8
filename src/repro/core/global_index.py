"""Global partitioning and the global index (Sections 4.2.1-4.2.2).

Trajectories are STR-grouped into ``NG`` buckets by first point, each bucket
STR-grouped into ``NG`` sub-buckets by last point; every sub-bucket is a
partition (so similar trajectories land together and partitions hold
roughly equal counts).  Partitioning and the per-partition metadata are
computed straight from the columnar summary arrays
(:class:`~repro.storage.columnar.ColumnarDataset`) — no trajectory objects
are iterated anywhere on this path.  The global index is a pair of R-trees
over each partition's first-point MBR (``MBR_f``) and last-point MBR
(``MBR_l``); pruning keeps partitions with

``MinDist(q1, MBR_f) + MinDist(qn, MBR_l) <= tau``

(for additive distances; for Fréchet the larger term is compared to
``tau``, and a distance that pins neither endpoint keeps every partition —
the adapter's ``endpoint_bound`` trait says which, and
:func:`repro.core.bounds.endpoint_bound` evaluates it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.mbr import MBR
from ..spatial.rtree import RTree
from ..storage.columnar import ColumnarDataset
from .adapters import IndexAdapter
from .bounds import endpoint_bound
from .config import DITAConfig
from .numerics import slack

#: R-tree node capacity of the two partition-MBR trees
RTREE_FANOUT = 16


@dataclass
class PartitionInfo:
    """Metadata the master keeps per partition."""

    partition_id: int
    mbr_first: MBR
    mbr_last: MBR
    size: int
    nbytes: int
    #: shortest member trajectory; the endpoint-sum bound
    #: ``d(t1,q1) + d(tm,qn) <= DTW`` double-counts the single shared cell
    #: when both sides have length 1, so predicates fall back to
    #: ``max(df, dl)`` for such pairs
    min_len: int = 2


def partition_info(partition_id: int, part: ColumnarDataset) -> PartitionInfo:
    """The master-side metadata of one partition, straight from the
    dataset's vectorized summary arrays.  The partition must be non-empty."""
    return PartitionInfo(
        partition_id=partition_id,
        mbr_first=MBR.of_points(part.firsts),
        mbr_last=MBR.of_points(part.lasts),
        size=part.n_rows,
        nbytes=part.nbytes(),
        min_len=int(part.lengths.min()),
    )


def partition_trajectories(dataset, n_groups: int) -> List[ColumnarDataset]:
    """First/last-point STR partitioning into up to ``n_groups**2`` partitions.

    Groups by first point into ``n_groups`` rank-balanced buckets (STR on
    the first axis, then the second), then each bucket by last point.
    Every trajectory is assigned to exactly one partition.  ``dataset`` is
    a :class:`ColumnarDataset` or any iterable of trajectories (packed into
    one); the result is one compact dataset per partition, sliced with a
    single vectorized gather.
    """
    data = ColumnarDataset.from_trajectories(dataset)
    from ..storage.columnar import partition_rows

    return [data.subset(rows) for rows in partition_rows(data, n_groups)]


class GlobalIndex:
    """The master-side index over partition MBRs."""

    def __init__(self, partitions: Sequence, config: Optional[DITAConfig] = None) -> None:
        infos = []
        for pid, part in enumerate(partitions):
            part = ColumnarDataset.from_trajectories(part)
            if len(part) == 0:
                continue
            infos.append(partition_info(pid, part))
        self._init_from_infos(infos, config)

    @classmethod
    def from_infos(
        cls, infos: Sequence[PartitionInfo], config: Optional[DITAConfig] = None
    ) -> "GlobalIndex":
        """Build the master-side index from precomputed partition metadata
        (e.g. a persisted store's catalog) — no partition bytes touched."""
        self = cls.__new__(cls)
        self._init_from_infos(list(infos), config)
        return self

    def _init_from_infos(
        self, infos: List[PartitionInfo], config: Optional[DITAConfig]
    ) -> None:
        self.config = config or DITAConfig()
        self.partitions_meta = infos
        self.rtree_first = RTree(
            [(m.mbr_first, m.partition_id) for m in infos], max_entries=RTREE_FANOUT
        )
        self.rtree_last = RTree(
            [(m.mbr_last, m.partition_id) for m in infos], max_entries=RTREE_FANOUT
        )
        self._meta_by_id = {m.partition_id: m for m in self.partitions_meta}

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.partitions_meta)

    def meta(self, partition_id: int) -> PartitionInfo:
        return self._meta_by_id[partition_id]

    def relevant_partitions(
        self, q: np.ndarray, tau: float, adapter: Optional[IndexAdapter] = None
    ) -> List[int]:
        """Partition ids that may hold trajectories similar to query ``q``
        (Section 5.2 global pruning)."""
        kind = "sum" if adapter is None else adapter.endpoint_bound
        if kind is None:
            # the distance pins neither endpoint, so first/last-point
            # pruning is unsound for it; the local trie does the pruning
            return [m.partition_id for m in self.partitions_meta]
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        q1, qn = q[0], q[-1]
        # Cf: partitions whose first-point MBR is within tau of q1
        tau_s = slack(tau)
        cf = {pid: mbr.min_dist_point(q1) for mbr, pid in self.rtree_first.search_min_dist(q1, tau_s)}
        if not cf:
            return []
        cl = {pid: mbr.min_dist_point(qn) for mbr, pid in self.rtree_last.search_min_dist(qn, tau_s)}
        pids = [pid for pid in cf if pid in cl]
        bound = endpoint_bound(
            kind,
            [cf[pid] for pid in pids],
            [cl[pid] for pid in pids],
            # a one-point query may meet one-point trajectories
            [q.shape[0] == 1 and self._meta_by_id[pid].min_len == 1 for pid in pids],
        )
        return sorted(pid for pid, b in zip(pids, bound.tolist()) if b <= tau_s)

    def nearest_partitions(
        self, q: np.ndarray, adapter: IndexAdapter
    ) -> List[Tuple[float, int]]:
        """Every partition as ``(endpoint bound to query q, partition id)``,
        nearest first: the order a best-first kNN visits them in.  The
        bound is 0 where the distance pins neither endpoint."""
        metas = self.partitions_meta
        if adapter.endpoint_bound is None:
            return [(0.0, m.partition_id) for m in metas]
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        bound = endpoint_bound(
            adapter.endpoint_bound,
            [m.mbr_first.min_dist_point(q[0]) for m in metas],
            [m.mbr_last.min_dist_point(q[-1]) for m in metas],
            [q.shape[0] == 1 and m.min_len == 1 for m in metas],
        )
        return sorted(zip(bound.tolist(), (m.partition_id for m in metas)))

    def size_bytes(self) -> int:
        """Approximate global-index footprint (two R-trees of partition MBRs)."""
        per_entry = 2 * 16 * 2 + 16  # two MBRs (low/high, 2 doubles each) + ids
        return len(self.partitions_meta) * per_entry * 2
