"""The global index as two R-trees, and the per-partition decisions the
partition table replaced: the equality oracle for
:class:`repro.core.global_index.GlobalIndex`.

``RTreeGlobalIndex.relevant_partitions`` / ``nearest_partitions`` were
``GlobalIndex``'s methods in ``src/repro/core/global_index.py`` before the
index became one partition table; :func:`partition_pair_relevant` was the
join planner's per-pair test in ``src/repro/core/join.py`` and
:func:`route_by_enlargement` the routing loop of
``DITAEngine.append_trajectory``.  The bodies are moved here verbatim;
``tests/test_global_index.py`` pins the table's answers to them, list for
list and float bit for float bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adapters import IndexAdapter
from repro.core.bounds import endpoint_bound
from repro.core.global_index import PartitionInfo
from repro.core.numerics import slack
from repro.geometry.mbr import MBR
from repro.spatial.rtree import RTree

#: R-tree node capacity of the two partition-MBR trees
RTREE_FANOUT = 16


class RTreeGlobalIndex:
    """Two R-trees over each partition's first-point and last-point MBRs."""

    def __init__(self, infos: Sequence[PartitionInfo]) -> None:
        self.partitions_meta = list(infos)
        self.rtree_first = RTree(
            [(m.mbr_first, m.partition_id) for m in infos], max_entries=RTREE_FANOUT
        )
        self.rtree_last = RTree(
            [(m.mbr_last, m.partition_id) for m in infos], max_entries=RTREE_FANOUT
        )
        self._meta_by_id = {m.partition_id: m for m in self.partitions_meta}

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


def partition_pair_relevant(meta_t, meta_q, tau: float, adapter: IndexAdapter) -> bool:
    if adapter.endpoint_bound is None:
        return True
    bound = endpoint_bound(
        adapter.endpoint_bound,
        meta_t.mbr_first.min_dist_mbr(meta_q.mbr_first),
        meta_t.mbr_last.min_dist_mbr(meta_q.mbr_last),
        meta_t.min_len == 1 and meta_q.min_len == 1,
    )
    return bool(bound <= slack(tau))


def route_by_enlargement(metas: Sequence[PartitionInfo], pts: np.ndarray) -> int:
    """The partition whose first/last-point MBR pair needs the least
    enlargement to take a trajectory with points ``pts`` (ties: lowest pid)."""
    first, last = MBR.of_point(pts[0]), MBR.of_point(pts[-1])

    def enlargement(meta) -> float:
        grown_f = meta.mbr_first.union(first)
        grown_l = meta.mbr_last.union(last)
        return (grown_f.area() - meta.mbr_first.area()) + (
            grown_l.area() - meta.mbr_last.area()
        )

    meta = min(metas, key=lambda m: (enlargement(m), m.partition_id))
    return meta.partition_id
