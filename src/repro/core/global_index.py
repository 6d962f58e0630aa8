"""Global partitioning and the global index (Sections 4.2.1-4.2.2).

Trajectories are STR-grouped into ``NG`` buckets by first point, each bucket
STR-grouped into ``NG`` sub-buckets by last point; every sub-bucket is a
partition (so similar trajectories land together and partitions hold
roughly equal counts).  Partitioning and the per-partition metadata are
computed straight from the columnar summary arrays
(:class:`~repro.storage.columnar.ColumnarDataset`) — no trajectory objects
are iterated anywhere on this path.  The global index is a table of each
partition's first-point MBR (``MBR_f``) and last-point MBR (``MBR_l``), in
pid order, and every master-side decision is an array expression over it
(the paper's two R-trees pay off at thousands of partitions, a scan at the
``NG^2`` of a few hundred here).  Pruning keeps partitions with

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
from ..storage.columnar import ColumnarDataset
from .adapters import IndexAdapter
from .bounds import endpoint_bound
from .config import DITAConfig
from .numerics import slack


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


def min_dist_rows(p: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """:meth:`MBR.min_dist_point` from ``p`` to every row's box, bit for
    bit (numpy adds fewer than 8 terms along an axis in order)."""
    return np.sqrt(np.sum((p - np.clip(p, low, high)) ** 2, axis=1))


def min_dist_boxes(low_a, high_a, low_b, high_b) -> np.ndarray:
    """:meth:`MBR.min_dist_mbr` from every row box of table ``a`` to every
    row box of table ``b``, bit for bit: ``(len(a), len(b))``."""
    gap = np.maximum(
        0.0, np.maximum(low_a[:, None] - high_b[None], low_b[None] - high_a[:, None])
    )
    return np.sqrt(np.sum(gap * gap, axis=2))


class GlobalIndex:
    """The master-side index: the partition table."""

    def __init__(self, partitions: Sequence, config: Optional[DITAConfig] = None) -> None:
        parts = (ColumnarDataset.from_trajectories(part) for part in partitions)
        infos = [partition_info(pid, part) for pid, part in enumerate(parts) if len(part)]
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
        self.partitions_meta = metas = sorted(infos, key=lambda m: m.partition_id)
        self._meta_by_id = {m.partition_id: m for m in metas}
        # an empty table's corners are (0, 1): they broadcast against any point
        corners = [(m.mbr_first.low, m.mbr_first.high, m.mbr_last.low, m.mbr_last.high) for m in metas]
        boxes = np.array(corners) if corners else np.empty((0, 4, 1))
        self.first_low, self.first_high, self.last_low, self.last_high = boxes.transpose(1, 0, 2)
        self.pids = np.array([m.partition_id for m in metas], dtype=np.int64)
        self.one_point = np.array([m.min_len == 1 for m in metas], dtype=bool)

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.partitions_meta)

    def meta(self, partition_id: int) -> PartitionInfo:
        return self._meta_by_id[partition_id]

    def _endpoint_gaps(self, q: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row: ``MinDist(q1, MBR_f)``, ``MinDist(qn, MBR_l)``, and
        whether a one-point query may meet a one-point member."""
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        return (
            min_dist_rows(q[0], self.first_low, self.first_high),
            min_dist_rows(q[-1], self.last_low, self.last_high),
            self.one_point & (q.shape[0] == 1),
        )

    def relevant_partitions(
        self, q: np.ndarray, tau: float, adapter: Optional[IndexAdapter] = None
    ) -> List[int]:
        """Partition ids, ascending, that may hold trajectories similar to
        query ``q`` (Section 5.2 global pruning)."""
        kind = "sum" if adapter is None else adapter.endpoint_bound
        if kind is None:
            # the distance pins neither endpoint, so first/last-point
            # pruning is unsound for it; the local trie does the pruning
            return self.pids.tolist()
        # the bound is at least each gap: both MBRs are within tau if it is
        bound = endpoint_bound(kind, *self._endpoint_gaps(q))
        return self.pids[bound <= slack(tau)].tolist()

    def nearest_partitions(
        self, q: np.ndarray, adapter: IndexAdapter
    ) -> List[Tuple[float, int]]:
        """Every partition as ``(endpoint bound to query q, partition id)``,
        nearest first: the order a best-first kNN visits them in.  The
        bound is 0 where the distance pins neither endpoint."""
        if adapter.endpoint_bound is None:
            return [(0.0, pid) for pid in self.pids.tolist()]
        bound = endpoint_bound(adapter.endpoint_bound, *self._endpoint_gaps(q))
        return sorted(zip(bound.tolist(), self.pids.tolist()))

    def route(self, first: np.ndarray, last: np.ndarray) -> int:
        """Where a new trajectory with endpoints ``first``/``last`` goes: the
        partition whose MBRs need the least enlargement (:meth:`MBR.area` per
        row), ties to the lowest pid; partition 0 when the table is empty."""
        if not self.pids.size:
            return 0

        def growth(low, high, p) -> np.ndarray:
            grown = np.prod(np.maximum(high, p) - np.minimum(low, p), axis=1)
            return grown - np.prod(high - low, axis=1)

        enlargement = growth(self.first_low, self.first_high, first) + growth(
            self.last_low, self.last_high, last
        )
        return int(self.pids[np.argmin(enlargement)])

    def size_bytes(self) -> int:
        """The Table 5 global-index size: what the paper's two R-trees over
        2-d partition MBRs hold, kept (the table is smaller) so Table 5
        stays comparable across versions."""
        per_entry = 2 * 16 * 2 + 16  # two MBRs (low/high, 2 doubles each) + ids
        return len(self.partitions_meta) * per_entry * 2
