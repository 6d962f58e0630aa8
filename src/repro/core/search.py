"""Trajectory similarity search (Section 5).

``LocalSearcher`` answers a query inside one partition: trie filter
(Algorithm 2) followed by the staged verifier.  The hot path is entirely
row-native — candidates flow as int64 row arrays from the frontier filter
through the batched verifier, which reads zero-copy point views out of the
partition's columnar dataset; ``Trajectory`` objects are materialized only
for the accepted results (and only by the object-facing wrappers).  The
distributed flow — global pruning, dispatch to relevant partitions,
collection — lives in :class:`repro.core.engine.DITAEngine`, which runs
one ``LocalSearcher`` per relevant partition on the simulated cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..trajectory.trajectory import Trajectory
from .adapters import IndexAdapter
from .trie import FilterStats, TrieIndex
from .verify import VerificationData, Verifier, VerifyStats


@dataclass
class SearchStats:
    """Instrumentation across the whole search pipeline."""

    relevant_partitions: int = 0
    filter: FilterStats = field(default_factory=FilterStats)
    verify: VerifyStats = field(default_factory=VerifyStats)

    @property
    def candidates(self) -> int:
        return self.filter.candidates

    def merge(self, other: "SearchStats") -> None:
        self.relevant_partitions += other.relevant_partitions
        self.filter.merge(other.filter)
        self.verify.merge(other.verify)


#: one match: (trajectory, distance)
Match = Tuple[Trajectory, float]


class LocalSearcher:
    """Filter-verify search inside one indexed partition."""

    def __init__(self, trie: TrieIndex, adapter: IndexAdapter, verifier: Optional[Verifier] = None) -> None:
        self.trie = trie
        self.adapter = adapter
        self.verifier = verifier or adapter.make_verifier(
            use_mbr_coverage=trie.config.use_mbr_coverage,
            use_cell_filter=trie.config.use_cell_filter,
        )

    def search_rows_batch(
        self,
        q_points_list: Sequence[np.ndarray],
        taus: Sequence[float],
        q_datas: Optional[Sequence[Optional[VerificationData]]] = None,
        stats: Optional[List[Optional[SearchStats]]] = None,
    ) -> List[List[Tuple[int, float]]]:
        """The row-native core: many queries (as raw point arrays) against
        this partition in one frontier sweep, one batched filter pass per
        query, then one exact stage over every surviving ``(row, query)``
        pair of the whole call — so a task's pairs share their kernel
        sweeps (:mod:`repro.kernels.pairbatch`).  Returns accepted
        ``(dataset row, distance)`` pairs per query — no ``Trajectory`` is
        materialized anywhere on this path.
        """
        fstats = None if stats is None else [
            s.filter if s is not None else None for s in stats
        ]
        cand_rows = self.trie.filter_candidates_batch(
            list(q_points_list), list(taus), self.adapter, fstats
        )
        block = self.trie.batch_block()
        vstats = None if stats is None else [
            s.verify if s is not None else None for s in stats
        ]
        survivors: List[np.ndarray] = []
        for i, (q_pts, tau, rows) in enumerate(zip(q_points_list, taus, cand_rows)):
            q_data = q_datas[i] if q_datas is not None else None
            if q_data is None:
                q_data = VerificationData.from_points(q_pts, self.trie.config.cell_size)
            survivors.append(
                self.verifier.filter_rows(
                    block, rows, tau, q_data, None if vstats is None else vstats[i]
                )
            )
        return self.verifier.exact_rows(
            self.trie.dataset, survivors, q_points_list, taus, vstats
        )

    def search(
        self,
        query: Trajectory,
        tau: float,
        query_data: Optional[VerificationData] = None,
        stats: Optional[SearchStats] = None,
    ) -> List[Match]:
        """All (trajectory, distance) pairs in this partition with
        ``f(T, Q) <= tau``."""
        return self.search_batch(
            [query], [tau], [query_data], None if stats is None else [stats]
        )[0]

    def search_batch(
        self,
        queries: List[Trajectory],
        taus: List[float],
        query_datas: Optional[List[Optional[VerificationData]]] = None,
        stats: Optional[List[Optional[SearchStats]]] = None,
    ) -> List[List[Match]]:
        """Object-facing wrapper over :meth:`search_rows_batch`: accepted
        rows — and only those — are materialized as ``Trajectory`` views."""
        row_results = self.search_rows_batch(
            [q.points for q in queries], list(taus), query_datas, stats
        )
        dataset = self.trie.dataset
        return [
            [(dataset.view(row), dist) for row, dist in matches]
            for matches in row_results
        ]

    def count_candidates(self, query: Trajectory, tau: float) -> int:
        """Candidate count only (the Figure 17 pruning-power metric)."""
        return int(self.trie.filter_candidates(query.points, tau, self.adapter).shape[0])
