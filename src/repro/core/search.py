"""Trajectory similarity search (Section 5).

:func:`search_rows` answers queries inside one partition: trie filter
(Algorithm 2) followed by the staged verifier.  The path is entirely
row-native — candidates flow as int64 row arrays from the frontier filter
through the batched verifier, which reads zero-copy point views out of the
partition's columnar dataset; ``Trajectory`` objects are materialized only
for the accepted results, by the engine.  The distributed flow — global
pruning, dispatch to relevant partitions, collection — lives in
:class:`repro.core.engine.DITAEngine`, which runs one ``search_rows`` task
per relevant partition on the simulated cluster.
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


def search_rows(
    trie: TrieIndex,
    adapter: IndexAdapter,
    verifier: Verifier,
    q_points_list: Sequence[np.ndarray],
    taus: Sequence[float],
    q_datas: Optional[Sequence[Optional[VerificationData]]] = None,
    stats: Optional[List[Optional[SearchStats]]] = None,
) -> List[List[Tuple[int, float]]]:
    """The local search of one partition: many queries (as raw point
    arrays) against ``trie`` in one frontier sweep, one batched filter pass
    per query, then one exact stage over every surviving ``(row, query)``
    pair of the whole call — so a task's pairs share their kernel sweeps
    (:mod:`repro.kernels.pairbatch`).  Returns accepted ``(dataset row,
    distance)`` pairs per query — no ``Trajectory`` is materialized
    anywhere on this path.
    """
    fstats = None if stats is None else [
        s.filter if s is not None else None for s in stats
    ]
    cand_rows = trie.filter_candidates_batch(list(q_points_list), list(taus), adapter, fstats)
    block = trie.batch_block()
    vstats = None if stats is None else [
        s.verify if s is not None else None for s in stats
    ]
    survivors: List[np.ndarray] = []
    for i, (q_pts, tau, rows) in enumerate(zip(q_points_list, taus, cand_rows)):
        q_data = q_datas[i] if q_datas is not None else None
        if q_data is None:
            q_data = VerificationData.from_points(q_pts, trie.config.cell_size)
        survivors.append(
            verifier.filter_rows(block, rows, tau, q_data, None if vstats is None else vstats[i])
        )
    return verifier.exact_rows(trie.dataset, survivors, q_points_list, taus, vstats)
