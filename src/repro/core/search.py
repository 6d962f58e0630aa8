"""Trajectory similarity search (Section 5).

:func:`search_rows` answers queries inside one partition: trie filter
(Algorithm 2) followed by the staged verifier.  The path is entirely
row-native — candidates flow as int64 row arrays from the frontier filter
through the batched verifier, which reads zero-copy point views out of the
partition's columnar dataset; ``Trajectory`` objects are materialized only
for the accepted results, by the engine.  The distributed flow — global
pruning, dispatch to relevant partitions, collection — lives in
:class:`repro.core.engine.DITAEngine`, which runs one ``search_rows`` task
per relevant partition on the simulated cluster.  :func:`topk_rows` is the
same pipeline asked for a partition's nearest ``k`` rows (the kNN task).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.mbr import MBR
from ..trajectory.trajectory import Trajectory
from .adapters import IndexAdapter
from .bounds import endpoint_bound
from .numerics import slack
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

#: rows :func:`topk_rows` hands the verifier at a time: enough to amortise
#: the batched stages, few enough that the k-th distance tightens between
#: chunks (64, 128 and 256 measure within 3% of each other)
TOPK_CHUNK = 128


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


def topk_rows(
    trie: TrieIndex,
    adapter: IndexAdapter,
    verifier: Verifier,
    q_points: np.ndarray,
    k: int,
    tau: float,
    q_data: VerificationData,
    stats: Optional[VerifyStats] = None,
) -> List[Tuple[float, int, int]]:
    """The local top-k of one partition: its at most ``k`` rows nearest
    ``q_points`` among those within ``tau``, as ``(distance, trajectory
    id, row)`` in that order.

    One best-first pass.  The candidates — the trie filter's survivors at
    ``tau``, every row while ``tau`` is still ``inf`` — are sorted by their
    exact endpoint bound where the adapter declares one, and consumed a
    chunk at a time through the verifier's two stages at the k-th distance
    found so far; the pass stops at the first bound beyond it.  Distances
    are ``exact_batch`` values, the ones :func:`search_rows` reports.
    """
    dataset = trie.dataset
    q_points = np.asarray(q_points, dtype=np.float64)
    if math.isinf(tau):
        rows = np.arange(dataset.n_rows, dtype=np.int64)
    else:
        rows = trie.filter_candidates(q_points, tau, adapter)
    bounds = np.zeros(rows.shape[0], dtype=np.float64)
    if adapter.endpoint_bound is not None:
        bounds = endpoint_bound(
            adapter.endpoint_bound,
            MBR.of_point(q_points[0]).min_dist_points(dataset.firsts[rows]),
            MBR.of_point(q_points[-1]).min_dist_points(dataset.lasts[rows]),
            (dataset.lengths[rows] == 1) & (q_points.shape[0] == 1),
        )
        order = np.argsort(bounds, kind="stable")
        rows, bounds = rows[order], bounds[order]
    block = trie.batch_block()
    best: List[Tuple[float, int, int]] = []
    at = 0
    while at < rows.shape[0]:
        kth = best[-1][0] if len(best) == k else tau
        # with no distance to prune by yet, verify just the k rows that
        # establish one
        end = at + (TOPK_CHUNK if math.isfinite(kth) else k)
        near = bounds[at:end] <= slack(kth)
        if not near[0]:
            break  # sorted by bound: no later row is nearer
        chunk = verifier.filter_rows(block, rows[at:end][near], kth, q_data, stats)
        matches = verifier.exact_rows(dataset, [chunk], [q_points], [kth], [stats])[0]
        best = sorted(best + [(d, int(dataset.traj_ids[r]), r) for r, d in matches])[:k]
        at = end
    return best
