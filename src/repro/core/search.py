"""Trajectory similarity search (Section 5).

:func:`search_rows` answers queries inside one partition: trie filter
(Algorithm 2) followed by the staged verifier.  The path is entirely
row-native — candidates flow as int64 row arrays from the frontier filter
through the batched verifier, which reads zero-copy point views out of the
partition's columnar dataset; ``Trajectory`` objects are materialized only
for the accepted results, by the engine.  The distributed flow — global
pruning, dispatch to relevant partitions, collection — lives in
:class:`repro.core.engine.DITAEngine`, which runs one ``search_rows`` task
per relevant partition on the simulated cluster; asked for a finite
``k``, the same loop is a partition's share of a kNN.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.mbr import MBR
from ..obs import MetricsRegistry
from ..trajectory.trajectory import Trajectory
from .adapters import IndexAdapter
from .bounds import endpoint_bound
from .numerics import slack
from .trie import FilterStats, TrieIndex
from .verify import VerificationData, Verifier


#: one match: (trajectory, distance)
Match = Tuple[Trajectory, float]

#: rows a finite-``k`` round hands the verifier per query: enough to
#: amortise the batched stages, few enough that the k-th distance tightens
#: between rounds (64, 128 and 256 measure within 3% of each other)
TOPK_CHUNK = 128


def search_rows(
    trie: TrieIndex,
    adapter: IndexAdapter,
    verifier: Verifier,
    q_points_list: Sequence[np.ndarray],
    taus: Sequence[float],
    q_datas: Optional[Sequence[Optional[VerificationData]]],
    counts: MetricsRegistry,
    k: Optional[int] = None,
) -> List[List[Tuple[int, float]]]:
    """The local search of one partition: many queries (as raw point
    arrays) against ``trie`` in one frontier sweep, then rounds of one
    batched filter pass per live query and one exact stage over every
    surviving ``(row, query)`` pair of the round — so a task's pairs share
    their kernel sweeps (:mod:`repro.kernels.pairbatch`).  Returns
    ``(dataset row, distance)`` pairs per query; no ``Trajectory`` is
    materialized anywhere on this path.  The stages count into
    ``counts``, the task's registry: the trie filter under ``filter.*``
    (:class:`~repro.core.trie.FilterStats` summed over the queries), the
    verifier under ``verify.*``.  ``q_datas`` are the queries' prepared
    artifacts, or None to build them here.

    ``k=None`` is the threshold search: one round over every candidate at
    the query's ``tau``, matches in candidate order.  A finite ``k`` keeps
    the at most ``k`` rows nearest each query within its ``tau``, sorted
    by ``(distance, trajectory id, row)``.  Its candidates are every row
    in endpoint-bound order where the adapter declares that bound — at
    kNN radii the trie walk keeps every row the bound keeps, so none runs
    — and otherwise the trie filter's survivors (every row while ``tau``
    is ``inf``, skipping the walk).  They go ``TOPK_CHUNK`` a round at the
    k-th distance so far, a query stopping at the first endpoint bound
    beyond it; the verifier's MBR stage also cuts each chunk by the box
    bound (:meth:`Verifier.filter_rows` with ``box``), which ends no scan.

    A join chunk's queries are shipped rows, and ``pair_keys`` (one per
    query) fixes which member of a pair is the exact stage's first:
    ``exact(query, row)`` for a candidate whose trajectory id exceeds the
    query's key, ``exact(row, query)`` otherwise — so a pair's distance
    does not depend on which side was shipped.  With ``floor`` a candidate
    whose id does not exceed the key is dropped before any filter runs.
    """
    dataset = trie.dataset
    n = len(q_points_list)
    # a top-k query walks the trie only where no endpoint bound orders
    # the rows, and only with a distance to prune by
    walk = [
        i for i in range(n)
        if k is None or (adapter.endpoint_bound is None and math.isfinite(taus[i]))
    ]
    cands = [np.arange(dataset.n_rows, dtype=np.int64)] * n
    fs = FilterStats()  # one record the walked queries add up in
    if walk:
        found = trie.filter_candidates_batch(
            [q_points_list[i] for i in walk], [taus[i] for i in walk], adapter,
            [fs] * len(walk),
        )
        for i, rows in zip(walk, found):
            cands[i] = rows
    counts.counter("filter.nodes_visited", fs.nodes_visited)
    counts.counter("filter.nodes_pruned", fs.nodes_pruned)
    counts.counter("filter.candidates", fs.candidates)
    ids = dataset.traj_ids
    bounds: List[Optional[np.ndarray]] = [None] * n
    if k is not None:
        for i, q_pts in enumerate(q_points_list):
            cands[i], bounds[i] = _in_bound_order(adapter, dataset, q_pts, cands[i])
    q_datas = [
        VerificationData.from_points(q_pts, trie.config.cell_size) if q_data is None else q_data
        for q_pts, q_data in zip(q_points_list, q_datas or [None] * n)
    ]
    block = trie.batch_block()
    best: List[List[Tuple[float, int, int]]] = [[] for _ in range(n)]  # (distance, id, row)
    at = [0] * n
    live = list(range(n))
    while live:
        kths: Dict[int, float] = {}
        chunks: List[np.ndarray] = []
        for i in live:
            kth = best[i][-1][0] if k is not None and len(best[i]) == k else taus[i]
            rows = cands[i]
            if k is not None:
                # with no distance to prune by yet, verify just the k rows
                # that establish one
                end = at[i] + (TOPK_CHUNK if math.isfinite(kth) else k)
                near = bounds[i][at[i] : end] <= slack(kth)
                if not near.shape[0] or not near[0]:
                    continue  # sorted by bound: no later row is nearer
                rows, at[i] = rows[at[i] : end][near], end
            kths[i] = kth
            chunks.append(
                verifier.filter_rows(block, rows, kth, q_datas[i], counts, box=k is not None)
            )
        live = list(kths)
        matches = verifier.exact_rows(
            dataset, chunks, [q_points_list[i] for i in live], list(kths.values()), counts
        )
        if k is None:
            return matches
        for i, found in zip(live, matches):
            best[i] = sorted(best[i] + [(d, int(ids[r]), r) for r, d in found])[:k]
    return [[(r, d) for d, _, r in nearest] for nearest in best]


def _in_bound_order(adapter: IndexAdapter, dataset, q_points, rows: np.ndarray):
    """``rows`` sorted by their exact endpoint bound to ``q_points``, and
    the sorted bounds; as they are, with zero bounds, where the adapter
    declares none."""
    if adapter.endpoint_bound is None:
        return rows, np.zeros(rows.shape[0], dtype=np.float64)
    q_points = np.asarray(q_points, dtype=np.float64)
    bounds = endpoint_bound(
        adapter.endpoint_bound,
        MBR.of_point(q_points[0]).min_dist_points(dataset.firsts[rows]),
        MBR.of_point(q_points[-1]).min_dist_points(dataset.lasts[rows]),
        (dataset.lengths[rows] == 1) & (q_points.shape[0] == 1),
    )
    order = np.argsort(bounds, kind="stable")
    return rows[order], bounds[order]
