"""The one-query best-first top-k of one partition: the differential
oracle for :func:`repro.core.search.search_rows` called with a finite ``k``.

This was ``topk_rows`` in ``src/repro/core/search.py`` until the threshold
search and the local top-k became one round-based loop; the body is moved
here verbatim.  ``tests/test_local_scan.py`` pins the merged loop to it:
the same ``(distance, id, row)`` lists, distances equal to the last bit,
and the same ``VerifyStats``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.adapters import IndexAdapter
from repro.core.bounds import endpoint_bound
from repro.core.numerics import slack
from repro.core.search import TOPK_CHUNK
from repro.core.trie import TrieIndex
from repro.core.verify import VerificationData, Verifier, VerifyStats
from repro.geometry.mbr import MBR


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
