"""The one-query best-first top-k of one partition: the differential
oracle for :func:`repro.core.search.search_rows` called with a finite ``k``.

This was ``topk_rows`` in ``src/repro/core/search.py`` until the threshold
search and the local top-k became one round-based loop; the body was moved
here verbatim, and has since followed the contract's two changes: adapters
with an endpoint bound take every row as candidates (no trie walk), and
each chunk is cut by the box bound before the verifier's stages — here in
its per-pair loop form (``oracles.box_bounds_reference``), counted as the
verifier counts it.  ``tests/test_local_scan.py`` pins the merged loop to
it: the same ``(distance, id, row)`` lists, distances equal to the last
bit, and the same ``verify.*`` counts.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from oracles.box_bounds_reference import box_bound_reference
from repro.core.adapters import IndexAdapter
from repro.core.bounds import endpoint_bound
from repro.core.numerics import slack
from repro.core.search import TOPK_CHUNK
from repro.core.trie import TrieIndex
from repro.core.verify import VerificationData, Verifier
from repro.geometry.mbr import MBR
from repro.obs import MetricsRegistry


def topk_rows(
    trie: TrieIndex,
    adapter: IndexAdapter,
    verifier: Verifier,
    q_points: np.ndarray,
    k: int,
    tau: float,
    q_data: VerificationData,
    counts: MetricsRegistry,
) -> List[Tuple[float, int, int]]:
    """The local top-k of one partition: its at most ``k`` rows nearest
    ``q_points`` among those within ``tau``, as ``(distance, trajectory
    id, row)`` in that order.

    One best-first pass.  The candidates — every row sorted by its exact
    endpoint bound where the adapter declares one; otherwise the trie
    filter's survivors at ``tau``, every row while ``tau`` is still
    ``inf`` — are consumed a chunk at a time at the k-th distance found so
    far: the box cut (where the verifier runs its MBR stage), then the
    verifier's two stages.  The pass stops at the first endpoint bound
    beyond the k-th distance.  Distances are ``exact_batch`` values, the
    ones :func:`search_rows` reports.
    """
    dataset = trie.dataset
    q_points = np.asarray(q_points, dtype=np.float64)
    if math.isinf(tau) or adapter.endpoint_bound is not None:
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
        chunk = rows[at:end][near]
        if verifier.use_mbr_coverage and math.isfinite(kth):
            keep = [
                box_bound_reference(block, r, q_data.cells, q_data.mbr.low, q_data.mbr.high,
                                    verifier.cell_bound) <= slack(kth)
                for r in chunk.tolist()
            ]
            cut = chunk.shape[0] - sum(keep)
            counts.counter("verify.pairs", cut)
            counts.counter("verify.pruned_by_mbr", cut)
            chunk = chunk[np.asarray(keep, dtype=bool)]
        chunk = verifier.filter_rows(block, chunk, kth, q_data, counts)
        matches = verifier.exact_rows(dataset, [chunk], [q_points], [kth], counts)[0]
        best = sorted(best + [(d, int(dataset.traj_ids[r]), r) for r, d in matches])[:k]
        at = end
    return best
