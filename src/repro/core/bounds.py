"""DTW lower bounds (Lemmas 4.1, 4.3 and 5.1) and the endpoint bound.

All three bounds exploit the same structure of DTW: every row ``i`` of the
cost matrix is crossed by the warping path at least once, contributing at
least ``min_j dist(t_i, q_j)``, and the corners ``(1, 1)`` / ``(m, n)`` are
always on the path.

* **AMD** uses every interior row;
* **PAMD** uses only the pivot rows (cheaper, looser);
* **OPAMD** additionally exploits DTW's ordering constraint: once the first
  ``s`` points of ``Q`` are provably unmatchable to pivot ``P1`` they can be
  dropped for all later pivots (Lemma 5.1's suffix optimization).

:func:`endpoint_bound` is the corner argument alone, for every distance
that pins first and last points — what the global index, the join planner
and the baselines' filters prune with before any trie is touched.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..geometry.mbr import MBR
from ..geometry.point import euclidean, pairwise_distances


def endpoint_bound(kind: str, df, dl, single_point=False):
    """The lower bound that the gap between first points (``df``) and the
    gap between last points (``dl``) put on a distance whose adapter
    declares ``endpoint_bound = kind``; gaps to an MBR bound every
    trajectory inside it.  Scalars, or aligned sequences for many rows at
    once.

    ``"max"``: an alignment matches first with first and last with last and
    costs at least the larger gap.  ``"sum"``: it pays both — except where
    ``single_point`` holds (both sides may be one point long), when the two
    corners are the same DP cell and only the larger gap is owed.
    """
    df, dl = np.asarray(df), np.asarray(dl)
    larger = np.maximum(df, dl)
    if kind == "max":
        return larger
    if kind == "sum":
        return np.where(single_point, larger, df + dl)
    raise ValueError(f"unknown endpoint bound {kind!r}")


def amd(t: np.ndarray, q: np.ndarray) -> float:
    """Accumulated Minimum Distance (Lemma 4.1): a full-row DTW lower bound.

    ``AMD = dist(t1, q1) + dist(tm, qn) + sum over interior rows of the
    row-minimum distance``.
    """
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    m = t.shape[0]
    total = euclidean(t[0], q[0])
    if m >= 2:
        total += euclidean(t[-1], q[-1])
    if m > 2:
        w = pairwise_distances(t[1 : m - 1], q)
        total += float(np.sum(w.min(axis=1)))
    return total


def pamd(t: np.ndarray, q: np.ndarray, pivot_idx: Sequence[int]) -> float:
    """Pivot Accumulated Minimum Distance (Definition 4.2 / Lemma 4.3).

    Like AMD but only over the pivot rows given by ``pivot_idx`` (indices
    into ``t``, excluding the endpoints).  ``PAMD <= AMD <= DTW``.
    """
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    m = t.shape[0]
    total = euclidean(t[0], q[0])
    if m >= 2:
        total += euclidean(t[-1], q[-1])
    if pivot_idx:
        for i in pivot_idx:
            if not 0 < i < m - 1:
                raise ValueError(f"pivot index {i} must be interior (0 < i < {m - 1})")
        w = pairwise_distances(t[list(pivot_idx)], q)
        total += float(np.sum(w.min(axis=1)))
    return total


def opamd(t: np.ndarray, q: np.ndarray, pivot_idx: Sequence[int], tau: float) -> float:
    """Ordered PAMD (Lemma 5.1): pivot minima over shrinking suffixes of Q.

    The suffix optimization is *conditional on similarity*: if
    ``DTW(T, Q) <= tau`` then every pivot ``P_i`` must align, in monotone
    order, with a point of ``Q`` whose distance to ``P_i`` is at most
    ``tau1 = tau - dist(t1, q1) - dist(tm, qn)``.  So for each pivot in
    order we drop the longest prefix of the current suffix whose points are
    all farther than ``tau1`` from the pivot — those points can align
    neither with this pivot (too far) nor with later ones (ordering
    constraint) — and take the minimum over the remaining suffix.

    Guarantees: ``PAMD <= OPAMD`` always, and ``OPAMD <= DTW`` whenever
    ``DTW <= tau``; therefore ``OPAMD > tau`` proves dissimilarity, which is
    how the filter uses it.  When a pivot's entire suffix is farther than
    ``tau1``, similarity is impossible and ``inf`` is returned.
    """
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    m = t.shape[0]
    total = euclidean(t[0], q[0])
    if m >= 2:
        total += euclidean(t[-1], q[-1])
    tau1 = tau - total
    if tau1 < 0:
        return total  # already beyond the threshold; caller will prune
    start = 0
    for i in sorted(pivot_idx):
        if not 0 < i < m - 1:
            raise ValueError(f"pivot index {i} must be interior (0 < i < {m - 1})")
        dists = np.sqrt(np.sum((q[start:] - t[i][None, :]) ** 2, axis=1))
        within = dists <= tau1
        if not within.any():
            return math.inf
        drop = int(np.argmax(within))  # length of the > tau1 prefix
        dists = dists[drop:]
        total += float(dists.min())
        start += drop
    return total


def mbr_accumulated_min_dist(
    q: np.ndarray, align_mbrs: List[MBR], pivot_mbrs: List[MBR]
) -> float:
    """MBR-based accumulated minimum distance (Section 5.3.1).

    Lower-bounds DTW(T, Q) for *every* trajectory T indexed under the given
    trie path: ``MinDist(q1, MBR_f) + MinDist(qn, MBR_l) + sum over pivot
    MBRs of MinDist(Q, MBR)``.
    """
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if len(align_mbrs) != 2:
        raise ValueError("expected exactly two align MBRs (first and last point)")
    total = align_mbrs[0].min_dist_point(q[0]) + align_mbrs[1].min_dist_point(q[-1])
    for mbr in pivot_mbrs:
        total += mbr.min_dist_trajectory(q)
    return total
