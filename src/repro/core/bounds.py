"""The pivot DTW lower bound (Lemma 4.3) and the endpoint bound.

PAMD exploits the structure of DTW: every row ``i`` of the cost matrix is
crossed by the warping path at least once, contributing at least
``min_j dist(t_i, q_j)``, and the corners ``(1, 1)`` / ``(m, n)`` are
always on the path.  Summed over every interior row this is Lemma 4.1's
AMD; over the pivot rows alone it is PAMD (cheaper, looser).  The trie
filter evaluates the same sum over node MBRs, with Lemma 5.1's ordered
suffix, for many rows at once (:mod:`repro.kernels.frontier`).

:func:`endpoint_bound` is the corner argument alone, for every distance
that pins first and last points — what the global index, the join planner
and the baselines' filters prune with before any trie is touched.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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


def pamd(t: np.ndarray, q: np.ndarray, pivot_idx: Sequence[int]) -> float:
    """Pivot Accumulated Minimum Distance (Definition 4.2 / Lemma 4.3).

    The endpoint gaps plus the row minima of the pivot rows given by
    ``pivot_idx`` (indices into ``t``, excluding the endpoints); over every
    interior row it is AMD (Lemma 4.1).  ``PAMD <= AMD <= DTW``.
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
