"""Discrete Fréchet distance (Definition A.1, the paper's metric function).

The recurrence mirrors DTW with ``max`` accumulating instead of ``+``:

``F[i, j] = max(w[i, j], min(F[i-1, j-1], F[i-1, j], F[i, j-1]))``

with max-accumulated first row/column.  Because accumulation is ``max``, the
trie does not subtract distances from the threshold when filtering for
Fréchet (Appendix A): every level just checks ``MinDist <= tau``.

The public :func:`frechet`/:func:`frechet_threshold` run the vectorized
anti-diagonal wavefront (:mod:`repro.kernels.wavefront`); the original
per-cell loops remain as ``*_reference`` oracles for differential testing.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..geometry.point import pairwise_distances
from ..kernels.pairbatch import MIN_BATCH_PAIRS, frechet_batch
from ..kernels.wavefront import frechet_wavefront, frechet_wavefront_threshold
from .base import TrajectoryDistance, register_distance

_INF = math.inf


def frechet(t: np.ndarray, q: np.ndarray) -> float:
    """Exact discrete Fréchet distance (anti-diagonal wavefront)."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if t.shape[0] == 0 or q.shape[0] == 0:
        raise ValueError("Frechet is undefined for empty trajectories")
    return frechet_wavefront(t, q)


def frechet_reference(t: np.ndarray, q: np.ndarray) -> float:
    """Exact discrete Fréchet via the per-cell loop; oracle for
    :func:`frechet`."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if t.shape[0] == 0 or q.shape[0] == 0:
        raise ValueError("Frechet is undefined for empty trajectories")
    w = pairwise_distances(t, q)
    m, n = w.shape
    v = np.empty_like(w)
    v[0, :] = np.maximum.accumulate(w[0, :])
    v[:, 0] = np.maximum.accumulate(w[:, 0])
    for i in range(1, m):
        prev = v[i - 1]
        row = v[i]
        wi = w[i]
        for j in range(1, n):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = wi[j] if wi[j] > best else best
    return float(v[m - 1, n - 1])


def frechet_threshold(t: np.ndarray, q: np.ndarray, tau: float) -> float:
    """Fréchet with early abandon: cells above ``tau`` are pruned during the
    wavefront sweep; returns the exact value when ``<= tau``, else ``inf``."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if t.shape[0] == 0 or q.shape[0] == 0:
        raise ValueError("Frechet is undefined for empty trajectories")
    return frechet_wavefront_threshold(t, q, tau)


def frechet_threshold_reference(t: np.ndarray, q: np.ndarray, tau: float) -> float:
    """Reachability-pass early abandon over cells with ``w[i, j] <= tau``;
    oracle for :func:`frechet_threshold`.

    The reachability pass is O(mn) boolean work and rejects most dissimilar
    pairs without computing exact max-accumulation.
    """
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    w = pairwise_distances(t, q)
    m, n = w.shape
    ok = w <= tau
    if not ok[0, 0] or not ok[m - 1, n - 1]:
        return _INF
    reach = np.zeros_like(ok)
    reach[0, 0] = True
    # first row/column reachable along an unbroken run of ok cells
    for j in range(1, n):
        reach[0, j] = reach[0, j - 1] and ok[0, j]
    for i in range(1, m):
        reach[i, 0] = reach[i - 1, 0] and ok[i, 0]
        row_ok = ok[i]
        prev_reach = reach[i - 1]
        row_reach = reach[i]
        for j in range(1, n):
            if row_ok[j] and (prev_reach[j - 1] or prev_reach[j] or row_reach[j - 1]):
                row_reach[j] = True
        if not row_reach.any() and not prev_reach.any():
            return _INF
    if not reach[m - 1, n - 1]:
        return _INF
    value = frechet_reference(t, q)
    return value if value <= tau else _INF


@register_distance("frechet")
class FrechetDistance(TrajectoryDistance):
    """Discrete Fréchet distance — the metric function the paper supports."""

    is_metric = True
    accumulates = False

    def compute(self, t: np.ndarray, q: np.ndarray) -> float:
        return frechet(t, q)

    def compute_batch(self, ts: Sequence[np.ndarray], qs: Sequence[np.ndarray]) -> List[float]:
        if len(ts) < MIN_BATCH_PAIRS:
            return super().compute_batch(ts, qs)
        return frechet_batch(ts, qs).tolist()

    def compute_threshold(self, t: np.ndarray, q: np.ndarray, tau: float) -> float:
        return frechet_threshold(t, q, tau)

    def lower_bound(self, t: np.ndarray, q: np.ndarray) -> float:
        """Every coupling matches first-with-first and last-with-last, so
        the larger endpoint distance bounds the Fréchet distance below."""
        t = np.atleast_2d(np.asarray(t, dtype=np.float64))
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        first = float(np.sqrt(np.sum((t[0] - q[0]) ** 2)))
        last = float(np.sqrt(np.sum((t[-1] - q[-1]) ** 2)))
        return max(first, last)
