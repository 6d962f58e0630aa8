"""Symmetric Hausdorff distance.

``H(T, Q) = max( max_t min_q d(t, q), max_q min_t d(t, q) )`` — the metric
distance the DFT baseline [46] natively supports (alongside Fréchet).
Unlike DTW/Fréchet it imposes no ordering and no endpoint alignment, so the
index adapter treats every trie level like a pivot level (see
:class:`repro.core.adapters.HausdorffAdapter`).
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.point import pairwise_distances
from ..kernels.wavefront import as_matrix_pair
from .base import TrajectoryDistance, register_distance

_INF = math.inf


def hausdorff(t: np.ndarray, q: np.ndarray) -> float:
    """Exact symmetric Hausdorff distance."""
    t, q = as_matrix_pair(t, q, "Hausdorff")
    w = pairwise_distances(t, q)
    forward = float(w.min(axis=1).max())
    backward = float(w.min(axis=0).max())
    return max(forward, backward)


def hausdorff_threshold(t: np.ndarray, q: np.ndarray, tau: float) -> float:
    """Hausdorff if ``<= tau`` else ``inf`` (with row-wise early abandon:
    the first row of the distance matrix whose minimum exceeds ``tau``
    settles the verdict)."""
    t, q = as_matrix_pair(t, q, "Hausdorff")
    w = pairwise_distances(t, q)
    row_mins = w.min(axis=1)
    if float(row_mins.max()) > tau:
        return _INF
    col_mins = w.min(axis=0)
    value = max(float(row_mins.max()), float(col_mins.max()))
    return value if value <= tau else _INF


@register_distance("hausdorff")
class HausdorffDistance(TrajectoryDistance):
    """Symmetric Hausdorff — a metric, order-insensitive."""

    is_metric = True

    def compute(self, t: np.ndarray, q: np.ndarray) -> float:
        return hausdorff(t, q)

    def compute_threshold(self, t: np.ndarray, q: np.ndarray, tau: float) -> float:
        return hausdorff_threshold(t, q, tau)

    def lower_bound(self, t: np.ndarray, q: np.ndarray) -> float:
        """Each endpoint's nearest-neighbour distance to the other set is
        ``<= H``, so the max over the four endpoints bounds H below."""
        t = np.atleast_2d(np.asarray(t, dtype=np.float64))
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))

        def nn(p: np.ndarray, ys: np.ndarray) -> float:
            return float(np.sqrt(np.min(np.sum((ys - p[None, :]) ** 2, axis=1))))

        return max(nn(t[0], q), nn(t[-1], q), nn(q[0], t), nn(q[-1], t))
