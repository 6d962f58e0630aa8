"""Discrete Fréchet distance (Definition A.1, the paper's metric function).

The recurrence mirrors DTW with ``max`` accumulating instead of ``+``:

``F[i, j] = max(w[i, j], min(F[i-1, j-1], F[i-1, j], F[i, j-1]))``

with max-accumulated first row/column.  Because accumulation is ``max``, the
trie does not subtract distances from the threshold when filtering for
Fréchet (Appendix A): every level just checks ``MinDist <= tau``.

:func:`frechet`/:func:`frechet_threshold` run the max-min form of
:func:`~repro.kernels.wavefront.min_combine_sweep`, many threshold pairs at
once :func:`~repro.kernels.pairbatch.frechet_threshold_batch`; the per-cell
loops they replaced are differential oracles under ``tests/oracles/``.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..geometry.point import pairwise_distances
from ..kernels.pairbatch import frechet_threshold_batch, pair_batched
from ..kernels.wavefront import as_matrix_pair, min_combine_sweep
from .base import TrajectoryDistance, register_distance

_INF = math.inf


def frechet(t: np.ndarray, q: np.ndarray) -> float:
    """Exact discrete Fréchet distance (anti-diagonal wavefront)."""
    t, q = as_matrix_pair(t, q, "Frechet")
    value, _ = min_combine_sweep(pairwise_distances(t, q), None, np.maximum)
    return value


def frechet_threshold(t: np.ndarray, q: np.ndarray, tau: float) -> float:
    """Fréchet with early abandon: cells above ``tau`` are pruned during the
    wavefront sweep; returns the exact value when ``<= tau``, else ``inf``."""
    t, q = as_matrix_pair(t, q, "Frechet")
    value, _ = min_combine_sweep(pairwise_distances(t, q), tau, np.maximum)
    return value if value <= tau else _INF


@register_distance("frechet")
class FrechetDistance(TrajectoryDistance):
    """Discrete Fréchet distance — the metric function the paper supports."""

    is_metric = True

    def compute(self, t: np.ndarray, q: np.ndarray) -> float:
        return frechet(t, q)

    def compute_threshold(self, t: np.ndarray, q: np.ndarray, tau: float) -> float:
        return frechet_threshold(t, q, tau)

    def compute_threshold_batch(
        self, ts: Sequence[np.ndarray], qs: Sequence[np.ndarray], taus: Sequence[float]
    ) -> List[float]:
        return pair_batched(frechet_threshold_batch, frechet_threshold, ts, qs, taus)

    def lower_bound(self, t: np.ndarray, q: np.ndarray) -> float:
        """Every coupling matches first-with-first and last-with-last, so
        the larger endpoint distance bounds the Fréchet distance below."""
        t = np.atleast_2d(np.asarray(t, dtype=np.float64))
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        first = float(np.sqrt(np.sum((t[0] - q[0]) ** 2)))
        last = float(np.sqrt(np.sum((t[-1] - q[-1]) ** 2)))
        return max(first, last)
