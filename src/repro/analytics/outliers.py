"""Distance-based trajectory outlier detection.

The paper cites trajectory outlier detection [22, 27] among the analytics
DITA serves.  We implement the classic distance-based definition: a
trajectory is an outlier when fewer than ``min_neighbours`` other
trajectories lie within ``tau`` of it — which is exactly one similarity
self-join plus a degree count.  A kNN-based score (distance to the k-th
neighbour) is provided for ranked output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..core.engine import DITAEngine
from ..core.knn import check_k, knn_join
from .clustering import similarity_graph


@dataclass(frozen=True)
class OutlierReport:
    """Outlier ids plus each trajectory's neighbour count."""

    outlier_ids: List[int]
    neighbour_counts: Dict[int, int]

    def is_outlier(self, traj_id: int) -> bool:
        return traj_id in set(self.outlier_ids)


def detect_outliers(
    engine: DITAEngine, tau: float, min_neighbours: int = 1
) -> OutlierReport:
    """Trajectories with fewer than ``min_neighbours`` tau-neighbours."""
    if min_neighbours < 1:
        raise ValueError("min_neighbours must be >= 1")
    adj = similarity_graph(engine, tau)
    counts = {tid: len(nbrs) for tid, nbrs in adj.items()}
    outliers = sorted(tid for tid, c in counts.items() if c < min_neighbours)
    return OutlierReport(outlier_ids=outliers, neighbour_counts=counts)


def knn_outlier_scores(engine: DITAEngine, k: int = 3) -> Dict[int, float]:
    """The k-NN outlier score of every trajectory: its distance to its k-th
    nearest *other* trajectory (bigger = more anomalous) — one self kNN
    join."""
    k = check_k(k, least=1)
    others: Dict[int, List[float]] = {}
    # k+1 because the trajectory itself is its own 0-distance NN
    for left, right, d in knn_join(engine, engine, k + 1):
        nearest = others.setdefault(right, [])
        if left != right:
            nearest.append(d)
    return {tid: ds[k - 1] if len(ds) >= k else math.inf for tid, ds in others.items()}


def top_outliers(engine: DITAEngine, k: int = 3, top: int = 10) -> List[int]:
    """Ids of the ``top`` most anomalous trajectories by k-NN score."""
    scores = knn_outlier_scores(engine, k)
    return [tid for tid, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:top]]
