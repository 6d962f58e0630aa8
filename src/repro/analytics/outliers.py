"""Distance-based trajectory outlier detection.

The paper cites trajectory outlier detection [22, 27] among the analytics
DITA serves.  We implement the classic distance-based definition: a
trajectory is an outlier when fewer than ``min_neighbours`` other
trajectories lie within ``tau`` of it — which is exactly one similarity
self-join plus a degree count.  A kNN-based score (distance to the k-th
neighbour) is provided for ranked output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.engine import DITAEngine
from ..core.knn import knn_search
from .clustering import similarity_graph, trajectories


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
    nearest *other* trajectory (bigger = more anomalous)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores: Dict[int, float] = {}
    for t in trajectories(engine):
        # k+1 because the trajectory itself is its own 0-distance NN
        neighbours = knn_search(engine, t, k + 1)
        others = [d for nbr, d in neighbours if nbr.traj_id != t.traj_id]
        scores[t.traj_id] = others[k - 1] if len(others) >= k else float("inf")
    return scores


def top_outliers(engine: DITAEngine, k: int = 3, top: int = 10) -> List[int]:
    """Ids of the ``top`` most anomalous trajectories by k-NN score."""
    scores = knn_outlier_scores(engine, k)
    return [tid for tid, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:top]]
