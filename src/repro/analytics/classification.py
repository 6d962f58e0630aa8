"""Trajectory classification (k-nearest-neighbour majority vote).

The paper cites nearest-neighbour trajectory classification [35] among the
analytics DITA accelerates: label a new trip (commute / delivery / cruising
...) by the labels of its most similar historical trips.  The classifier
wraps :func:`repro.core.knn.knn_search_batch`, so a batch of predictions
is one index-accelerated kNN pass.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

from ..core.config import DITAConfig
from ..core.engine import DITAEngine
from ..core.knn import Neighbour, check_k, knn_search, knn_search_batch
from ..trajectory.trajectory import Trajectory


class KNNTrajectoryClassifier:
    """Majority-vote kNN classifier over labelled trajectories.

    Ties are broken toward the nearer neighbour's label, matching the
    standard distance-weighted tie rule.
    """

    def __init__(self, k: int = 5, config: Optional[DITAConfig] = None, distance: str = "dtw") -> None:
        self.k = check_k(k, least=1)
        self.config = config
        self.distance = distance
        self._engine: Optional[DITAEngine] = None
        self._labels: Dict[int, Hashable] = {}

    # ------------------------------------------------------------------ #

    def fit(
        self, trajectories: Sequence[Trajectory], labels: Sequence[Hashable]
    ) -> "KNNTrajectoryClassifier":
        """Index the labelled training trajectories."""
        trajs = list(trajectories)
        labels = list(labels)
        if len(trajs) != len(labels):
            raise ValueError("trajectories and labels must align")
        if not trajs:
            raise ValueError("cannot fit on an empty training set")
        self._engine = DITAEngine(trajs, self.config, distance=self.distance)
        self._labels = {t.traj_id: lab for t, lab in zip(trajs, labels)}
        return self

    def _check_fitted(self) -> DITAEngine:
        if self._engine is None:
            raise RuntimeError("classifier is not fitted")
        return self._engine

    def predict(self, query: Trajectory) -> Hashable:
        """The majority label among the query's k nearest training trips."""
        return self.predict_many([query])[0]

    def predict_many(self, queries: Iterable[Trajectory]) -> List[Hashable]:
        """:meth:`predict` for every query, from one batched kNN."""
        batch = knn_search_batch(self._check_fitted(), list(queries), self.k)
        return [self._vote(neighbours) for neighbours in batch]

    def _vote(self, neighbours: List[Neighbour]) -> Hashable:
        votes = Counter(self._labels[t.traj_id] for t, _ in neighbours)
        top = votes.most_common()
        best_count = top[0][1]
        tied = {label for label, count in top if count == best_count}
        if len(tied) == 1:
            return top[0][0]
        # tie: the nearest neighbour among tied labels decides
        for t, _ in neighbours:
            if self._labels[t.traj_id] in tied:
                return self._labels[t.traj_id]
        return top[0][0]  # unreachable

    def predict_proba(self, query: Trajectory) -> Dict[Hashable, float]:
        """Vote fractions per label for the query's neighbourhood."""
        engine = self._check_fitted()
        neighbours = knn_search(engine, query, self.k)
        votes = Counter(self._labels[t.traj_id] for t, _ in neighbours)
        total = sum(votes.values())
        return {label: count / total for label, count in votes.items()}

    def score(self, queries: Sequence[Trajectory], labels: Sequence[Hashable]) -> float:
        """Accuracy over a labelled test set."""
        if len(queries) != len(labels):
            raise ValueError("queries and labels must align")
        if not queries:
            raise ValueError("empty test set")
        hits = sum(1 for p, y in zip(self.predict_many(queries), labels) if p == y)
        return hits / len(queries)
