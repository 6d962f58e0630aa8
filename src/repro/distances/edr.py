"""Edit Distance on Real sequence (EDR, Definition A.2).

``EDR_eps(T, Q)`` counts the minimum number of edit operations
(insert/delete/substitute) needed to make the two trajectories equivalent,
where two points "match" (substitution cost 0) when their Euclidean distance
is at most ``epsilon``.  The value is an integer in ``[|m - n|, max(m, n)]``,
which gives the paper's length filter.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..geometry.point import pairwise_distances
from ..kernels.wavefront import as_matrix_pair, edit_sweep
from .base import TrajectoryDistance, register_distance

_INF = math.inf


def _edits(t: np.ndarray, q: np.ndarray, epsilon: float, tau: Optional[float]) -> float:
    """The edit sweep with unit gaps and a substitution that is free for
    points within ``epsilon`` and costs 1 otherwise."""
    cost = (pairwise_distances(t, q) > epsilon).astype(np.float64)
    return edit_sweep(cost, np.ones(t.shape[0]), np.ones(q.shape[0]), tau)


def edr(t: np.ndarray, q: np.ndarray, epsilon: float) -> int:
    """Exact EDR via the anti-diagonal edit sweep."""
    t, q = as_matrix_pair(t, q, "EDR")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    return int(_edits(t, q, epsilon, None))


def edr_threshold(t: np.ndarray, q: np.ndarray, epsilon: float, tau: float) -> float:
    """EDR if ``<= tau`` else ``inf``: the ``|m - n| <= tau`` length filter,
    then an edit sweep that prunes cells above ``tau`` and abandons once the
    frontier dies.  The prune subsumes the classic banded DP: any cell with
    ``|i - j| > tau`` carries at least that many indels and dies."""
    t, q = as_matrix_pair(t, q, "EDR")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if abs(t.shape[0] - q.shape[0]) > tau:
        return _INF
    value = _edits(t, q, epsilon, tau)
    return value if value <= tau else _INF


@register_distance("edr")
class EDRDistance(TrajectoryDistance):
    """EDR with a fixed matching threshold ``epsilon``."""

    is_metric = False

    def __init__(self, epsilon: float = 0.001) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.epsilon = epsilon

    def compute(self, t: np.ndarray, q: np.ndarray) -> float:
        return float(edr(t, q, self.epsilon))

    def compute_threshold(self, t: np.ndarray, q: np.ndarray, tau: float) -> float:
        return edr_threshold(t, q, self.epsilon, tau)

    def lower_bound(self, t: np.ndarray, q: np.ndarray) -> float:
        """At least ``|m - n|`` insertions/deletions separate trajectories
        of different lengths, whatever ``epsilon`` admits."""
        t = np.atleast_2d(np.asarray(t, dtype=np.float64))
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        return float(abs(t.shape[0] - q.shape[0]))

    def __repr__(self) -> str:
        return f"EDRDistance(epsilon={self.epsilon})"
