"""Edit Distance on Real sequence (EDR, Definition A.2).

``EDR_eps(T, Q)`` counts the minimum number of edit operations
(insert/delete/substitute) needed to make the two trajectories equivalent,
where two points "match" (substitution cost 0) when their Euclidean distance
is at most ``epsilon``.  The value is an integer in ``[|m - n|, max(m, n)]``,
which gives the paper's length filter.
"""

from __future__ import annotations

import numpy as np

from ..kernels.wavefront import edr_wavefront, edr_wavefront_threshold
from .base import TrajectoryDistance, register_distance


def edr(t: np.ndarray, q: np.ndarray, epsilon: float) -> int:
    """Exact EDR via the anti-diagonal wavefront kernel."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    return edr_wavefront(t, q, epsilon)


def edr_threshold(t: np.ndarray, q: np.ndarray, epsilon: float, tau: float) -> float:
    """EDR if ``<= tau`` else ``inf``: length filter, then a wavefront sweep
    that prunes cells above ``tau`` and abandons once the frontier dies."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    return edr_wavefront_threshold(t, q, epsilon, tau)


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
