"""Longest Common SubSequence similarity (LCSS, Definition A.3).

``LCSS_{delta,eps}(T, Q)`` is the length of the longest common subsequence
where two points match when within ``epsilon`` *and* their indices differ by
at most ``delta`` (the paper's index constraint).

LCSS is a *similarity* (bigger is better).  To fit DITA's uniform
"``f(T, Q) <= tau`` means similar" framework we expose the standard
dissimilarity ``min(m, n) - LCSS`` from :meth:`LCSSDistance.compute`; the raw
subsequence length remains available via :func:`lcss`.
"""

from __future__ import annotations

import numpy as np

from ..geometry.point import pairwise_distances
from .base import TrajectoryDistance, register_distance


def lcss(t: np.ndarray, q: np.ndarray, epsilon: float, delta: int) -> int:
    """Length of the longest common subsequence under ``epsilon``/``delta``."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if epsilon < 0 or delta < 0:
        raise ValueError("epsilon and delta must be non-negative")
    m, n = t.shape[0], q.shape[0]
    close = pairwise_distances(t, q) <= epsilon
    prev = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, m + 1):
        cur = np.zeros(n + 1, dtype=np.int64)
        close_row = close[i - 1]
        for j in range(1, n + 1):
            if abs(i - j) <= delta and close_row[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = prev[j] if prev[j] >= cur[j - 1] else cur[j - 1]
        prev = cur
    return int(prev[n])


def lcss_dissimilarity(t: np.ndarray, q: np.ndarray, epsilon: float, delta: int) -> int:
    """``min(m, n) - LCSS``: 0 when one trajectory matches inside the other."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    return min(t.shape[0], q.shape[0]) - lcss(t, q, epsilon, delta)


@register_distance("lcss")
class LCSSDistance(TrajectoryDistance):
    """LCSS dissimilarity ``min(m, n) - LCSS`` under ``epsilon``/``delta``."""

    is_metric = False
    #: lower-bound opt-out: ``min(m, n) - LCSS`` is always >= 0, and any bound
    #: sharper than the trivial 0 needs an O(mn) epsilon-matching scan —
    #: candidates go straight to the banded exact DP instead.
    lower_bound_exempt = "no sub-quadratic nontrivial bound exists for LCSS dissimilarity"

    def __init__(self, epsilon: float = 0.001, delta: int = 3) -> None:
        if epsilon < 0 or delta < 0:
            raise ValueError("epsilon and delta must be non-negative")
        self.epsilon = epsilon
        self.delta = delta

    def compute(self, t: np.ndarray, q: np.ndarray) -> float:
        return float(lcss_dissimilarity(t, q, self.epsilon, self.delta))

    def __repr__(self) -> str:
        return f"LCSSDistance(epsilon={self.epsilon}, delta={self.delta})"
