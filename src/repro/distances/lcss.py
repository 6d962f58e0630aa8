"""Longest Common SubSequence similarity (LCSS, Definition A.3).

``LCSS_{delta,eps}(T, Q)`` is the length of the longest common subsequence
where two points match when within ``epsilon`` *and* their indices differ by
at most ``delta`` (the paper's index constraint).

LCSS is a *similarity* (bigger is better).  To fit DITA's uniform
"``f(T, Q) <= tau`` means similar" framework we expose the standard
dissimilarity ``min(m, n) - LCSS`` from :meth:`LCSSDistance.compute`; the raw
subsequence length remains available via :func:`lcss`.

All three functions run the edit sweep
(:func:`~repro.kernels.wavefront.edit_sweep`): with unit inserts and
deletes and a substitution that is free for a matching pair and ``inf``
otherwise, its value is ``D = m + n - 2 LCSS``, and the dissimilarity is
``(D - |m - n|) / 2``.  A threshold on the dissimilarity is therefore the
threshold ``2 tau + |m - n|`` on ``D``, which prunes and abandons the sweep
as it does EDR's.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..geometry.point import pairwise_distances
from ..kernels.wavefront import as_matrix_pair, edit_sweep
from .base import TrajectoryDistance, register_distance

_INF = math.inf


def _indels(
    t: np.ndarray, q: np.ndarray, epsilon: float, delta: int, tau: Optional[float]
) -> Tuple[float, int, int]:
    """``(D, m, n)``: ``D = m + n - 2 LCSS`` is the fewest inserts and
    deletes that align the two trajectories through matches only.  With
    ``tau`` set, ``D`` is ``inf`` once the dissimilarity exceeds it."""
    t, q = as_matrix_pair(t, q, "LCSS")
    if epsilon < 0 or delta < 0:
        raise ValueError("epsilon and delta must be non-negative")
    m, n = t.shape[0], q.shape[0]
    i, j = np.ogrid[:m, :n]
    match = (pairwise_distances(t, q) <= epsilon) & (np.abs(i - j) <= delta)
    limit = None if tau is None else 2 * tau + abs(m - n)
    return edit_sweep(np.where(match, 0.0, _INF), np.ones(m), np.ones(n), limit), m, n


def lcss(t: np.ndarray, q: np.ndarray, epsilon: float, delta: int) -> int:
    """Length of the longest common subsequence under ``epsilon``/``delta``."""
    d, m, n = _indels(t, q, epsilon, delta, None)
    return (m + n - int(d)) // 2


def lcss_dissimilarity(t: np.ndarray, q: np.ndarray, epsilon: float, delta: int) -> int:
    """``min(m, n) - LCSS``: 0 when one trajectory matches inside the other."""
    d, m, n = _indels(t, q, epsilon, delta, None)
    return (int(d) - abs(m - n)) // 2


def lcss_threshold(t: np.ndarray, q: np.ndarray, epsilon: float, delta: int, tau: float) -> float:
    """The dissimilarity if ``<= tau`` else ``inf``, from a sweep pruned at
    ``D <= 2 tau + |m - n|`` (rounding can only lift that limit past an
    integer ``D``, never drop it below one, so the closed check on the
    result keeps the answer exact)."""
    d, m, n = _indels(t, q, epsilon, delta, tau)
    value = (d - abs(m - n)) / 2
    return value if value <= tau else _INF


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

    def compute_threshold(self, t: np.ndarray, q: np.ndarray, tau: float) -> float:
        return lcss_threshold(t, q, self.epsilon, self.delta, tau)

    def __repr__(self) -> str:
        return f"LCSSDistance(epsilon={self.epsilon}, delta={self.delta})"
