"""Edit distance with Real Penalty (ERP) [Chen & Ng, VLDB 2004].

ERP repairs EDR's non-metricity by charging real distances against a fixed
gap point ``g``: a skipped point costs its distance to ``g`` and a
substitution costs the point-to-point distance.  It is a metric, cited by
the paper among the widely-adopted functions (reference [9]).
"""

from __future__ import annotations

import numpy as np

from ..kernels.wavefront import erp_mass_bound, erp_wavefront, erp_wavefront_threshold
from .base import TrajectoryDistance, register_distance


def erp(t: np.ndarray, q: np.ndarray, gap: np.ndarray) -> float:
    """Exact ERP distance with gap point ``gap`` (wavefront kernel)."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    g = np.asarray(gap, dtype=np.float64)
    if g.shape != (t.shape[1],):
        raise ValueError("gap point must match trajectory dimensionality")
    return erp_wavefront(t, q, g)


def erp_threshold(t: np.ndarray, q: np.ndarray, gap: np.ndarray, tau: float) -> float:
    """ERP if ``<= tau`` else ``inf``: the triangle-derived gap-mass bound
    rejects first, then a tau-pruned wavefront sweep decides the rest."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    g = np.asarray(gap, dtype=np.float64)
    if g.shape != (t.shape[1],):
        raise ValueError("gap point must match trajectory dimensionality")
    return erp_wavefront_threshold(t, q, g, tau)


@register_distance("erp")
class ERPDistance(TrajectoryDistance):
    """ERP with configurable gap point (defaults to the 2-d origin)."""

    is_metric = True

    def __init__(self, gap=None, ndim: int = 2) -> None:
        self.gap = np.zeros(ndim) if gap is None else np.asarray(gap, dtype=np.float64)

    def compute(self, t: np.ndarray, q: np.ndarray) -> float:
        return erp(t, q, self.gap)

    def compute_threshold(self, t: np.ndarray, q: np.ndarray, tau: float) -> float:
        return erp_threshold(t, q, self.gap, tau)

    def lower_bound(self, t: np.ndarray, q: np.ndarray) -> float:
        """The triangle-derived mass bound
        ``|sum dist(t_i, g) - sum dist(q_j, g)| <= ERP(T, Q)`` (the same
        bound ``erp_threshold`` uses to abandon early)."""
        t = np.atleast_2d(np.asarray(t, dtype=np.float64))
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        g = self.gap
        return erp_mass_bound(
            np.sqrt(np.sum((t - g[None, :]) ** 2, axis=1)),
            np.sqrt(np.sum((q - g[None, :]) ** 2, axis=1)),
        )

    def __repr__(self) -> str:
        return f"ERPDistance(gap={self.gap.tolist()})"
