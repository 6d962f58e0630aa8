"""Edit distance with Real Penalty (ERP) [Chen & Ng, VLDB 2004].

ERP repairs EDR's non-metricity by charging real distances against a fixed
gap point ``g``: a skipped point costs its distance to ``g`` and a
substitution costs the point-to-point distance.  It is a metric, cited by
the paper among the widely-adopted functions (reference [9]).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..geometry.point import pairwise_distances
from ..kernels.wavefront import as_matrix_pair, edit_sweep
from .base import TrajectoryDistance, register_distance

_INF = math.inf
_EPS = float(np.finfo(np.float64).eps)


def _gap_costs(points: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Each point's distance to the gap point: what skipping it costs."""
    return np.sqrt(np.sum((points - g[None, :]) ** 2, axis=1))


def _erp_inputs(
    t: np.ndarray, q: np.ndarray, gap: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edit sweep's substitution matrix and the two gap-cost vectors."""
    t, q = as_matrix_pair(t, q, "ERP")
    g = np.asarray(gap, dtype=np.float64)
    if g.shape != (t.shape[1],):
        raise ValueError("gap point must match trajectory dimensionality")
    return pairwise_distances(t, q), _gap_costs(t, g), _gap_costs(q, g)


def erp_mass_bound(gt: np.ndarray, gq: np.ndarray) -> float:
    """The triangle-derived ERP lower bound
    ``|sum dist(t_i, g) - sum dist(q_j, g)|`` from the per-point gap costs,
    rounded *down*.

    The two masses are summed apart from the DP, so in floating point their
    difference can land a few ULPs *of the masses* above an ERP value that
    itself rounded to exactly ``tau`` — and ``bound > tau`` would then
    dismiss a true answer at the closed boundary.  Subtracting the worst
    case rounding of both computations (each adds at most ``m + n`` terms
    no larger than the total mass) keeps the bound at or below the DP's
    value; it is the closed-boundary allowance
    :func:`repro.core.numerics.slack` gives the trie filters, scaled by the
    magnitude the error actually has here.
    """
    mass_t = float(gt.sum())
    mass_q = float(gq.sum())
    allowance = (gt.shape[0] + gq.shape[0] + 8) * _EPS * (mass_t + mass_q)
    return max(0.0, abs(mass_t - mass_q) - allowance)


def erp(t: np.ndarray, q: np.ndarray, gap: np.ndarray) -> float:
    """Exact ERP distance with gap point ``gap`` (edit sweep)."""
    return edit_sweep(*_erp_inputs(t, q, gap), None)


def erp_threshold(t: np.ndarray, q: np.ndarray, gap: np.ndarray, tau: float) -> float:
    """ERP if ``<= tau`` else ``inf``: the triangle-derived gap-mass bound
    rejects first, then a tau-pruned edit sweep decides the rest."""
    w, gt, gq = _erp_inputs(t, q, gap)
    if erp_mass_bound(gt, gq) > tau:
        return _INF
    value = edit_sweep(w, gt, gq, tau)
    return value if value <= tau else _INF


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
        return erp_mass_bound(_gap_costs(t, self.gap), _gap_costs(q, self.gap))

    def __repr__(self) -> str:
        return f"ERPDistance(gap={self.gap.tolist()})"
