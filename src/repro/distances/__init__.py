"""Trajectory similarity functions: DTW, Fréchet, EDR, LCSS, ERP and
Hausdorff.

Each module is the one wrapper layer over the kernels: it validates its
operands once (:func:`repro.kernels.wavefront.as_matrix_pair`), builds the
cost matrix, and runs one of the three DP sweeps — the per-pair
min-combine or edit sweep of :mod:`repro.kernels.wavefront`, or the
batched sweep of :mod:`repro.kernels.pairbatch`.  Hausdorff is no DP: it
reads the row and column minima of the distance matrix.

Use :func:`get_distance` to obtain one by name, e.g.
``get_distance("dtw")`` or ``get_distance("edr", epsilon=0.001)``.
"""

from .base import TrajectoryDistance, available_distances, get_distance, register_distance
from .dtw import (
    DTWDistance,
    dtw,
    dtw_double_direction,
    dtw_threshold,
    dtw_window,
)
from .edr import EDRDistance, edr, edr_threshold
from .erp import ERPDistance, erp, erp_threshold
from .frechet import (
    FrechetDistance,
    frechet,
    frechet_threshold,
)
from .hausdorff import HausdorffDistance, hausdorff, hausdorff_threshold
from .lb import keogh_envelope, lb_keogh, lb_kim
from .lcss import LCSSDistance, lcss, lcss_dissimilarity, lcss_threshold

__all__ = [
    "DTWDistance",
    "EDRDistance",
    "ERPDistance",
    "FrechetDistance",
    "HausdorffDistance",
    "LCSSDistance",
    "TrajectoryDistance",
    "available_distances",
    "dtw",
    "dtw_double_direction",
    "dtw_threshold",
    "dtw_window",
    "edr",
    "edr_threshold",
    "erp",
    "erp_threshold",
    "frechet",
    "frechet_threshold",
    "hausdorff",
    "hausdorff_threshold",
    "get_distance",
    "keogh_envelope",
    "lb_keogh",
    "lb_kim",
    "lcss",
    "lcss_dissimilarity",
    "lcss_threshold",
    "register_distance",
]
