"""Trajectory similarity functions: DTW, Fréchet, EDR, LCSS and ERP.

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
from .lcss import LCSSDistance, lcss, lcss_dissimilarity

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
    "register_distance",
]
