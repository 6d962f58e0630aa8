"""The MBE envelope bound one trajectory at a time: the differential
oracle for :meth:`repro.baselines.mbe.MBEIndex.lower_bounds`, which
evaluates it for every indexed trajectory in one chunked pass.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.geometry.mbr import MBR


def envelope_lower_bound(boxes: List[MBR], q: np.ndarray, aggregate: str = "sum") -> float:
    """The MBE lower bound of DTW ("sum") or Fréchet ("max") for query
    points ``q`` against a trajectory's envelope."""
    per_point = np.empty(q.shape[0])
    for j, point in enumerate(q):
        per_point[j] = min(box.min_dist_point(point) for box in boxes)
    if aggregate == "sum":
        return float(per_point.sum())
    if aggregate == "max":
        return float(per_point.max())
    raise ValueError(f"unknown aggregate {aggregate!r}")
