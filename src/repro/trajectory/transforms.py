"""Trajectory preprocessing transforms.

Real GPS feeds arrive at uneven rates and in different coordinate frames;
these helpers normalize them before indexing:

* :func:`resample` — arc-length resampling to a fixed number of points
  (uniform spacing along the path), the standard preprocessing for
  DTW-family distances on mixed-rate data;
* :func:`translate` / :func:`scale` — affine normalization;
* :func:`normalize_unit_box` — map a dataset into ``[0, 1]^d`` (useful
  before picking a threshold in normalized units).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..storage.columnar import ColumnarDataset
from .trajectory import Trajectory


def resample(traj: Trajectory, n_points: int) -> Trajectory:
    """Arc-length-uniform resampling to exactly ``n_points`` points.

    Endpoints are preserved exactly.  A stationary trajectory (zero path
    length) resamples to ``n_points`` copies of its first point.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    pts = traj.points
    if pts.shape[0] == 1:
        return Trajectory(traj.traj_id, np.repeat(pts, n_points, axis=0))
    seg = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = cum[-1]
    if total == 0.0:
        return Trajectory(traj.traj_id, np.repeat(pts[:1], n_points, axis=0))
    targets = np.linspace(0.0, total, n_points)
    out = np.empty((n_points, pts.shape[1]))
    for d in range(pts.shape[1]):
        out[:, d] = np.interp(targets, cum, pts[:, d])
    out[0] = pts[0]
    out[-1] = pts[-1]
    return Trajectory(traj.traj_id, out)


def translate(traj: Trajectory, offset) -> Trajectory:
    """Shift every point by ``offset`` (length-d vector)."""
    off = np.asarray(offset, dtype=np.float64)
    if off.shape != (traj.ndim,):
        raise ValueError(f"offset must have shape ({traj.ndim},)")
    return Trajectory(traj.traj_id, traj.points + off[None, :])


def scale(traj: Trajectory, factor: float, origin=None) -> Trajectory:
    """Scale about ``origin`` (default: the coordinate origin)."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    o = np.zeros(traj.ndim) if origin is None else np.asarray(origin, dtype=np.float64)
    return Trajectory(traj.traj_id, (traj.points - o[None, :]) * factor + o[None, :])


def dataset_bounds(dataset: ColumnarDataset) -> Tuple[np.ndarray, np.ndarray]:
    """(low, high) corners covering every point of every trajectory."""
    if not len(dataset):
        raise ValueError("empty dataset has no bounds")
    return dataset.point_coords.min(axis=0), dataset.point_coords.max(axis=0)


def normalize_unit_box(dataset: ColumnarDataset) -> ColumnarDataset:
    """Affinely map the whole dataset into ``[0, 1]^d`` (aspect preserved:
    one uniform scale factor, so distances keep their relative order)."""
    low, high = dataset_bounds(dataset)
    span = float(np.max(high - low))
    if span == 0.0:
        span = 1.0
    coords = (dataset.point_coords - low[None, :]) / span
    return ColumnarDataset(dataset.traj_ids, dataset.point_starts, coords)
