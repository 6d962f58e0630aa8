"""Spatio-temporal support: time as an extra, weighted dimension.

The paper notes DITA "can be easily extended to support multi-dimensional
data (d >= 3)"; every structure in this repository is dimension-agnostic,
so time-aware similarity needs only a principled embedding.  These helpers
append each point's timestamp as an extra coordinate scaled by ``weight``
(units: distance per second), so the Euclidean point distance becomes

``sqrt(dx^2 + dy^2 + (weight * dt)^2)``

and DTW/Fréchet/... trade spatial deviation against temporal deviation at
an explicit exchange rate.  ``weight = 0.0001 / 3600`` makes one hour cost
as much as ~11 m — trips on the same route at very different times stop
matching, the behaviour a "find trips I could have shared" query needs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..storage.columnar import ColumnarDataset
from .trajectory import Trajectory


def attach_time(traj: Trajectory, timestamps: Sequence[float], weight: float) -> Trajectory:
    """A (d+1)-dimensional copy with ``weight * timestamp`` appended.

    ``timestamps`` must be non-decreasing with one entry per point.
    """
    if weight < 0:
        raise ValueError("weight must be non-negative")
    ts = np.asarray(timestamps, dtype=np.float64)
    if ts.shape != (len(traj),):
        raise ValueError(f"need {len(traj)} timestamps, got {ts.shape}")
    if np.any(np.diff(ts) < 0):
        raise ValueError("timestamps must be non-decreasing")
    column = (ts * weight)[:, None]
    return Trajectory(traj.traj_id, np.hstack([traj.points, column]))


def strip_time(traj: Trajectory) -> Trajectory:
    """Drop the last coordinate (inverse of :func:`attach_time`)."""
    if traj.ndim < 2:
        raise ValueError("trajectory has no time dimension to strip")
    return Trajectory(traj.traj_id, traj.points[:, :-1].copy())


def attach_uniform_time(
    traj: Trajectory, start: float, interval: float, weight: float
) -> Trajectory:
    """Convenience for fixed-rate feeds (e.g. one GPS fix per ``interval``
    seconds starting at ``start``)."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    ts = start + interval * np.arange(len(traj), dtype=np.float64)
    return attach_time(traj, ts, weight)


def temporal_dataset(
    dataset: ColumnarDataset,
    start_times: Sequence[float],
    interval: float,
    weight: float,
) -> ColumnarDataset:
    """Lift a whole dataset to space-time: trajectory ``i`` starts at
    ``start_times[i]`` with fixed-rate sampling — :func:`attach_uniform_time`
    over every row at once, ids and offsets carried over."""
    starts = np.asarray(list(start_times), dtype=np.float64)
    if starts.shape != (len(dataset),):
        raise ValueError("need one start time per trajectory")
    if interval <= 0:
        raise ValueError("interval must be positive")
    if weight < 0:
        raise ValueError("weight must be non-negative")
    lens = dataset.lengths
    seq = np.arange(dataset.n_points, dtype=np.int64) - np.repeat(dataset.point_starts[:-1], lens)
    ts = np.repeat(starts, lens) + interval * seq.astype(np.float64)
    coords = np.hstack([dataset.point_coords, (ts * weight)[:, None]])
    return ColumnarDataset(dataset.traj_ids, dataset.point_starts, coords)
