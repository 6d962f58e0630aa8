"""Loader for the GeoLife / T-Drive PLT format.

The taxi datasets the paper uses (and the public Microsoft GeoLife and
T-Drive releases most reproductions substitute) store one trajectory per
``.plt`` file::

    Geolife trajectory
    WGS 84
    Altitude is in Feet
    Reserved 3
    0,2,255,My Track,0,0,2,8421376
    0
    lat,lng,0,altitude,days,date,time
    39.906631,116.385564,0,492,39745.1,2008-10-24,02:09:59
    ...

(the six header lines are fixed; each data row is
``latitude,longitude,0,altitude,date-serial,date,time``).

:func:`load_plt` parses one file; :func:`load_plt_directory` walks a
directory tree and assigns sequential ids — point a downloaded GeoLife
archive at it and the result drops straight into :class:`DITAEngine`.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..storage.columnar import ColumnarDataset, check_finite
from .trajectory import Trajectory

PathLike = Union[str, Path]

#: number of fixed header lines in a PLT file
PLT_HEADER_LINES = 6


def _plt_points(path: Path, max_points: Optional[int]) -> np.ndarray:
    """Valid (lat, lng) rows of one ``.plt`` file as an ``(n, 2)`` array."""
    points: List[List[float]] = []
    with path.open() as f:
        for line_no, line in enumerate(f):
            if line_no < PLT_HEADER_LINES:
                continue
            parts = line.strip().split(",")
            if len(parts) < 2:
                continue
            try:
                lat = float(parts[0])
                lng = float(parts[1])
            except ValueError:
                continue  # tolerate malformed rows, as GeoLife needs
            points.append([lat, lng])
            if max_points is not None and len(points) >= max_points:
                break
    return np.asarray(points, dtype=np.float64).reshape(-1, 2)


def load_plt(path: PathLike, traj_id: int = 0, max_points: Optional[int] = None) -> Trajectory:
    """Parse a single ``.plt`` file into a (lat, lng) trajectory."""
    path = Path(path)
    pts = _plt_points(path, max_points)
    if pts.shape[0] == 0:
        raise ValueError(f"{path} contains no valid points")
    return Trajectory(traj_id, pts)


def load_plt_directory(
    root: PathLike,
    max_trajectories: Optional[int] = None,
    max_points: Optional[int] = None,
    min_points: int = 2,
) -> ColumnarDataset:
    """Recursively ingest every ``.plt`` under ``root`` (sorted for
    determinism) into one contiguous columnar block, assigning sequential
    ids; files with fewer than ``min_points`` valid rows are skipped."""
    root = Path(root)
    files = sorted(root.rglob("*.plt"))
    blocks: List[np.ndarray] = []
    for path in files:
        if max_trajectories is not None and len(blocks) >= max_trajectories:
            break
        pts = _plt_points(path, max_points)
        check_finite(pts, path)
        if pts.shape[0] >= min_points:
            blocks.append(pts)
    return ColumnarDataset.from_point_arrays(np.arange(len(blocks)), blocks)
