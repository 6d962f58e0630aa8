"""Dataset serialization: CSV and JSON-lines formats.

CSV format (one point per row)::

    traj_id,seq,x,y[,z...]

JSON-lines format (one trajectory per line)::

    {"traj_id": 7, "points": [[x, y], [x, y], ...]}

Both loaders are **columnar ingest**: the file parses into one contiguous
CSR block (:class:`~repro.storage.columnar.ColumnarDataset`) in a handful
of vectorized numpy calls — no per-point Python loop, no per-trajectory
array allocation — and that block is what the engine adopts.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List, Union

import numpy as np

from ..storage.columnar import ColumnarDataset, check_finite

PathLike = Union[str, Path]


def save_csv(dataset: ColumnarDataset, path: PathLike) -> None:
    """Write the dataset as a flat point-per-row CSV with header."""
    path = Path(path)
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        ndim = dataset.ndim
        writer.writerow(["traj_id", "seq"] + [f"c{i}" for i in range(ndim)])
        for traj in dataset:
            for seq, point in enumerate(traj.points):
                writer.writerow([traj.traj_id, seq] + [repr(float(v)) for v in point])


def load_csv(path: PathLike) -> ColumnarDataset:
    """Read a point-per-row CSV produced by :func:`save_csv` into one
    contiguous columnar block, trajectories ordered by id.

    The whole body parses in a single :func:`np.loadtxt` call against a
    structured dtype (exact int64 ids, float64 coordinates), points are
    ordered by ``(traj_id, seq)`` with one stable ``lexsort``, and the
    CSR offsets fall out of ``np.unique``.
    """
    path = Path(path)
    with path.open(newline="") as f:
        header = f.readline()
        if not header.strip():
            return ColumnarDataset.empty(2)
        ndim = header.count(",") - 1
        if ndim < 1:
            raise ValueError(f"{path}: malformed header {header!r}")
        body = [line for line in f if line.strip()]
    if not body:
        return ColumnarDataset.empty(ndim)
    dtype = np.dtype(
        [("tid", np.int64), ("seq", np.int64), ("c", np.float64, (ndim,))]
    )
    data = np.loadtxt(body, delimiter=",", dtype=dtype, ndmin=1)
    order = np.lexsort((data["seq"], data["tid"]))
    tids = data["tid"][order]
    coords = np.ascontiguousarray(data["c"][order].reshape(-1, ndim))
    check_finite(coords, path)
    uniq, first_idx = np.unique(tids, return_index=True)
    starts = np.empty(uniq.shape[0] + 1, dtype=np.int64)
    starts[:-1] = first_idx
    starts[-1] = tids.shape[0]
    return ColumnarDataset(uniq.astype(np.int64, copy=True), starts, coords)


def save_jsonl(dataset: ColumnarDataset, path: PathLike) -> None:
    """Write the dataset as JSON lines, one trajectory per line."""
    path = Path(path)
    with path.open("w") as f:
        for traj in dataset:
            record = {"traj_id": traj.traj_id, "points": traj.points.tolist()}
            f.write(json.dumps(record))
            f.write("\n")


def load_jsonl(path: PathLike) -> ColumnarDataset:
    """Read a JSON-lines file produced by :func:`save_jsonl` into one
    contiguous columnar block (file order preserved).

    Per-line JSON decoding is unavoidable, but every decoded point list
    lands in a single flat ``(total_points, ndim)`` float64 conversion
    instead of one array allocation per trajectory.
    """
    path = Path(path)
    records = []
    with path.open() as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not records:
        return ColumnarDataset.empty(2)
    ids = np.asarray([int(r["traj_id"]) for r in records], dtype=np.int64)
    lens = np.asarray([len(r["points"]) for r in records], dtype=np.int64)
    starts = np.zeros(ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=starts[1:])
    flat: List[list] = [p for r in records for p in r["points"]]
    coords = np.asarray(flat, dtype=np.float64)
    if coords.ndim != 2:
        raise ValueError(f"{path}: ragged or empty point lists")
    check_finite(coords, path)
    return ColumnarDataset(ids, starts, coords)
