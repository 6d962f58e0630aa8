"""Sort-Tile-Recursive (STR) partitioning [Leutenegger et al., ICDE 1997].

DITA uses STR twice: to split trajectories into ``NG`` buckets by first point
and each bucket into ``NG`` sub-buckets by last point (global partitioning,
Section 4.2.1), and to bulk-load the R-trees of the global index.  STR
guarantees that each tile holds roughly the same number of points even for
highly skewed data.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np


def str_tile_1d(values: np.ndarray, n_tiles: int) -> List[np.ndarray]:
    """Split indices of ``values`` into ``n_tiles`` rank-contiguous groups.

    Groups differ in size by at most one element.  Returns a list of index
    arrays (into ``values``); empty groups are omitted.
    """
    if n_tiles <= 0:
        raise ValueError("n_tiles must be positive")
    order = np.argsort(values, kind="stable")
    chunks = np.array_split(order, n_tiles)
    return [c for c in chunks if c.size > 0]


def str_partition(points: np.ndarray, n_tiles: int) -> List[np.ndarray]:
    """STR-partition a 2-d point set into **at most** ``n_tiles`` tiles.

    Sorts points by x, slices into ``ceil(sqrt(n_tiles))`` vertical slabs,
    then sorts each slab by y and slices into rows, distributing the row
    budget across slabs so the total tile count never exceeds ``n_tiles``.
    Every input index appears in exactly one tile.  For d > 2 the first two
    axes are used, matching the paper's 2-d setting.
    """
    mat = np.asarray(points, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError("str_partition expects a non-empty (n, d) array")
    if n_tiles <= 0:
        raise ValueError("n_tiles must be positive")
    n = mat.shape[0]
    n_tiles = min(n_tiles, n)
    if n_tiles == 1:
        return [np.arange(n)]
    slabs = min(int(math.ceil(math.sqrt(n_tiles))), n_tiles)
    base_rows = n_tiles // slabs
    extra = n_tiles % slabs
    rows_per_slab = [base_rows + (1 if i < extra else 0) for i in range(slabs)]
    # each slab receives points in proportion to its row count so every
    # tile ends up with ~n / n_tiles points
    x_order = np.argsort(mat[:, 0], kind="stable")
    tiles: List[np.ndarray] = []
    assigned = 0
    rows_done = 0
    for rows in rows_per_slab:
        rows_done += rows
        end = int(round(n * rows_done / n_tiles))
        slab_idx = x_order[assigned:end]
        assigned = end
        if slab_idx.size == 0:
            continue
        y_values = mat[slab_idx, 1] if mat.shape[1] > 1 else mat[slab_idx, 0]
        for sub in str_tile_1d(y_values, max(1, rows)):
            tiles.append(slab_idx[sub])
    return tiles
