"""Cell-based trajectory compression (Section 5.3.3, Lemma 5.6).

A trajectory is compressed greedily into a list of axis-aligned square cells
of side length ``D``: the first point opens a cell centered on itself; each
subsequent point either falls into an existing cell (incrementing its count)
or opens a new cell centered on itself.  ``Cell(T, Q)`` then lower-bounds
``DTW(T, Q)`` with one min-distance computation per cell instead of per
point.

:class:`CellSet` holds the cells as arrays (centers and point counts),
the one form verification reads.  :meth:`CellSet.from_points` compresses
one trajectory (a query, or a joined row compressed at another cell
size); a partition's rows are
compressed all at once by :func:`repro.kernels.batch.compress_cells`,
to the same bits.
"""

from __future__ import annotations

from typing import List

import numpy as np


class CellSet:
    """The compressed form of one trajectory: cell centers + point counts."""

    __slots__ = ("centers", "counts", "side")

    def __init__(self, centers: np.ndarray, counts: np.ndarray, side: float) -> None:
        self.centers = np.asarray(centers, dtype=np.float64)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.side = float(side)
        if self.centers.ndim != 2 or self.centers.shape[0] != self.counts.shape[0]:
            raise ValueError("centers and counts must align")
        if self.centers.shape[0] == 0:
            raise ValueError("a CellSet needs at least one cell")
        if side <= 0:
            raise ValueError("cell side length must be positive")

    @classmethod
    def from_points(cls, points: np.ndarray, side: float) -> "CellSet":
        """Greedy compression exactly as the paper describes: a point joins
        the first existing cell containing it, else opens a new cell
        centered on itself."""
        if side <= 0:
            raise ValueError("cell side length must be positive")
        mat = np.asarray(points, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] == 0:
            raise ValueError("compress expects a non-empty (n, d) array")
        half = side / 2.0
        centers: List[np.ndarray] = [mat[0].copy()]
        counts: List[int] = [1]
        center_mat = mat[0][None, :]
        for p in mat[1:]:
            inside = np.all(np.abs(center_mat - p[None, :]) <= half, axis=1)
            hit = int(np.argmax(inside)) if inside.any() else -1
            if hit >= 0:
                counts[hit] += 1
            else:
                centers.append(p.copy())
                counts.append(1)
                center_mat = np.vstack([center_mat, p[None, :]])
        return cls(np.asarray(centers), np.asarray(counts), side)

    def __len__(self) -> int:
        return int(self.centers.shape[0])

    @property
    def n_points(self) -> int:
        return int(self.counts.sum())

    def min_dist_matrix(self, other: "CellSet") -> np.ndarray:
        """Pairwise cell-to-cell minimum distances, shape (len(self), len(other))."""
        half_a = self.side / 2.0
        half_b = other.side / 2.0
        low_a = self.centers - half_a
        high_a = self.centers + half_a
        low_b = other.centers - half_b
        high_b = other.centers + half_b
        gap = np.maximum(
            0.0,
            np.maximum(
                low_a[:, None, :] - high_b[None, :, :],
                low_b[None, :, :] - high_a[:, None, :],
            ),
        )
        return np.sqrt(np.sum(gap * gap, axis=2))
