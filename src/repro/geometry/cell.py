"""Cell-based trajectory compression (Section 5.3.3, Lemma 5.6).

A trajectory is compressed greedily into a list of axis-aligned square cells
of side length ``D``: the first point opens a cell centered on itself; each
subsequent point either falls into an existing cell (incrementing its count)
or opens a new cell centered on itself.  ``Cell(T, Q)`` then lower-bounds
``DTW(T, Q)`` with one min-distance computation per cell instead of per
point.

:class:`CellSet` is the vectorized representation used on the hot path
(verification runs it for every surviving candidate pair); the
:class:`Cell` dataclass remains as the one-cell view for inspection and
tests.  :meth:`CellSet.from_points` compresses one trajectory (a query, or
a joined row compressed at another cell size); a partition's rows are
compressed all at once by :func:`repro.kernels.batch.compress_cells`,
to the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class Cell:
    """A square cell: ``center`` with side length ``side`` and the number of
    trajectory points that fell inside it."""

    center: tuple
    side: float
    count: int

    @property
    def low(self) -> np.ndarray:
        return np.asarray(self.center, dtype=np.float64) - self.side / 2.0

    @property
    def high(self) -> np.ndarray:
        return np.asarray(self.center, dtype=np.float64) + self.side / 2.0

    def contains(self, p: np.ndarray) -> bool:
        # center-based test so it agrees bit-for-bit with the membership
        # predicate used during compression (|p - center| <= side/2)
        c = np.asarray(self.center, dtype=np.float64)
        return bool(np.all(np.abs(np.asarray(p, dtype=np.float64) - c) <= self.side / 2.0))

    def min_dist_cell(self, other: "Cell") -> float:
        """Minimum distance between two cells (0 when they overlap)."""
        gap = np.maximum(0.0, np.maximum(self.low - other.high, other.low - self.high))
        return float(math.sqrt(float(np.sum(gap * gap))))


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

    def cells(self) -> List[Cell]:
        """The per-cell view (for inspection and tests)."""
        return [
            Cell(tuple(c.tolist()), self.side, int(n))
            for c, n in zip(self.centers, self.counts)
        ]

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


def compress(points: np.ndarray, side: float) -> List[Cell]:
    """Paper-style compression returning the list-of-cells view."""
    return CellSet.from_points(points, side).cells()


def cell_lower_bound(cells_t, cells_q) -> float:
    """``Cell(T, Q)`` of Lemma 5.6: sum over cells of T of
    ``min-dist to any cell of Q`` weighted by the cell's point count.

    A valid DTW lower bound because every point of T must be matched to at
    least one point of Q, and every such point-to-point distance is at least
    the distance between the containing cells.  Accepts :class:`CellSet`
    or sequences of :class:`Cell`.
    """
    ct = _as_cellset(cells_t)
    cq = _as_cellset(cells_q)
    mins = ct.min_dist_matrix(cq).min(axis=1)
    return float(np.dot(mins, ct.counts))


def cell_lower_bound_max(cells_t, cells_q) -> float:
    """Fréchet variant: the largest cell-to-nearest-cell gap from T to Q."""
    ct = _as_cellset(cells_t)
    cq = _as_cellset(cells_q)
    return float(ct.min_dist_matrix(cq).min(axis=1).max())


def symmetric_cell_lower_bound(cells_t, cells_q) -> float:
    """``max(Cell(T, Q), Cell(Q, T))`` — the tighter of the two directions."""
    ct = _as_cellset(cells_t)
    cq = _as_cellset(cells_q)
    m = ct.min_dist_matrix(cq)
    forward = float(np.dot(m.min(axis=1), ct.counts))
    backward = float(np.dot(m.min(axis=0), cq.counts))
    return max(forward, backward)


def _as_cellset(cells) -> CellSet:
    if isinstance(cells, CellSet):
        return cells
    cells = list(cells)
    if not cells:
        raise ValueError("cell bound needs non-empty cells")
    centers = np.asarray([c.center for c in cells])
    counts = np.asarray([c.count for c in cells])
    return CellSet(centers, counts, cells[0].side)
