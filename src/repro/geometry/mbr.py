"""Minimum bounding rectangles (MBRs).

MBRs are the workhorse of DITA's index: partitions are summarized by the MBR
of their trajectories' first/last points (global index), trie nodes hold the
MBR of one indexing point across a group of trajectories (local index), and
the verification step uses trajectory MBRs extended by ``tau`` (EMBRs,
Lemma 5.4 of the paper).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .point import PointLike


class MBR:
    """An axis-aligned d-dimensional minimum bounding rectangle.

    ``low`` and ``high`` are inclusive corner vectors with
    ``low[i] <= high[i]`` for every axis ``i``.
    """

    __slots__ = ("low", "high")

    def __init__(self, low: PointLike, high: PointLike) -> None:
        self.low = np.asarray(low, dtype=np.float64)
        self.high = np.asarray(high, dtype=np.float64)
        if self.low.shape != self.high.shape or self.low.ndim != 1:
            raise ValueError("MBR corners must be 1-d vectors of equal shape")
        if bool(np.any(self.low > self.high)):
            raise ValueError(f"invalid MBR: low {self.low} > high {self.high}")

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def of_points(cls, points: np.ndarray) -> "MBR":
        """The tightest MBR covering every row of ``points`` (shape (n, d))."""
        mat = np.asarray(points, dtype=np.float64)
        if mat.ndim == 1:
            mat = mat[None, :]
        if mat.size == 0:
            raise ValueError("cannot build an MBR over zero points")
        return cls(mat.min(axis=0), mat.max(axis=0))

    @classmethod
    def of_point(cls, point: PointLike) -> "MBR":
        """A degenerate MBR covering a single point."""
        p = np.asarray(point, dtype=np.float64)
        return cls(p.copy(), p.copy())

    @classmethod
    def union_all(cls, mbrs: Iterable["MBR"]) -> "MBR":
        """The MBR covering every rectangle in ``mbrs`` (non-empty)."""
        it: Iterator[MBR] = iter(mbrs)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("union_all of zero MBRs is undefined") from None
        low = first.low.copy()
        high = first.high.copy()
        for m in it:
            np.minimum(low, m.low, out=low)
            np.maximum(high, m.high, out=high)
        return cls(low, high)

    # ------------------------------------------------------------------ #
    # basic geometry
    # ------------------------------------------------------------------ #

    @property
    def ndim(self) -> int:
        return int(self.low.shape[0])

    @property
    def center(self) -> np.ndarray:
        return (self.low + self.high) / 2.0

    def extents(self) -> np.ndarray:
        """Per-axis side lengths."""
        return self.high - self.low

    def area(self) -> float:
        """d-dimensional volume (area in 2-d)."""
        return float(np.prod(self.high - self.low))

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree 'margin' heuristic)."""
        return float(np.sum(self.high - self.low))

    def contains_point(self, p: PointLike) -> bool:
        q = np.asarray(p, dtype=np.float64)
        return bool(np.all(q >= self.low) and np.all(q <= self.high))

    def contains_mbr(self, other: "MBR") -> bool:
        """True iff ``other`` lies entirely inside this rectangle."""
        return bool(np.all(other.low >= self.low) and np.all(other.high <= self.high))

    def intersects(self, other: "MBR") -> bool:
        return bool(np.all(self.low <= other.high) and np.all(other.low <= self.high))

    def union(self, other: "MBR") -> "MBR":
        return MBR(np.minimum(self.low, other.low), np.maximum(self.high, other.high))

    def expand(self, delta: float) -> "MBR":
        """The EMBR of Lemma 5.4: every border pushed outward by ``delta``."""
        if delta < 0:
            raise ValueError("expansion delta must be non-negative")
        return MBR(self.low - delta, self.high + delta)

    # ------------------------------------------------------------------ #
    # distances
    # ------------------------------------------------------------------ #

    def min_dist_point(self, p: PointLike) -> float:
        """``MinDist(q, MBR)``: minimal Euclidean distance from ``p`` to the
        rectangle (0 if the point is inside).  This is the classical
        clamped-coordinate formula, equivalent to the paper's "four corners
        and four sides" definition in 2-d and correct in any dimension.
        """
        q = np.asarray(p, dtype=np.float64)
        clamped = np.clip(q, self.low, self.high)
        return float(math.sqrt(float(np.sum((q - clamped) ** 2))))

    def min_dist_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized ``min_dist_point`` over every row of ``points``."""
        mat = np.asarray(points, dtype=np.float64)
        if mat.ndim == 1:
            mat = mat[None, :]
        clamped = np.clip(mat, self.low[None, :], self.high[None, :])
        return np.sqrt(np.sum((mat - clamped) ** 2, axis=1))

    def min_dist_trajectory(self, points: np.ndarray) -> float:
        """``MinDist(Q, MBR) = min over q in Q of MinDist(q, MBR)``."""
        d = self.min_dist_points(points)
        return float(d.min()) if d.size else math.inf

    def min_dist_mbr(self, other: "MBR") -> float:
        """Minimal distance between two rectangles (0 when they intersect)."""
        gap = np.maximum(
            0.0, np.maximum(self.low - other.high, other.low - self.high)
        )
        return float(math.sqrt(float(np.sum(gap * gap))))

    def max_dist_point(self, p: PointLike) -> float:
        """Maximal distance from ``p`` to any point of the rectangle."""
        q = np.asarray(p, dtype=np.float64)
        farthest = np.where(np.abs(q - self.low) > np.abs(q - self.high), self.low, self.high)
        return float(math.sqrt(float(np.sum((q - farthest) ** 2))))

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def to_tuple(self) -> tuple:
        return (tuple(self.low.tolist()), tuple(self.high.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return bool(np.array_equal(self.low, other.low) and np.array_equal(self.high, other.high))

    def __hash__(self) -> int:
        return hash(self.to_tuple())

    def __repr__(self) -> str:
        return f"MBR(low={self.low.tolist()}, high={self.high.tolist()})"
