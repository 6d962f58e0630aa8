"""Geometric primitives: points, MBRs and cell compression."""

from .cell import CellSet
from .mbr import MBR
from .point import (
    angle_at,
    as_point,
    centroid,
    euclidean,
    pairwise_distances,
    point_to_points_min,
    squared_euclidean,
)

__all__ = [
    "CellSet",
    "MBR",
    "angle_at",
    "as_point",
    "centroid",
    "euclidean",
    "pairwise_distances",
    "point_to_points_min",
    "squared_euclidean",
]
