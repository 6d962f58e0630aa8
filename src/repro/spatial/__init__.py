"""Spatial indexing substrate: STR packing and a bulk-loaded R-tree."""

from .rtree import RTree
from .str_pack import str_partition

__all__ = ["RTree", "str_partition"]
