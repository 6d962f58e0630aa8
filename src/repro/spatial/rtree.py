"""A bulk-loaded R-tree over MBRs.

The paper's global index (Section 4.2.2) is one such tree over the
partitions' first-point MBRs and one over their last-point MBRs; here the
Simba and DFT baselines use it (DITA's own global index scans a partition
table, :mod:`repro.core.global_index`).

The tree is packed bottom-up with STR, which is exactly how Simba and most
analytic systems bulk-load: sort entries by center-x, slice, sort slices by
center-y, pack into nodes of ``max_entries`` children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.mbr import MBR


@dataclass
class _Node:
    mbr: MBR
    children: List["_Node"] = field(default_factory=list)
    entries: List[Tuple[MBR, Any]] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class RTree:
    """Static R-tree bulk-loaded from ``(MBR, payload)`` entries."""

    def __init__(self, entries: Sequence[Tuple[MBR, Any]], max_entries: int = 16) -> None:
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        self.max_entries = max_entries
        self._size = len(entries)
        self._root: Optional[_Node] = self._bulk_load(list(entries)) if entries else None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _bulk_load(self, entries: List[Tuple[MBR, Any]]) -> _Node:
        leaves = self._pack_leaves(entries)
        level = leaves
        while len(level) > 1:
            level = self._pack_internal(level)
        return level[0]

    def _pack_leaves(self, entries: List[Tuple[MBR, Any]]) -> List[_Node]:
        centers = np.asarray([e[0].center for e in entries])
        order = self._str_order(centers)
        leaves: List[_Node] = []
        for start in range(0, len(order), self.max_entries):
            chunk = [entries[i] for i in order[start : start + self.max_entries]]
            leaves.append(_Node(mbr=MBR.union_all(m for m, _ in chunk), entries=chunk))
        return leaves

    def _pack_internal(self, nodes: List[_Node]) -> List[_Node]:
        centers = np.asarray([n.mbr.center for n in nodes])
        order = self._str_order(centers)
        parents: List[_Node] = []
        for start in range(0, len(order), self.max_entries):
            chunk = [nodes[i] for i in order[start : start + self.max_entries]]
            parents.append(_Node(mbr=MBR.union_all(n.mbr for n in chunk), children=chunk))
        return parents

    def _str_order(self, centers: np.ndarray) -> List[int]:
        """STR ordering of entry centers: slice by x, sort slices by y."""
        n = centers.shape[0]
        n_leaves = int(math.ceil(n / self.max_entries))
        slabs = max(1, int(math.ceil(math.sqrt(n_leaves))))
        per_slab = int(math.ceil(n / slabs))
        x_order = np.argsort(centers[:, 0], kind="stable")
        out: List[int] = []
        for start in range(0, n, per_slab):
            slab = x_order[start : start + per_slab]
            y_key = centers[slab, 1] if centers.shape[1] > 1 else centers[slab, 0]
            out.extend(slab[np.argsort(y_key, kind="stable")].tolist())
        return out

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        h = 0
        node = self._root
        while node is not None:
            h += 1
            node = node.children[0] if node.children else None
        return h

    def search_min_dist(self, point: np.ndarray, tau: float) -> List[Tuple[MBR, Any]]:
        """All entries whose ``MinDist(point, entry MBR) <= tau``.

        This is the global-pruning primitive of Section 5.2.
        """
        results: List[Tuple[MBR, Any]] = []
        if self._root is None:
            return results
        stack = [self._root]
        q = np.asarray(point, dtype=np.float64)
        while stack:
            node = stack.pop()
            if node.mbr.min_dist_point(q) > tau:
                continue
            if node.is_leaf:
                for mbr, payload in node.entries:
                    if mbr.min_dist_point(q) <= tau:
                        results.append((mbr, payload))
            else:
                stack.extend(node.children)
        return results

    def search_intersects(self, region: MBR) -> List[Tuple[MBR, Any]]:
        """All entries whose MBR intersects ``region``."""
        results: List[Tuple[MBR, Any]] = []
        if self._root is None:
            return results
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.mbr.intersects(region):
                continue
            if node.is_leaf:
                results.extend(e for e in node.entries if e[0].intersects(region))
            else:
                stack.extend(node.children)
        return results

    def search_predicate(
        self, node_pred: Callable[[MBR], bool], entry_pred: Callable[[MBR], bool]
    ) -> List[Tuple[MBR, Any]]:
        """Generic pruned traversal: descend while ``node_pred`` holds, keep
        entries satisfying ``entry_pred``.  ``node_pred`` must be monotone
        (true for a node whenever true for any descendant) for correctness.
        """
        results: List[Tuple[MBR, Any]] = []
        if self._root is None:
            return results
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node_pred(node.mbr):
                continue
            if node.is_leaf:
                results.extend(e for e in node.entries if entry_pred(e[0]))
            else:
                stack.extend(node.children)
        return results

    def nearest(self, point: np.ndarray, k: int = 1) -> List[Tuple[float, MBR, Any]]:
        """k nearest entries to ``point`` by MBR min-dist (best-first search)."""
        import heapq

        if self._root is None or k <= 0:
            return []
        q = np.asarray(point, dtype=np.float64)
        heap: List[Tuple[float, int, Any]] = []
        counter = 0
        heapq.heappush(heap, (self._root.mbr.min_dist_point(q), counter, self._root))
        out: List[Tuple[float, MBR, Any]] = []
        while heap and len(out) < k:
            dist, _, item = heapq.heappop(heap)
            if isinstance(item, _Node):
                if item.is_leaf:
                    for mbr, payload in item.entries:
                        counter += 1
                        heapq.heappush(heap, (mbr.min_dist_point(q), counter, (mbr, payload)))
                else:
                    for child in item.children:
                        counter += 1
                        heapq.heappush(heap, (child.mbr.min_dist_point(q), counter, child))
            else:
                mbr, payload = item
                out.append((dist, mbr, payload))
        return out

    def all_entries(self) -> List[Tuple[MBR, Any]]:
        """Every (MBR, payload) entry, in storage order."""
        results: List[Tuple[MBR, Any]] = []
        if self._root is None:
            return results
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                results.extend(node.entries)
            else:
                stack.extend(node.children)
        return results
