"""Per-partition write buffers for streaming ingestion.

A :class:`DeltaPartition` absorbs appends, extensions and removals
without touching the partition's (possibly memory-mapped) base block:
writes are O(pending) dictionary/set updates, and no index structure is
maintained until the delta is *applied*.  Application produces one new
compact :class:`~repro.storage.columnar.ColumnarDataset` whose rows are
the surviving base rows in base order followed by the delta rows in
arrival order — a canonical layout, so an index bulk-built over the
applied dataset is structurally identical to an index bulk-built over
the same logical trajectories by any other path (the byte-identical
stats contract ``tests/test_streaming.py`` enforces).

Semantics:

* **append** — a brand-new trajectory id becomes a delta row.
* **extend** — the full extended point array becomes a delta row; when
  the id lives in the base block, the base row is shadowed (dropped on
  apply).  Extending an id already pending in the delta just grows its
  pending points.
* **remove** — a pending id is simply dropped; a base id is recorded for
  removal on apply.  Removing an id that *shadowed* a base row keeps the
  shadow (the base row must still disappear), and re-appending a removed
  base id turns the removal into a shadow.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from .columnar import ColumnarDataset


class DeltaPartition:
    """The write buffer of one partition (insertion-ordered)."""

    def __init__(self, ndim: Optional[int] = None) -> None:
        self._ndim = ndim
        #: pending rows: id -> full (len, ndim) float64 point array,
        #: in arrival order (dict preserves insertion order)
        self.appended: Dict[int, np.ndarray] = {}
        #: pending ids that shadow (replace) a base row
        self.replaced: Set[int] = set()
        #: base ids to tombstone on apply
        self.removed: Set[int] = set()

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def _coerce(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self._ndim is None:
            self._ndim = int(pts.shape[1])
        elif pts.shape[1] != self._ndim:
            raise ValueError(f"points must have ndim {self._ndim}, got {pts.shape[1]}")
        return pts

    def append(self, traj_id: int, points) -> None:
        """Buffer a new trajectory (the id must not be pending already)."""
        if traj_id in self.appended:
            raise ValueError(f"trajectory {traj_id} already pending")
        self.appended[traj_id] = self._coerce(points)
        if traj_id in self.removed:
            # a base id removed and re-appended before the flush: the new
            # row shadows the base row, which must still disappear
            self.removed.discard(traj_id)
            self.replaced.add(traj_id)

    def extend_pending(self, traj_id: int, extra_points) -> None:
        """Grow an id already buffered in this delta."""
        self.appended[traj_id] = np.concatenate(
            [self.appended[traj_id], self._coerce(extra_points)], axis=0
        )

    def replace(self, traj_id: int, full_points) -> None:
        """Shadow a base row with the full extended point array."""
        self.appended[traj_id] = self._coerce(full_points)
        self.replaced.add(traj_id)

    def remove(self, traj_id: int) -> None:
        """Drop a pending id, or record a base id for removal on apply."""
        if traj_id in self.appended:
            del self.appended[traj_id]
            if traj_id in self.replaced:
                # the shadowed base row must still disappear
                self.replaced.discard(traj_id)
                self.removed.add(traj_id)
        else:
            self.removed.add(traj_id)

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #

    @property
    def n_pending(self) -> int:
        """Buffered operations: pending rows plus base removals."""
        return len(self.appended) + len(self.removed)

    @property
    def net_rows(self) -> int:
        """Net change in the partition's alive-row count once applied."""
        return len(self.appended) - len(self.replaced) - len(self.removed)

    def __bool__(self) -> bool:
        return bool(self.appended or self.removed)

    def __repr__(self) -> str:
        return (
            f"DeltaPartition(pending={len(self.appended)}, "
            f"replaced={len(self.replaced)}, removed={len(self.removed)})"
        )

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #

    def apply(self, base: Optional[ColumnarDataset]) -> ColumnarDataset:
        """One compact dataset: surviving base rows, then delta rows.

        Base rows shadowed or removed by this delta are dropped; row
        *order* (base order, then arrival order) is the canonical layout
        every consumer of the partition rebuilds from, which is what
        makes the streamed and bulk-built indexes structurally equal.
        """
        gone = self.removed | self.replaced
        if base is not None and base.n_rows:
            alive = base.alive_rows()
            if gone:
                keep_mask = ~np.isin(base.traj_ids[alive], np.fromiter(gone, dtype=np.int64))
                alive = alive[keep_mask]
            base_part = base.subset(alive)
        else:
            base_part = ColumnarDataset.empty(self._ndim or 2)
        if not self.appended:
            return base_part
        ids = np.fromiter(self.appended, dtype=np.int64, count=len(self.appended))
        lens = np.asarray([p.shape[0] for p in self.appended.values()], dtype=np.int64)
        coords = np.concatenate(list(self.appended.values()), axis=0)
        all_ids = np.concatenate([base_part.traj_ids, ids])
        all_lens = np.concatenate([base_part.lengths, lens])
        starts = np.zeros(all_ids.shape[0] + 1, dtype=np.int64)
        np.cumsum(all_lens, out=starts[1:])
        all_coords = (
            np.concatenate([base_part.point_coords, coords], axis=0)
            if base_part.n_rows
            else coords
        )
        return ColumnarDataset(all_ids, starts, all_coords)
