"""The ``Trajectory`` type.

A trajectory (Definition 2.1) is a sequence of d-dimensional points produced
by a moving object.  We store the points as an immutable ``(n, d)`` float64
numpy array; the paper's examples and our defaults are 2-d
``(latitude, longitude)`` but every algorithm works for d >= 1.  Collections
of trajectories live in :class:`~repro.storage.columnar.ColumnarDataset`,
whose rows materialize as zero-copy ``Trajectory`` views.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..geometry.mbr import MBR


class Trajectory:
    """An immutable trajectory with an integer id.

    The raw points are exposed as ``.points`` (a read-only numpy view); all
    index structures key trajectories by ``.traj_id``.
    """

    __slots__ = ("traj_id", "points", "_mbr")

    def __init__(self, traj_id: int, points: Sequence) -> None:
        mat = np.asarray(points, dtype=np.float64)
        if mat.ndim == 1:
            mat = mat[None, :]
        if mat.ndim != 2 or mat.shape[0] == 0:
            raise ValueError("a trajectory needs at least one d-dimensional point")
        mat = np.ascontiguousarray(mat)
        mat.setflags(write=False)
        self.traj_id = int(traj_id)
        self.points = mat
        self._mbr: Optional[MBR] = None

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def ndim(self) -> int:
        return int(self.points.shape[1])

    @property
    def first(self) -> np.ndarray:
        return self.points[0]

    @property
    def last(self) -> np.ndarray:
        return self.points[-1]

    @property
    def mbr(self) -> MBR:
        """The MBR covering the whole trajectory (cached; used by Lemma 5.4)."""
        if self._mbr is None:
            self._mbr = MBR.of_points(self.points)
        return self._mbr

    def prefix(self, j: int) -> "Trajectory":
        """``T^j``: the prefix up to (and including) the j-th point, 1-based."""
        if not 1 <= j <= len(self):
            raise IndexError(f"prefix length {j} out of range 1..{len(self)}")
        return Trajectory(self.traj_id, self.points[:j])

    def reversed(self) -> "Trajectory":
        """The trajectory traversed backwards (used by double-direction DTW)."""
        return Trajectory(self.traj_id, self.points[::-1])

    def length_travelled(self) -> float:
        """Total path length (sum of consecutive point distances)."""
        if len(self) < 2:
            return 0.0
        diffs = np.diff(self.points, axis=0)
        return float(np.sum(np.sqrt(np.sum(diffs * diffs, axis=1))))

    def nbytes(self) -> int:
        """Approximate in-memory size of the raw points, for cost accounting."""
        return int(self.points.nbytes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.traj_id == other.traj_id and np.array_equal(self.points, other.points)

    def __hash__(self) -> int:
        return hash((self.traj_id, self.points.shape, self.points.tobytes()))

    def __repr__(self) -> str:
        return f"Trajectory(id={self.traj_id}, n={len(self)}, d={self.ndim})"
