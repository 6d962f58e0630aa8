"""The per-pair loop form of the box bound: the bit-identity oracle for
:func:`repro.kernels.batch.batch_box_bounds`.

One row against one query, in plain Python floats: every cell's gap to
the other side's MBR, summed left to right with counts (``"sum"``) or
maxed (``"max"``), and the larger of the two directions.  The kernel must
agree with it to the last bit, whatever rows share its call
(``tests/test_lower_bounds.py``).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.kernels.batch import TrajectoryBlock


def _gap(lo_a: List[float], hi_a: List[float], lo_b: List[float], hi_b: List[float]) -> float:
    """Min-distance between two axis-aligned boxes."""
    sq = 0.0
    for axis in range(len(lo_a)):
        g = max(lo_a[axis] - hi_b[axis], lo_b[axis] - hi_a[axis], 0.0)
        sq += g * g
    return math.sqrt(sq)


def _direction(cells, side: float, low: List[float], high: List[float], kind: str) -> float:
    """One side's cells (centers, counts) against the other side's MBR."""
    half = side / 2.0
    total = 0.0
    for center, count in zip(cells.centers.tolist(), cells.counts.tolist()):
        gap = _gap([c - half for c in center], [c + half for c in center], low, high)
        total = max(total, gap) if kind == "max" else total + gap * float(count)
    return total


def box_bound_reference(block: TrajectoryBlock, row: int, q_cells, q_low, q_high, kind: str) -> float:
    """The box bound of block row ``row`` against the query."""
    if kind not in ("sum", "max"):
        raise ValueError(f"unknown cell bound kind {kind!r}")
    t_low = block.mbr_low[row].tolist()
    t_high = block.mbr_high[row].tolist()
    forward = _direction(q_cells, q_cells.side, t_low, t_high, kind)
    backward = _direction(
        block.cellset_of(row), block.cell_side,
        np.asarray(q_low, dtype=np.float64).tolist(), np.asarray(q_high, dtype=np.float64).tolist(), kind,
    )
    return max(forward, backward)
