"""The 3-D form of the batched Lemma 5.6 cell bound: the bit-identity
oracle for :func:`repro.kernels.batch.batch_cell_bounds`.

This was ``batch_cell_bounds`` in ``src/repro/kernels/batch.py`` until the
kernel stopped materialising ``(cells, nq, d)`` temporaries; the body is
moved here verbatim (minus the parameter nothing read).  It takes the
square root of every cell-to-cell gap before the minima; the kernel takes
the minima first — ``sqrt`` is monotone and correctly rounded, so the two
agree to the last bit, which ``tests/test_kernels.py`` pins.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.batch import TrajectoryBlock


def batch_cell_bounds_reference(
    block: TrajectoryBlock,
    rows: np.ndarray,
    q_cells,
    kind: str,
    max_elems: int = 1 << 20,
) -> np.ndarray:
    """Lemma 5.6 lower bounds for all selected rows at once."""
    if kind not in ("sum", "max"):
        raise ValueError(f"unknown cell bound kind {kind!r}")
    k = int(rows.shape[0])
    if k == 0:
        return np.empty(0)
    pos, seg_starts, lens = block.gather_cells(rows)
    centers = block.cell_centers[pos]
    halves = block.cell_halves[pos]
    counts = block.cell_counts[pos]
    q_half = q_cells.side / 2.0
    q_low = q_cells.centers - q_half
    q_high = q_cells.centers + q_half
    q_counts = q_cells.counts.astype(np.float64)
    nq = q_low.shape[0]
    bounds = np.empty(k)
    lead = 0
    while lead < k:
        tail = lead + 1
        cells = int(lens[lead])
        while tail < k and (cells + int(lens[tail])) * nq <= max_elems:
            cells += int(lens[tail])
            tail += 1
        c_lo = int(seg_starts[lead])
        c_hi = c_lo + cells
        low = centers[c_lo:c_hi] - halves[c_lo:c_hi, None]
        high = centers[c_lo:c_hi] + halves[c_lo:c_hi, None]
        gap = np.maximum(
            low[:, None, :] - q_high[None, :, :], q_low[None, :, :] - high[:, None, :]
        )
        np.maximum(gap, 0.0, out=gap)
        dist = np.sqrt(np.sum(gap * gap, axis=2))
        local_starts = (seg_starts[lead:tail] - c_lo).astype(np.int64)
        row_min = dist.min(axis=1)
        col_min = np.minimum.reduceat(dist, local_starts, axis=0)
        if kind == "sum":
            forward = np.add.reduceat(row_min * counts[c_lo:c_hi], local_starts)
            backward = col_min @ q_counts
        else:
            forward = np.maximum.reduceat(row_min, local_starts)
            backward = col_min.max(axis=1)
        np.maximum(forward, backward, out=forward)
        bounds[lead:tail] = forward
        lead = tail
    return bounds
