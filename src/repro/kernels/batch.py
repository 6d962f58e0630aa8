"""Batched candidate filtering over stacked verification artifacts.

Verifying one pair at a time (the oracle in ``tests/oracles/per_pair.py``)
pays Python call overhead for every candidate: one MBR coverage test and
one cell bound per pair, each a handful of tiny numpy operations.  With
hundreds of candidates per query that overhead dominates the cheap stages.

This module stacks the precomputed per-trajectory artifacts (Lemma 5.4
MBRs and Lemma 5.6 cell summaries) into contiguous arrays — a
:class:`TrajectoryBlock`, built once per trie at index time — so both
filter stages evaluate for a *whole candidate list* with a few large
matrix operations.  The block is built the same way: :func:`compress_cells`
compresses every row's cells in one pass over the point column, stepping
over point positions with all rows at once, where
:meth:`~repro.geometry.cell.CellSet.from_points` (the one-trajectory form,
still used for queries) steps over one row's points.

* :func:`batch_mbr_coverage` — the Lemma 5.4 coverage test for all
  candidates at once: four broadcast comparisons over ``(k, d)`` corner
  arrays.
* :func:`batch_box_bounds` — Lemma 5.4's MBR argument in quantitative
  form, for the top-k scan: each side's cells against the other side's
  MBR, summed with counts or maxed.  Linear in the cells where Lemma 5.6
  is quadratic, so it thins a chunk before the cell bound sees it.
* :func:`batch_cell_bounds` — the Lemma 5.6 lower bound for all
  candidates: one cell-to-cell min-distance matrix over the concatenated
  candidate cells (chunked to bound memory), reduced per candidate with
  ``np.minimum/add/maximum.reduceat`` over the CSR-style segment layout.

Only candidates surviving both stages reach an exact wavefront kernel.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

_INF = math.inf


class TrajectoryBlock:
    """Contiguous verification artifacts for a set of trajectories.

    ``mbr_low``/``mbr_high`` hold one row per trajectory; the cell
    summaries are concatenated CSR-style: trajectory ``r`` owns cells
    ``cell_starts[r]:cell_starts[r+1]`` of ``cell_centers`` /
    ``cell_counts`` / ``cell_halves``.  Block rows share the row space of
    the storage tier's :class:`~repro.storage.columnar.ColumnarDataset`
    (row ``r`` of the block is row ``r`` of the dataset), so filter output
    indexes straight into the block with no id translation.
    """

    __slots__ = (
        "ids",
        "mbr_low",
        "mbr_high",
        "cell_centers",
        "cell_counts",
        "cell_halves",
        "cell_starts",
        "cell_side",
    )

    def __init__(
        self,
        ids: np.ndarray,
        mbr_low: np.ndarray,
        mbr_high: np.ndarray,
        cell_centers: np.ndarray,
        cell_counts: np.ndarray,
        cell_halves: np.ndarray,
        cell_starts: np.ndarray,
        cell_side: float = 0.0,
    ) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        self.mbr_low = mbr_low
        self.mbr_high = mbr_high
        self.cell_centers = cell_centers
        self.cell_counts = cell_counts
        self.cell_halves = cell_halves
        self.cell_starts = cell_starts
        self.cell_side = float(cell_side)

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @classmethod
    def from_columnar(cls, dataset, cell_size: float) -> "TrajectoryBlock":
        """Build the block straight from a columnar dataset's arrays.

        MBR corners come from the dataset's vectorized per-row summaries
        (no object iteration); cells come from one :func:`compress_cells`
        pass over the whole point column, bit-identical to compressing each
        row with :meth:`~repro.geometry.cell.CellSet.from_points`.  This is
        the one place a block is built: index builds, delta flushes,
        repartitioning and lazy store loads all come through here.
        """
        # (an empty dataset's point column may be shaped (0, 0))
        cell_centers, counts, cell_starts = compress_cells(
            dataset.point_coords.reshape(-1, dataset.ndim), dataset.point_starts, cell_size
        )
        return cls(
            dataset.traj_ids,
            dataset.mbr_lows,
            dataset.mbr_highs,
            cell_centers,
            counts.astype(np.float64),
            np.full(cell_centers.shape[0], cell_size / 2.0),
            cell_starts,
            cell_size,
        )

    def cellset_of(self, row: int):
        """The row's cells as a :class:`~repro.geometry.cell.CellSet` (the
        per-pair fallback for verifiers with custom cell bounds)."""
        from ..geometry.cell import CellSet

        a, b = int(self.cell_starts[row]), int(self.cell_starts[row + 1])
        return CellSet(self.cell_centers[a:b], self.cell_counts[a:b], self.cell_side)

    def gather_cells(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR gather of the selected rows' cells.

        Returns ``(pos, seg_starts, lens)``: ``pos`` indexes the block's
        concatenated cell arrays so ``cell_centers[pos]`` is contiguous per
        selected row, ``seg_starts``/``lens`` describe the segments inside
        that gathered layout.
        """
        starts = self.cell_starts[rows]
        lens = self.cell_starts[rows + 1] - starts
        total = int(lens.sum())
        ends = np.cumsum(lens)
        seg_starts = ends - lens
        pos = np.arange(total, dtype=np.int64) + np.repeat(starts - seg_starts, lens)
        return pos, seg_starts, lens


def compress_cells(
    point_coords: np.ndarray, point_starts: np.ndarray, side: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lemma 5.6's greedy compression of every row of a CSR point column
    in one pass: row ``r`` owns points ``point_starts[r]:point_starts[r+1]``.

    Returns ``(centers, counts, cell_starts)`` in the CSR layout of
    :class:`TrajectoryBlock`: row ``r`` owns cells
    ``cell_starts[r]:cell_starts[r+1]``, bit for bit the centres and counts
    :meth:`~repro.geometry.cell.CellSet.from_points` gives that row (a row
    with no points owns no cells).

    The pass steps over point position ``j`` rather than over rows.  Rows
    are ordered longest first, so the rows still holding a ``j``-th point
    are a prefix of that order, and one step tests all their ``j``-th
    points at once: a point joins its row's first opened cell whose centre
    is within ``side / 2`` on every axis, else opens a cell centred on
    itself.  The test is ``abs(center - p) <= side / 2`` per axis, the very
    elementwise comparison ``from_points`` makes, hence the bit identity.
    Unopened cell slots hold NaN, which no comparison accepts (coordinates
    are finite).  The working arrays hold the active rows' cells padded to
    the widest row's count, and are re-cut whenever a row needs a new slot
    or half the rows have finished; a row never holds more cells than
    points, so each cut is O(points), however one long row skews the block.
    """
    if side <= 0:
        raise ValueError("cell side length must be positive")
    coords = np.asarray(point_coords, dtype=np.float64)
    starts = np.asarray(point_starts, dtype=np.int64)
    n, d = int(starts.shape[0]) - 1, int(coords.shape[1])
    half = side / 2.0
    lens = np.diff(starts)
    order = np.argsort(-lens, kind="stable")
    sorted_lens = lens[order]
    sorted_starts = starts[:-1][order]
    longest = int(sorted_lens[0]) if n else 0
    # active[j]: how many rows (a prefix of ``order``) hold a j-th point
    active = np.searchsorted(-sorted_lens, -np.arange(longest + 1, dtype=np.int64), side="left")
    # finished rows' cells, one (centres, counts) pair per retired block of
    # sorted rows, shortest rows first
    done: List[Tuple[np.ndarray, np.ndarray]] = []
    kept = int(active[0])  # sorted rows not yet retired
    # every row's first point opens its first cell
    centers = np.full((d, kept, 4), np.nan)
    centers[:, :, 0] = coords[sorted_starts[:kept]].T
    counts = np.zeros((kept, 4), dtype=np.int64)
    counts[:, 0] = 1
    n_cells = np.minimum(sorted_lens, 1)
    opened = min(kept, 1)  # the most cells any working row has opened
    ranks = np.arange(kept, dtype=np.int64)

    def recut(live: int, width: int) -> None:
        """Working arrays for the first ``live`` sorted rows, ``width`` slots wide."""
        nonlocal centers, counts
        grown_c = np.full((d, live, width), np.nan)
        grown_n = np.zeros((live, width), dtype=np.int64)
        grown_c[:, :, :opened] = centers[:, :live, :opened]
        grown_n[:, :opened] = counts[:live, :opened]
        centers, counts = grown_c, grown_n

    for j in range(1, longest + 1):
        live = int(active[j])
        if live < kept:  # sorted rows live:kept have no j-th point: retire them
            mask = np.arange(opened, dtype=np.int64)[None, :] < n_cells[live:kept, None]
            done.append((centers[:, live:kept, :opened][:, mask].T, counts[live:kept, :opened][mask]))
            kept = live
            opened = int(n_cells[:live].max()) if live else 0
            if 2 * live <= counts.shape[0]:
                recut(live, counts.shape[1])
        if not live:
            break
        ar = ranks[:live]
        p = coords[sorted_starts[:live] + j]
        inside = (np.abs(centers[:, :live, :opened] - p.T[:, :, None]) <= half).all(axis=0)
        first = np.argmax(inside, axis=1)
        hit = inside[ar, first]
        counts[ar, first] += hit
        miss = ar[~hit]
        if miss.shape[0]:
            slot = n_cells[miss]
            need = int(slot.max()) + 1
            if need > counts.shape[1]:
                recut(live, max(2 * counts.shape[1], need))
            centers[:, miss, slot] = p[miss].T
            counts[miss, slot] = 1
            n_cells[miss] = slot + 1
            opened = max(opened, need)
    # reversed, the retired blocks hold the cells in sorted-row order; a
    # stable sort by owning row puts them back in row order
    done.reverse()
    owner = np.repeat(order, n_cells)
    back = np.argsort(owner, kind="stable")
    cell_starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=cell_starts[1:])
    if not done:
        return np.empty((0, d)), np.empty(0, dtype=np.int64), cell_starts
    return np.concatenate([c for c, _ in done])[back], np.concatenate([k for _, k in done])[back], cell_starts


def batch_mbr_coverage(
    block: TrajectoryBlock,
    rows: np.ndarray,
    q_low: np.ndarray,
    q_high: np.ndarray,
    tau_slack: float,
) -> np.ndarray:
    """Lemma 5.4 coverage mask for all selected rows at once.

    ``mask[i]`` is True when candidate ``rows[i]`` *survives*: its
    tau-expanded MBR covers the query MBR and vice versa.
    """
    lo = block.mbr_low[rows]
    hi = block.mbr_high[rows]
    cover_t_of_q = np.logical_and(
        (q_low >= lo - tau_slack).all(axis=1), (q_high <= hi + tau_slack).all(axis=1)
    )
    cover_q_of_t = np.logical_and(
        (lo >= q_low - tau_slack).all(axis=1), (hi <= q_high + tau_slack).all(axis=1)
    )
    return np.logical_and(cover_t_of_q, cover_q_of_t)


def _box_gaps(low, high, o_low, o_high) -> np.ndarray:
    """Squared min-distances between broadcast boxes, given one argument
    per coordinate axis each (``low[axis]`` broadcasts against
    ``o_high[axis]``): per axis the gap ``max(low - o_high, o_low - high,
    0)``, squared, added axis by axis in order."""
    sq = None
    for axis in range(len(low)):
        gap = low[axis] - o_high[axis]
        np.maximum(gap, o_low[axis] - high[axis], out=gap)
        np.maximum(gap, 0.0, out=gap)
        np.multiply(gap, gap, out=gap)
        sq = gap if sq is None else np.add(sq, gap, out=sq)
    return sq


def batch_box_bounds(
    block: TrajectoryBlock,
    rows: np.ndarray,
    q_cells,
    q_low: np.ndarray,
    q_high: np.ndarray,
    kind: str,
) -> np.ndarray:
    """A lower bound on the distance of every selected row to the query,
    from boxes alone: the larger of the query's cells against the row's
    MBR and the row's cells against the query's MBR (``q_low``/``q_high``).

    Every point lies in its cell and in its trajectory's MBR, so a cell's
    gap to the other side's MBR is at most its points' distance to any
    point of the other side.  ``kind`` ``"sum"`` (DTW: every point is
    matched at least once) adds the gaps weighted by the cells' point
    counts; ``"max"`` (Fréchet, Hausdorff) takes the largest.  Sums run
    left to right over each side's cells in their stored order
    (``np.bincount`` accumulates in input order; ``add.reduceat`` would
    sum pairwise), so a row's value does not depend on which rows share
    the call: ``tests/oracles/box_bounds_reference.py`` is the per-pair
    form, bit for bit.  Every array is one coordinate axis at a time, so
    no operation runs over a trailing axis of two.
    """
    if kind not in ("sum", "max"):
        raise ValueError(f"unknown cell bound kind {kind!r}")
    k = int(rows.shape[0])
    if k == 0:
        return np.empty(0, dtype=np.float64)
    # the query's cells against each row's MBR: (query cells, k)
    q_half = q_cells.side / 2.0
    t_low = np.take(block.mbr_low, rows, axis=0).T
    t_high = np.take(block.mbr_high, rows, axis=0).T
    c_low = (q_cells.centers - q_half).T[:, :, None]
    c_high = (q_cells.centers + q_half).T[:, :, None]
    sq = _box_gaps(c_low, c_high, t_low, t_high)
    # the rows' cells against the query's MBR: one entry per gathered cell
    pos, seg_starts, lens = block.gather_cells(rows)
    centers = np.take(block.cell_centers, pos, axis=0).T
    halves = np.take(block.cell_halves, pos)
    cell_sq = _box_gaps(
        [c - halves for c in centers], [c + halves for c in centers],
        np.asarray(q_low, dtype=np.float64).tolist(), np.asarray(q_high, dtype=np.float64).tolist(),
    )
    if kind == "max":
        forward = np.sqrt(sq.max(axis=0))
        backward = np.sqrt(np.maximum.reduceat(cell_sq, seg_starts))
    else:
        ks = np.arange(k, dtype=np.int64)
        weighted = np.sqrt(sq) * q_cells.counts.astype(np.float64)[:, None]
        forward = np.bincount(np.tile(ks, sq.shape[0]), weighted.ravel(), minlength=k)
        cell_w = np.sqrt(cell_sq) * np.take(block.cell_counts, pos)
        backward = np.bincount(np.repeat(ks, lens), cell_w, minlength=k)
    return np.maximum(forward, backward)


def batch_cell_bounds(
    block: TrajectoryBlock,
    rows: np.ndarray,
    q_cells,
    kind: str,
    max_elems: int = 1 << 20,
) -> np.ndarray:
    """Lemma 5.6 lower bounds for all selected rows at once.

    ``kind`` is ``"sum"`` for the additive DTW bound
    (``max(Cell(T, Q), Cell(Q, T))``) or ``"max"`` for the Fréchet bound
    (largest cell-to-nearest-cell gap in either direction).  ``q_cells``
    is the query's :class:`~repro.geometry.cell.CellSet`.  The candidate
    cell-to-query cell matrix is computed in chunks of whole candidates so
    no intermediate exceeds ``max_elems`` entries, and it is built one
    coordinate axis at a time on 2-D arrays, squared: the square root is
    taken of the row and column minima only (``sqrt`` is monotone and
    correctly rounded, so this is the root-then-minimum value to the last
    bit — ``tests/oracles/cell_bounds_reference.py`` is that form).
    """
    if kind not in ("sum", "max"):
        raise ValueError(f"unknown cell bound kind {kind!r}")
    k = int(rows.shape[0])
    if k == 0:
        return np.empty(0, dtype=np.float64)
    pos, seg_starts, lens = block.gather_cells(rows)
    centers = block.cell_centers[pos]
    halves = block.cell_halves[pos]
    counts = block.cell_counts[pos]
    # one contiguous row per coordinate axis
    low = np.ascontiguousarray((centers - halves[:, None]).T, dtype=np.float64)
    high = np.ascontiguousarray((centers + halves[:, None]).T, dtype=np.float64)
    q_half = q_cells.side / 2.0
    q_low = np.ascontiguousarray((q_cells.centers - q_half).T, dtype=np.float64)
    q_high = np.ascontiguousarray((q_cells.centers + q_half).T, dtype=np.float64)
    q_counts = q_cells.counts.astype(np.float64)
    nq = q_low.shape[1]
    bounds = np.empty(k, dtype=np.float64)
    lead = 0
    while lead < k:
        tail = lead + 1
        cells = int(lens[lead])
        while tail < k and (cells + int(lens[tail])) * nq <= max_elems:
            cells += int(lens[tail])
            tail += 1
        c_lo = int(seg_starts[lead])
        c_hi = c_lo + cells
        sq = _box_gaps(low[:, c_lo:c_hi, None], high[:, c_lo:c_hi, None], q_low, q_high)
        local_starts = (seg_starts[lead:tail] - c_lo).astype(np.int64)
        row_min = np.sqrt(sq.min(axis=1))
        col_min = np.sqrt(np.minimum.reduceat(sq, local_starts, axis=0))
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
