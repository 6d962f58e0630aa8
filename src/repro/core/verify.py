"""Verification pipeline (Section 5.3.3).

Candidates that survive the trie filter are verified in three stages of
increasing cost:

1. **MBR coverage filtering** (Lemma 5.4) — O(1): if ``EMBR(T, tau)`` does
   not fully cover ``MBR(Q)`` (or vice versa) some point of one trajectory
   is farther than ``tau`` from *every* point of the other, so the DTW (and
   Fréchet) distance must exceed ``tau``.  The top-k scan then runs the
   same argument in quantitative form on the rows coverage keeps — each
   side's cells against the other's MBR, summed or maxed (the *box
   bound*) — which is linear in the cells and cuts most of a kNN chunk
   before stage 2.
2. **Cell-based compression** (Lemma 5.6) — O(#cells²): the per-cell
   weighted minimum-distance sum lower-bounds DTW.  For Fréchet the same
   cells give a max-based lower bound.
3. **Double-direction threshold DTW** — the exact computation, abandoned as
   early as partial sums exceed ``tau``.

Cells and MBRs are precomputed at indexing time (``VerificationData``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.cell import CellSet
from ..geometry.mbr import MBR
from ..kernels.batch import (
    TrajectoryBlock,
    batch_box_bounds,
    batch_cell_bounds,
    batch_mbr_coverage,
    pair_box_bounds,
)
from ..obs import MetricsRegistry
from ..trajectory.trajectory import Trajectory
from .numerics import slack as _slack


@dataclass
class VerificationData:
    """Per-trajectory precomputed artifacts used by the verifier.

    Dataset-resident trajectories keep these stacked in a
    :class:`~repro.kernels.batch.TrajectoryBlock`; this object form exists
    for the *query* side and for callers holding loose point arrays.
    """

    mbr: MBR
    cells: CellSet

    @classmethod
    def of(cls, traj: Trajectory, cell_size: float) -> "VerificationData":
        return cls(mbr=traj.mbr, cells=CellSet.from_points(traj.points, cell_size))

    @classmethod
    def from_points(cls, points: np.ndarray, cell_size: float) -> "VerificationData":
        """Artifacts straight from an ``(n, d)`` point array (e.g. a
        zero-copy storage row view) — no ``Trajectory`` required."""
        pts = np.asarray(points, dtype=np.float64)
        return cls(mbr=MBR.of_points(pts), cells=CellSet.from_points(pts, cell_size))


class Verifier:
    """The staged verification pipeline of one adapter, shared by search
    and join.

    The adapter says what is sound for its distance and how the exact
    stage runs: ``adapter.cell_bound`` names the batched Lemma 5.6 bound
    (``"sum"`` for additive distances, ``"max"`` for max-accumulating
    ones) or is ``None`` where neither the cell bound nor MBR coverage
    holds, and ``adapter.exact`` / ``adapter.exact_batch`` are the
    threshold-constrained exact distance for one pair and for many.  The
    two flags only ever switch a sound stage off (the ablations).
    """

    def __init__(
        self, adapter, use_mbr_coverage: bool = True, use_cell_filter: bool = True
    ) -> None:
        self.cell_bound: Optional[str] = adapter.cell_bound
        self.use_mbr_coverage = use_mbr_coverage and self.cell_bound is not None
        self.use_cell_filter = use_cell_filter and self.cell_bound is not None
        #: ``exact_fn(t_points, q_points, tau) -> distance or inf``
        self.exact_fn = adapter.exact
        #: ``exact_fn`` over aligned sequences of pairs, bit for bit
        self.exact_batch = adapter.exact_batch

    def filter_rows(
        self,
        block: TrajectoryBlock,
        rows: np.ndarray,
        tau: float,
        q_data: VerificationData,
        counts: MetricsRegistry,
        box: bool = False,
    ) -> np.ndarray:
        """The two filter stages over a whole candidate row list.

        ``rows`` are dataset row indices (the trie filter's output) and
        ``block`` is the partition's stacked verification artifacts in the
        same row space, so no id translation happens anywhere: Lemma 5.4
        and Lemma 5.6 run as matrix operations over the block.  With
        ``box`` the MBR stage also drops the rows Lemma 5.4 keeps whose box
        bound (:func:`~repro.kernels.batch.batch_box_bounds`) exceeds
        ``tau``, before Lemma 5.6 sees them; they count as pruned by the
        MBR.  At ``tau = inf`` no stage can prune, so none runs.  Returns
        the surviving rows in candidate order, having counted the list
        (``verify.pairs``) and what each stage pruned
        (``verify.pruned_by_mbr``, ``verify.pruned_by_cells``) into
        ``counts``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        k = int(rows.shape[0])
        by_mbr = by_cells = 0
        if k and not math.isinf(tau):
            slack = _slack(tau)
            if self.use_mbr_coverage:
                mask = batch_mbr_coverage(block, rows, q_data.mbr.low, q_data.mbr.high, slack)
                rows = rows[np.nonzero(mask)[0]]
                if box and rows.shape[0]:
                    bounds = batch_box_bounds(
                        block, rows, q_data.cells, q_data.mbr.low, q_data.mbr.high, self.cell_bound
                    )
                    rows = rows[np.nonzero(bounds <= slack)[0]]
                by_mbr = k - int(rows.shape[0])
            if self.use_cell_filter and rows.shape[0]:
                mask = batch_cell_bounds(block, rows, q_data.cells, self.cell_bound) <= slack
                by_cells = int(rows.shape[0] - int(mask.sum()))
                rows = rows[np.nonzero(mask)[0]]
        counts.counter("verify.pairs", k)
        counts.counter("verify.pruned_by_mbr", by_mbr)
        counts.counter("verify.pruned_by_cells", by_cells)
        return rows

    def filter_pairs(
        self,
        block: TrajectoryBlock,
        rows: np.ndarray,
        q_block: TrajectoryBlock,
        q_rows: np.ndarray,
        tau: float,
        counts: MetricsRegistry,
    ) -> np.ndarray:
        """A join task's filter pass over aligned pairs of many queries at
        once: pair ``i`` is row ``rows[i]`` of ``block`` against row
        ``q_rows[i]`` of ``q_block`` (the shipped rows' artifacts).  Lemma
        5.4 coverage, then the box bound
        (:func:`~repro.kernels.batch.pair_box_bounds`), each one array pass
        over every pair; both count as pruned by the MBR.  Lemma 5.6 does
        not run here: past a join's candidate source, Lemma 5.4 and the box
        bound it prunes too few pairs to pay for itself (docs/PERFORMANCE.md,
        "Flat join plan").  Returns the indices of the surviving pairs,
        ascending, having counted them into ``counts`` as
        :meth:`filter_rows` does.
        """
        keep = np.arange(rows.shape[0], dtype=np.int64)
        if keep.shape[0] and not math.isinf(tau) and self.use_mbr_coverage:
            slack = _slack(tau)
            mask = batch_mbr_coverage(
                block, rows, q_block.mbr_low[q_rows], q_block.mbr_high[q_rows], slack
            )
            keep = np.nonzero(mask)[0]
            if keep.shape[0]:
                bounds = pair_box_bounds(block, rows[keep], q_block, q_rows[keep], self.cell_bound)
                keep = keep[np.nonzero(bounds <= slack)[0]]
        counts.counter("verify.pairs", int(rows.shape[0]))
        counts.counter("verify.pruned_by_mbr", int(rows.shape[0] - keep.shape[0]))
        counts.counter("verify.pruned_by_cells", 0)
        return keep

    def exact_rows(
        self,
        dataset,
        rows_per_query: Sequence[np.ndarray],
        q_points_list: Sequence[np.ndarray],
        taus: Sequence[float],
        counts: MetricsRegistry,
        query_first: Optional[Sequence[np.ndarray]] = None,
    ) -> List[List[Tuple[int, float]]]:
        """The exact stage for every surviving pair of a task at once.

        ``rows_per_query[i]`` are query ``i``'s survivors of
        :meth:`filter_rows`.  All ``(row, query)`` pairs go to
        ``exact_batch`` together — fed zero-copy point views straight out
        of the columnar dataset, never a materialized ``Trajectory`` — and
        come back per query as accepted ``(row, distance)`` pairs in
        candidate order, counted as ``verify.exact_computed`` and
        ``verify.accepted`` into ``counts``.  A pair is
        evaluated as ``exact(row, query)``, or as ``exact(query, row)``
        where ``query_first[i]`` (a mask aligned with query ``i``'s rows)
        is set.
        """
        row_lists = [rows.tolist() for rows in rows_per_query]
        ts: List[np.ndarray] = []
        qs: List[np.ndarray] = []
        pair_taus: List[float] = []
        for i, (rows, q_points, tau) in enumerate(zip(row_lists, q_points_list, taus)):
            q_points = np.asarray(q_points, dtype=np.float64)
            if query_first is None:
                ts.extend(dataset.points(r) for r in rows)
                qs.extend([q_points] * len(rows))
            else:
                for r, swap in zip(rows, query_first[i].tolist()):
                    t = dataset.points(r)
                    ts.append(q_points if swap else t)
                    qs.append(t if swap else q_points)
            pair_taus.extend([tau] * len(rows))
        dists = self.exact_batch(ts, qs, pair_taus) if ts else []
        out: List[List[Tuple[int, float]]] = []
        at = 0
        for rows, tau in zip(row_lists, taus):
            n = len(rows)
            out.append([(r, d) for r, d in zip(rows, dists[at : at + n]) if d <= tau])
            at += n
        counts.counter("verify.exact_computed", at)
        counts.counter("verify.accepted", sum(map(len, out)))
        return out
