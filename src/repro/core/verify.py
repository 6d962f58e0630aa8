"""Verification pipeline (Section 5.3.3).

Candidates that survive the trie filter are verified in three stages of
increasing cost:

1. **MBR coverage filtering** (Lemma 5.4) — O(1): if ``EMBR(T, tau)`` does
   not fully cover ``MBR(Q)`` (or vice versa) some point of one trajectory
   is farther than ``tau`` from *every* point of the other, so the DTW (and
   Fréchet) distance must exceed ``tau``.
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

from ..geometry.cell import Cell, CellSet
from ..geometry.mbr import MBR
from ..kernels.batch import TrajectoryBlock, batch_cell_bounds, batch_mbr_coverage
from ..trajectory.trajectory import Trajectory

_INF = math.inf


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

    @classmethod
    def from_block(cls, block: TrajectoryBlock, row: int) -> "VerificationData":
        """The artifacts of dataset row ``row`` read back out of its
        partition's block — what :meth:`from_points` would compute from the
        row's points at the block's cell size, without the compression."""
        return cls(
            mbr=MBR(block.mbr_low[row], block.mbr_high[row]), cells=block.cellset_of(row)
        )


from .numerics import slack as _slack


def mbr_coverage_ok(t_mbr: MBR, q_mbr: MBR, tau: float) -> bool:
    """True when the pair survives Lemma 5.4 (may still be similar)."""
    slack = _slack(tau)
    return t_mbr.expand(slack).contains_mbr(q_mbr) and q_mbr.expand(slack).contains_mbr(t_mbr)


def cell_bound_dtw(cells_t: CellSet, cells_q: CellSet) -> float:
    """``max(Cell(T,Q), Cell(Q,T))`` — additive lower bound for DTW."""
    m = cells_t.min_dist_matrix(cells_q)
    forward = float(np.dot(m.min(axis=1), cells_t.counts))
    backward = float(np.dot(m.min(axis=0), cells_q.counts))
    return max(forward, backward)


def cell_bound_frechet(cells_t: CellSet, cells_q: CellSet) -> float:
    """Max-based cell lower bound for Fréchet: every point of T must match a
    point of Q within the Fréchet distance, so the largest cell-to-nearest-
    cell gap (in either direction) lower-bounds it."""
    m = cells_t.min_dist_matrix(cells_q)
    return max(float(m.min(axis=1).max()), float(m.min(axis=0).max()))


@dataclass
class VerifyStats:
    """Counts of where candidate pairs were resolved (for the ablations)."""

    pairs: int = 0
    pruned_by_mbr: int = 0
    pruned_by_cells: int = 0
    exact_computed: int = 0
    accepted: int = 0

    def merge(self, other: "VerifyStats") -> None:
        self.pairs += other.pairs
        self.pruned_by_mbr += other.pruned_by_mbr
        self.pruned_by_cells += other.pruned_by_cells
        self.exact_computed += other.exact_computed
        self.accepted += other.accepted

    def to_registry(self, registry, prefix: str = "verify") -> None:
        """Fold these counts into a metrics registry (one counter per
        field, named ``{prefix}.{field}``)."""
        registry.absorb(prefix, self)


class Verifier:
    """Configurable verification pipeline shared by search and join."""

    def __init__(
        self,
        exact_fn,
        cell_bound_fn=cell_bound_dtw,
        use_mbr_coverage: bool = True,
        use_cell_filter: bool = True,
    ) -> None:
        """``exact_fn(t_points, q_points, tau) -> distance or inf`` is the
        threshold-constrained exact distance (e.g. double-direction DTW);
        ``cell_bound_fn`` may be ``None`` to disable the cell stage."""
        self.exact_fn = exact_fn
        self.cell_bound_fn = cell_bound_fn
        self.use_mbr_coverage = use_mbr_coverage
        self.use_cell_filter = use_cell_filter and cell_bound_fn is not None
        # the two built-in bounds have batched equivalents; anything custom
        # drops verify_batch back to the per-pair pipeline
        if cell_bound_fn is cell_bound_dtw:
            self.cell_bound_kind: Optional[str] = "sum"
        elif cell_bound_fn is cell_bound_frechet:
            self.cell_bound_kind = "max"
        else:
            self.cell_bound_kind = None

    def verify(
        self,
        t: Trajectory,
        q: Trajectory,
        tau: float,
        t_data: Optional[VerificationData] = None,
        q_data: Optional[VerificationData] = None,
        stats: Optional[VerifyStats] = None,
    ) -> float:
        """Exact distance when ``<= tau`` else ``inf``, using the staged
        filters whenever precomputed data is available."""
        if stats is not None:
            stats.pairs += 1
        if self.use_mbr_coverage:
            t_mbr = t_data.mbr if t_data is not None else t.mbr
            q_mbr = q_data.mbr if q_data is not None else q.mbr
            if not mbr_coverage_ok(t_mbr, q_mbr, tau):
                if stats is not None:
                    stats.pruned_by_mbr += 1
                return _INF
        if self.use_cell_filter and t_data is not None and q_data is not None:
            if self.cell_bound_fn(t_data.cells, q_data.cells) > _slack(tau):
                if stats is not None:
                    stats.pruned_by_cells += 1
                return _INF
        if stats is not None:
            stats.exact_computed += 1
        d = self.exact_fn(t.points, q.points, tau)
        if d <= tau and stats is not None:
            stats.accepted += 1
        return d

    def exact_batch(
        self, ts: Sequence[np.ndarray], qs: Sequence[np.ndarray], taus: Sequence[float]
    ) -> List[float]:
        """``exact_fn(ts[i], qs[i], taus[i])`` for every ``i``, bit for bit.

        As with the built-in cell bounds, an ``exact_fn`` this package
        supplied has a batched equivalent: an adapter's ``exact`` comes
        with that adapter's ``exact_batch``, which may run many pairs per
        kernel sweep (:mod:`repro.kernels.pairbatch`).  Any other callable
        is looped over."""
        batch = getattr(getattr(self.exact_fn, "__self__", None), "exact_batch", None)
        if batch is not None:
            return batch(ts, qs, taus)
        return [self.exact_fn(t, q, tau) for t, q, tau in zip(ts, qs, taus)]

    def filter_rows(
        self,
        block: TrajectoryBlock,
        rows: np.ndarray,
        tau: float,
        q_data: VerificationData,
        stats: Optional[VerifyStats] = None,
    ) -> np.ndarray:
        """The two filter stages over a whole candidate row list.

        ``rows`` are dataset row indices (the trie filter's output) and
        ``block`` is the partition's stacked verification artifacts in the
        same row space, so no id translation happens anywhere: Lemma 5.4
        and Lemma 5.6 run as matrix operations over the block.  Returns
        the surviving rows in candidate order, having counted the list and
        what each stage pruned exactly as :meth:`verify` does per pair.
        Verifiers with a custom scalar cell bound (no batched equivalent)
        evaluate it per row over the block's cell segments.
        """
        rows = np.asarray(rows, dtype=np.int64)
        k = int(rows.shape[0])
        if k == 0:
            return rows
        if stats is not None:
            stats.pairs += k
        slack = _slack(tau)
        if self.use_mbr_coverage:
            mask = batch_mbr_coverage(block, rows, q_data.mbr.low, q_data.mbr.high, slack)
            if stats is not None:
                stats.pruned_by_mbr += int(k - int(mask.sum()))
            rows = rows[np.nonzero(mask)[0]]
        if self.use_cell_filter and rows.shape[0]:
            if self.cell_bound_kind is not None:
                bounds = batch_cell_bounds(block, rows, q_data.cells, self.cell_bound_kind)
                mask = bounds <= slack
            else:
                mask = np.asarray(
                    [
                        self.cell_bound_fn(block.cellset_of(int(r)), q_data.cells) <= slack
                        for r in rows
                    ],
                    dtype=bool,
                )
            if stats is not None:
                stats.pruned_by_cells += int(rows.shape[0] - int(mask.sum()))
            rows = rows[np.nonzero(mask)[0]]
        return rows

    def exact_rows(
        self,
        dataset,
        rows_per_query: Sequence[np.ndarray],
        q_points_list: Sequence[np.ndarray],
        taus: Sequence[float],
        stats: Optional[Sequence[Optional[VerifyStats]]] = None,
    ) -> List[List[Tuple[int, float]]]:
        """The exact stage for every surviving pair of a task at once.

        ``rows_per_query[i]`` are query ``i``'s survivors of
        :meth:`filter_rows`.  All ``(row, query)`` pairs go to
        :meth:`exact_batch` together — fed zero-copy point views straight
        out of the columnar dataset, never a materialized ``Trajectory`` —
        and come back per query as accepted ``(row, distance)`` pairs in
        candidate order, with the counts :meth:`verify` would have made.
        """
        row_lists = [rows.tolist() for rows in rows_per_query]
        ts: List[np.ndarray] = []
        qs: List[np.ndarray] = []
        pair_taus: List[float] = []
        for rows, q_points, tau in zip(row_lists, q_points_list, taus):
            q_points = np.asarray(q_points, dtype=np.float64)
            ts.extend(dataset.points(r) for r in rows)
            qs.extend([q_points] * len(rows))
            pair_taus.extend([tau] * len(rows))
        dists = self.exact_batch(ts, qs, pair_taus) if ts else []
        out: List[List[Tuple[int, float]]] = []
        at = 0
        for i, (rows, tau) in enumerate(zip(row_lists, taus)):
            n = len(rows)
            matches = [(r, d) for r, d in zip(rows, dists[at : at + n]) if d <= tau]
            at += n
            if stats is not None and stats[i] is not None:
                stats[i].exact_computed += n
                stats[i].accepted += len(matches)
            out.append(matches)
        return out

    def verify_rows(
        self,
        block: TrajectoryBlock,
        dataset,
        rows: np.ndarray,
        q_points: np.ndarray,
        tau: float,
        q_data: VerificationData,
        stats: Optional[VerifyStats] = None,
    ) -> List[Tuple[int, float]]:
        """Staged verification of one query's candidate row list:
        :meth:`filter_rows`, then :meth:`exact_rows` on what is left.
        Returns accepted ``(row, distance)`` pairs in candidate order, with
        the same answers and the same :class:`VerifyStats` counts as
        calling :meth:`verify` per pair."""
        rows = self.filter_rows(block, rows, tau, q_data, stats)
        return self.exact_rows(dataset, [rows], [q_points], [tau], [stats])[0]
