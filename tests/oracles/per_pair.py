"""The per-pair verification pipeline (Section 5.3.3, one pair at a time):
the differential oracle for :class:`repro.core.verify.Verifier`'s batched
stages and for :func:`repro.core.search.search_rows`.

The scalar Lemma 5.4 / Lemma 5.6 tests and :func:`verify` were
``mbr_coverage_ok``, ``cell_bound_dtw``/``cell_bound_frechet`` and
``Verifier.verify`` in ``src/repro/core/verify.py``; the bodies are moved
here verbatim, with ``verify`` taking the verifier it describes as its
first argument and picking the scalar bound the adapter's ``cell_bound``
names.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.numerics import slack as _slack
from repro.core.verify import VerificationData, Verifier
from repro.geometry.cell import CellSet
from repro.geometry.mbr import MBR
from repro.obs import MetricsRegistry
from repro.trajectory.trajectory import Trajectory

_INF = math.inf


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


#: the scalar form of each batched bound kind an adapter may declare
CELL_BOUNDS = {"sum": cell_bound_dtw, "max": cell_bound_frechet}


def verify(
    verifier: Verifier,
    t: Trajectory,
    q: Trajectory,
    tau: float,
    t_data: Optional[VerificationData] = None,
    q_data: Optional[VerificationData] = None,
    stats: Optional[MetricsRegistry] = None,
) -> float:
    """Exact distance when ``<= tau`` else ``inf``, using the staged
    filters whenever precomputed data is available, counting each stage
    into ``stats`` under the verifier's ``verify.*`` names."""
    if stats is not None:
        stats.counter("verify.pairs")
    if verifier.use_mbr_coverage:
        t_mbr = t_data.mbr if t_data is not None else t.mbr
        q_mbr = q_data.mbr if q_data is not None else q.mbr
        if not mbr_coverage_ok(t_mbr, q_mbr, tau):
            if stats is not None:
                stats.counter("verify.pruned_by_mbr")
            return _INF
    if verifier.use_cell_filter and t_data is not None and q_data is not None:
        if CELL_BOUNDS[verifier.cell_bound](t_data.cells, q_data.cells) > _slack(tau):
            if stats is not None:
                stats.counter("verify.pruned_by_cells")
            return _INF
    if stats is not None:
        stats.counter("verify.exact_computed")
    d = verifier.exact_fn(t.points, q.points, tau)
    if d <= tau and stats is not None:
        stats.counter("verify.accepted")
    return d
