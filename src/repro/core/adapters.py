"""Distance-specific index adapters (Appendix A).

One trie serves every similarity function; what changes per function is

* how a trie level's ``MinDist`` consumes the threshold while descending
  (DTW subtracts, Fréchet compares without subtracting, EDR/LCSS decrement
  an edit budget, ERP subtracts the cheaper of match-or-gap), and
* which filters are sound: the first/last-point bound of global and join
  pruning (:attr:`IndexAdapter.endpoint_bound`) and the verifier's MBR
  coverage and cell bound (:attr:`IndexAdapter.cell_bound`).

An adapter is that declaration — a descent and two traits — around the
distance object (:mod:`repro.distances`) that owns the function itself:
its parameters, their validation and the exact computations.  Defining a
subclass with its own ``distance_name`` registers it, so the engine, the
baselines and SQL find a new function with no edit anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Type

import numpy as np

from ..distances.base import TrajectoryDistance, get_distance
from ..kernels.frontier import (
    BatchStep,
    BatchVisit,
    rows_point_box_dist,
    span_drop_min,
    span_min_dist,
)
from .numerics import slack

#: trie level kinds
FIRST, LAST, PIVOT = "first", "last", "pivot"


@dataclass(frozen=True)
class FilterState:
    """Per-root-to-node filtering state carried down a trie path."""

    #: remaining budget (distance for DTW/ERP, edits for EDR/LCSS, the full
    #: threshold for Fréchet which never subtracts)
    remaining: float
    #: index into Q where the admissible suffix starts (Lemma 5.1)
    q_start: int = 0
    #: tau1 of Lemma 5.1 (set after the two align levels); None disables
    #: suffix pruning
    tau1: Optional[float] = None


#: adapter classes by ``distance_name`` (filled as subclasses are defined)
_REGISTRY: Dict[str, Type["IndexAdapter"]] = {}


class IndexAdapter:
    """What the index reads about one similarity function: a trie descent
    (:meth:`visit_batch`), the two soundness traits below, and the
    distance object itself (:attr:`dist`), built once from ``params``."""

    #: registry key of the adapter and of the distance it builds
    distance_name: str
    #: the bound the gaps between two trajectories' first points and last
    #: points give (:func:`repro.core.bounds.endpoint_bound`), which global
    #: pruning, join shipping and the baselines' filters test: ``"sum"``
    #: where every alignment pays both gaps, ``"max"`` where it pays the
    #: larger, None where the distance pins neither endpoint and every
    #: partition stays relevant
    endpoint_bound: Optional[str] = None
    #: the verifier's filter stages (Section 5.3.3) this distance admits:
    #: the batched Lemma 5.6 cell bound to run — ``"sum"`` (additive) or
    #: ``"max"`` (max-accumulating) — or None where neither the cell bound
    #: nor MBR coverage (Lemma 5.4) is sound and pairs go straight to
    #: :meth:`exact`
    cell_bound: Optional[str] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "distance_name" in cls.__dict__:
            _REGISTRY[cls.distance_name] = cls

    def __init__(self, use_suffix_pruning: bool = True, **params) -> None:
        self.use_suffix_pruning = use_suffix_pruning
        #: the exact distance (parameters validated by its constructor)
        self.dist: TrajectoryDistance = get_distance(self.distance_name, **params)

    # -------------------------------------------------------------- #
    # trie descent
    # -------------------------------------------------------------- #

    def initial_state(self, q: np.ndarray, tau: float) -> FilterState:
        # the budget gets a float-rounding slack so boundary answers with
        # lower bound == tau are never dropped (see repro.core.numerics)
        return FilterState(remaining=slack(tau))

    def visit_batch(self, req: BatchVisit) -> BatchStep:
        """Descend one trie level for a whole frontier expansion — one row
        per (query-state, child-node) pair; ``keep`` is False where the
        child is pruned.  Same float operations in the same per-row order
        as the scalar walk (``tests/oracles/scalar_filter.py``)."""
        raise NotImplementedError

    # -------------------------------------------------------------- #
    # verification
    # -------------------------------------------------------------- #

    def exact(self, t: np.ndarray, q: np.ndarray, tau: float) -> float:
        """The distance when ``<= tau``, else ``inf``."""
        return self.dist.compute_threshold(t, q, tau)

    def exact_batch(
        self, ts: Sequence[np.ndarray], qs: Sequence[np.ndarray], taus: Sequence[float]
    ) -> List[float]:
        """:meth:`exact` of every ``(ts[i], qs[i], taus[i])``, bit for bit
        — the seam the verifier hands a whole task's surviving pairs to."""
        return self.dist.compute_threshold_batch(ts, qs, taus)

    def distance(self) -> TrajectoryDistance:
        """The underlying exact distance object (for brute-force checks)."""
        return self.dist

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.dist!r})"


class DTWAdapter(IndexAdapter):
    """Default adapter: threshold-subtracting additive accumulation with
    suffix pruning."""

    distance_name = "dtw"
    endpoint_bound = "sum"
    cell_bound = "sum"

    def visit_batch(self, req: BatchVisit) -> BatchStep:
        batch = req.batch
        rem = req.remaining.copy()
        qs = req.q_start.copy()
        t1 = req.tau1.copy()
        if req.kind == FIRST:
            d = rows_point_box_dist(batch.firsts[req.q_idx], req.low, req.high)
            keep = d <= req.remaining
            np.subtract(req.remaining, d, out=rem)
            return BatchStep(keep, rem, qs, t1)
        if req.kind == LAST:
            d = rows_point_box_dist(batch.lasts[req.q_idx], req.low, req.high)
            keep = d <= req.remaining
            np.subtract(req.remaining, d, out=rem)
            if self.use_suffix_pruning:
                # after both align levels, tau1 = remaining - d is the budget
                # any single pivot alignment may consume (Lemma 5.1)
                t1 = rem.copy()
            return BatchStep(keep, rem, qs, t1)
        # pivot level: rows whose admissible suffix is exhausted are pruned
        e = req.q_idx.shape[0]
        keep = np.zeros(e, dtype=bool)
        nonempty = np.nonzero(batch.lens[req.q_idx] - req.q_start > 0)[0]
        if nonempty.size == 0:
            return BatchStep(keep, rem, qs, t1)
        if self.use_suffix_pruning:
            has_t1 = ~np.isnan(req.tau1[nonempty])
            pruned_rows = nonempty[has_t1]
            plain_rows = nonempty[~has_t1]
        else:
            pruned_rows = nonempty[:0]
            plain_rows = nonempty
        if pruned_rows.size:
            a = pruned_rows
            drop, tail = span_drop_min(
                req.low[a], req.high[a], req.q_idx[a], req.q_start[a],
                req.tau1[a], batch, need_tail_min=True,
            )
            keep[a] = (drop >= 0) & (tail <= req.remaining[a])
            rem[a] = req.remaining[a] - tail
            qs[a] = req.q_start[a] + np.maximum(drop, 0)
        if plain_rows.size:
            b = plain_rows
            d = span_min_dist(req.low[b], req.high[b], req.q_idx[b], req.q_start[b], batch)
            keep[b] = d <= req.remaining[b]
            rem[b] = req.remaining[b] - d
        return BatchStep(keep, rem, qs, t1)


class FrechetAdapter(IndexAdapter):
    """Fréchet (Appendix A): max-accumulation, so the threshold is *not*
    consumed while descending — every level just checks ``MinDist <= tau``.
    Suffix pruning stays sound with ``tau1 = tau`` because each matched pair
    along a Fréchet alignment is within the Fréchet distance."""

    distance_name = "frechet"
    endpoint_bound = "max"
    cell_bound = "max"

    def visit_batch(self, req: BatchVisit) -> BatchStep:
        batch = req.batch
        rem = req.remaining.copy()
        qs = req.q_start.copy()
        t1 = req.tau1.copy()
        if req.kind == FIRST:
            d = rows_point_box_dist(batch.firsts[req.q_idx], req.low, req.high)
            return BatchStep(d <= req.remaining, rem, qs, t1)
        if req.kind == LAST:
            d = rows_point_box_dist(batch.lasts[req.q_idx], req.low, req.high)
            return BatchStep(d <= req.remaining, rem, qs, t1)
        e = req.q_idx.shape[0]
        keep = np.zeros(e, dtype=bool)
        ne = np.nonzero(batch.lens[req.q_idx] - req.q_start > 0)[0]
        if ne.size == 0:
            return BatchStep(keep, rem, qs, t1)
        if self.use_suffix_pruning:
            drop, _ = span_drop_min(
                req.low[ne], req.high[ne], req.q_idx[ne], req.q_start[ne],
                req.remaining[ne], batch, need_tail_min=False,
            )
            keep[ne] = drop >= 0
            qs[ne] = req.q_start[ne] + np.maximum(drop, 0)
        else:
            d = span_min_dist(req.low[ne], req.high[ne], req.q_idx[ne], req.q_start[ne], batch)
            keep[ne] = d <= req.remaining[ne]
        return BatchStep(keep, rem, qs, t1)


class HausdorffAdapter(IndexAdapter):
    """Hausdorff (the DFT baseline's metric): no ordering and no endpoint
    alignment, so every trie level — align or pivot — applies the same
    test: if ``H(T, Q) <= tau`` then every point of T (every indexing point
    in particular) lies within ``tau`` of some point of Q.  MBR coverage
    and the max-cell bound remain sound (they only use per-point
    nearest-distance arguments)."""

    distance_name = "hausdorff"
    cell_bound = "max"

    def visit_batch(self, req: BatchVisit) -> BatchStep:
        # every level tests the *full* query (no suffix)
        d = span_min_dist(
            req.low, req.high, req.q_idx, np.zeros_like(req.q_start), req.batch
        )
        return BatchStep(
            d <= req.remaining, req.remaining.copy(), req.q_start.copy(), req.tau1.copy()
        )


class EDRAdapter(IndexAdapter):
    """EDR (Appendix A): each indexing point of T farther than ``epsilon``
    from every point of Q must be edited, so it decrements an integer edit
    budget; the pair is pruned when the budget goes negative.  MBR coverage
    and cell bounds are unsound for edit distances and are disabled."""

    distance_name = "edr"

    def visit_batch(self, req: BatchVisit) -> BatchStep:
        # EDR's alignment need not pin first/last points, so every level —
        # align or pivot — uses the same "this indexing point must match
        # within epsilon somewhere in Q, else it costs one edit" argument.
        d = span_min_dist(
            req.low, req.high, req.q_idx, np.zeros_like(req.q_start), req.batch
        )
        costly = d > self.dist.epsilon
        rem = np.where(costly, req.remaining - 1, req.remaining)
        keep = ~costly | (rem >= 0)
        return BatchStep(keep, rem, req.q_start.copy(), req.tau1.copy())


class LCSSAdapter(IndexAdapter):
    """LCSS dissimilarity (Appendix A): like EDR's budget, but decrementing
    is only sound for trajectories no longer than the query (an unmatchable
    point of a longer T need not reduce ``min(m, n) - LCSS``), so the budget
    is consumed only when the whole subtree is short enough; otherwise the
    level passes through and verification decides."""

    distance_name = "lcss"

    def visit_batch(self, req: BatchVisit) -> BatchStep:
        d = span_min_dist(
            req.low, req.high, req.q_idx, np.zeros_like(req.q_start), req.batch
        )
        # the budget is consumed only when the whole subtree is short enough
        costly = (d > self.dist.epsilon) & (req.node_max_len <= req.batch.lens[req.q_idx])
        rem = np.where(costly, req.remaining - 1, req.remaining)
        keep = ~costly | (rem >= 0)
        return BatchStep(keep, rem, req.q_start.copy(), req.tau1.copy())


class ERPAdapter(IndexAdapter):
    """ERP: every point of T is either matched (costing at least its
    distance to Q) or gapped (costing its distance to the gap point), so a
    trie level consumes ``min(MinDist(Q, MBR), MinDist(g, MBR))``."""

    distance_name = "erp"

    def __init__(self, use_suffix_pruning: bool = False, **params) -> None:
        super().__init__(use_suffix_pruning=False, **params)  # gaps break the ordering argument

    def visit_batch(self, req: BatchVisit) -> BatchStep:
        d_traj = span_min_dist(
            req.low, req.high, req.q_idx, np.zeros_like(req.q_start), req.batch
        )
        gap_rows = np.broadcast_to(self.dist.gap, req.low.shape)
        d_gap = rows_point_box_dist(gap_rows, req.low, req.high)
        d = np.minimum(d_traj, d_gap)
        keep = d <= req.remaining
        return BatchStep(keep, req.remaining - d, req.q_start.copy(), req.tau1.copy())


def get_adapter(name: str, **kwargs) -> IndexAdapter:
    """Adapter factory, e.g. ``get_adapter("edr", epsilon=0.001)``; the
    keywords beyond ``use_suffix_pruning`` are the distance's parameters."""
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(f"unknown adapter {name!r}; available: {available_adapters()}") from None
    return cls(**kwargs)


def available_adapters() -> List[str]:
    """Sorted registry keys: the similarity functions the index serves."""
    return sorted(_REGISTRY)
