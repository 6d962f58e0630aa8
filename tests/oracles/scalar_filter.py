"""The scalar Algorithm 2 walk: the differential oracle for the frontier
traversal (:mod:`repro.kernels.frontier`) and the adapters' ``visit_batch``.

One ``visit`` per adapter descends one trie level for one query — the
per-distance accumulation policy of Appendix A written node by node — and
:func:`filter_candidates_reference` recurses over a
:class:`~repro.kernels.frontier.ColumnarTrie`'s arrays with it.  The
vectorized path must reproduce this walk exactly: same float operations in
the same per-path order, hence identical candidate sets and identical
``FilterStats`` counts.
"""

from __future__ import annotations

from dataclasses import replace
from functools import singledispatch
from typing import List, Optional

import numpy as np

from repro.core.adapters import (
    FIRST,
    LAST,
    EDRAdapter,
    ERPAdapter,
    FilterState,
    FrechetAdapter,
    HausdorffAdapter,
    IndexAdapter,
    LCSSAdapter,
)
from repro.core.trie import FilterStats, TrieIndex
from repro.geometry.mbr import MBR
from repro.kernels.frontier import KIND_NAMES


@singledispatch
def visit(
    a: IndexAdapter,
    state: FilterState,
    kind: str,
    mbr: MBR,
    q: np.ndarray,
    node_max_len: Optional[int] = None,
) -> Optional[FilterState]:
    """Descend one trie level; return the child state or ``None`` to prune.

    Dispatches on the adapter's class; this base case is ``DTWAdapter``'s
    policy: threshold-subtracting additive accumulation with suffix
    pruning."""
    if kind == FIRST:
        d = mbr.min_dist_point(q[0])
    elif kind == LAST:
        d = mbr.min_dist_point(q[-1])
        if a.use_suffix_pruning:
            # after both align levels, tau1 = remaining - d is the budget
            # any single pivot alignment may consume (Lemma 5.1)
            if d <= state.remaining:
                return replace(state, remaining=state.remaining - d, tau1=state.remaining - d)
            return None
    else:
        suffix = q[state.q_start :]
        if suffix.shape[0] == 0:
            return None
        if a.use_suffix_pruning and state.tau1 is not None:
            dists = mbr.min_dist_points(suffix)
            within = dists <= state.tau1
            if not within.any():
                return None
            drop = int(np.argmax(within))
            d = float(dists[drop:].min())
            if d > state.remaining:
                return None
            return replace(
                state, remaining=state.remaining - d, q_start=state.q_start + drop
            )
        d = mbr.min_dist_trajectory(suffix)
    if d > state.remaining:
        return None
    return replace(state, remaining=state.remaining - d)


@visit.register
def _(
    a: FrechetAdapter, state: FilterState, kind: str, mbr: MBR, q: np.ndarray, node_max_len: Optional[int] = None
) -> Optional[FilterState]:
    tau = state.remaining
    if kind == FIRST:
        return state if mbr.min_dist_point(q[0]) <= tau else None
    if kind == LAST:
        return state if mbr.min_dist_point(q[-1]) <= tau else None
    suffix = q[state.q_start :]
    if suffix.shape[0] == 0:
        return None
    dists = mbr.min_dist_points(suffix)
    within = dists <= tau
    if not within.any():
        return None
    if a.use_suffix_pruning:
        drop = int(np.argmax(within))
        return replace(state, q_start=state.q_start + drop)
    return state


@visit.register
def _(
    a: HausdorffAdapter, state: FilterState, kind: str, mbr: MBR, q: np.ndarray, node_max_len: Optional[int] = None
) -> Optional[FilterState]:
    if mbr.min_dist_trajectory(q) > state.remaining:
        return None
    return state


@visit.register
def _(
    a: EDRAdapter, state: FilterState, kind: str, mbr: MBR, q: np.ndarray, node_max_len: Optional[int] = None
) -> Optional[FilterState]:
    # EDR's alignment need not pin first/last points, so every level —
    # align or pivot — uses the same "this indexing point must match
    # within epsilon somewhere in Q, else it costs one edit" argument.
    d = mbr.min_dist_trajectory(q)
    if d > a.dist.epsilon:
        remaining = state.remaining - 1
        if remaining < 0:
            return None
        return replace(state, remaining=remaining)
    return state


@visit.register
def _(
    a: LCSSAdapter, state: FilterState, kind: str, mbr: MBR, q: np.ndarray, node_max_len: Optional[int] = None
) -> Optional[FilterState]:
    d = mbr.min_dist_trajectory(q)
    if d > a.dist.epsilon:
        if node_max_len is not None and node_max_len <= q.shape[0]:
            remaining = state.remaining - 1
            if remaining < 0:
                return None
            return replace(state, remaining=remaining)
    return state


@visit.register
def _(
    a: ERPAdapter, state: FilterState, kind: str, mbr: MBR, q: np.ndarray, node_max_len: Optional[int] = None
) -> Optional[FilterState]:
    d = min(mbr.min_dist_trajectory(q), mbr.min_dist_point(a.dist.gap))
    if d > state.remaining:
        return None
    return replace(state, remaining=state.remaining - d)


def filter_candidates_reference(
    trie: TrieIndex,
    q: np.ndarray,
    tau: float,
    adapter: IndexAdapter,
    stats: Optional[FilterStats] = None,
) -> np.ndarray:
    """Dataset rows of ``trie``'s candidates for one query, found by the
    recursive walk over the columnar arrays."""
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    ct = trie.columnar()
    out: List[int] = []

    def walk(j: int, state: FilterState) -> None:
        if stats is not None:
            stats.nodes_visited += 1
        # anything whose indexing sequence ended here survived every level,
        # and leaf members are candidates outright
        for starts, pos in ((ct.short_starts, ct.short_pos), (ct.leaf_starts, ct.leaf_pos)):
            out.extend(ct.member_rows[pos[starts[j] : starts[j + 1]]].tolist())
        for c in range(int(ct.child_lo[j]), int(ct.child_hi[j])):
            child_state = visit(
                adapter,
                state,
                KIND_NAMES[int(ct.kind[c])],
                MBR(ct.mbr_low[c], ct.mbr_high[c]),
                q,
                int(ct.max_len[c]),
            )
            if child_state is None:
                if stats is not None:
                    stats.nodes_pruned += 1
                continue
            walk(c, child_state)

    walk(0, adapter.initial_state(q, tau))
    if stats is not None:
        stats.candidates += len(out)
    return np.asarray(out, dtype=np.int64)
