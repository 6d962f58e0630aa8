"""Columnar trie layout and level-synchronous frontier traversal.

Algorithm 2's trie walk, done node by node, is one adapter call — a
handful of tiny numpy operations — for every (node, query) pair the search
touches.  Once verification is batched, such an interpreted walk dominates
the filter stage.

This module keeps object graphs out of the index altogether:

* :class:`ColumnarTrie` holds a trie as contiguous arrays — per-node MBR
  corners stacked ``(N, d)``, child ranges as CSR offsets over a
  breadth-first node numbering (each node's children occupy one contiguous
  id range), level-kind codes, ``max_len``, and CSR leaf / short-leaf
  member lists.  :class:`~repro.core.trie.TrieIndex` bulk-builds it
  directly.
* :func:`frontier_filter` runs Algorithm 2 level-at-a-time over that
  layout for **many queries at once**: a frontier of ``(node, query)``
  rows with their accumulated :class:`~repro.core.adapters.FilterState`
  stored as parallel arrays.  Each step expands every row's children,
  evaluates the adapter's accumulation policy for the whole expansion with
  one ``visit_batch`` call (vectorized MinDist over stacked query points ×
  node boxes), and emits candidates from leaf / short rows.

The traversal reproduces a recursive node-by-node walk *exactly*: the same
float operations in the same per-path order, hence bit-identical pruning
decisions, identical candidate sets and identical
:class:`~repro.core.trie.FilterStats` counts
(``tests/test_frontier.py`` pins all of this differentially against the
scalar walk in ``tests/oracles/scalar_filter.py``).

Layering note: this module is deliberately free of imports from
:mod:`repro.core` (the core imports the kernels, never the reverse), so
the adapters it consumes are duck-typed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: node kind codes of the columnar layout (root rows use ``KIND_ROOT``)
KIND_ROOT, KIND_FIRST, KIND_LAST, KIND_PIVOT = -1, 0, 1, 2

#: code -> the adapter-facing kind string of ``repro.core.adapters``
KIND_NAMES = {KIND_FIRST: "first", KIND_LAST: "last", KIND_PIVOT: "pivot"}

#: element budget for the chunked span-distance passes (whole rows per
#: chunk, same policy as ``repro.kernels.batch``)
DEFAULT_MAX_ELEMS = 1 << 18


# --------------------------------------------------------------------- #
# query batch
# --------------------------------------------------------------------- #


class QueryBatch:
    """A set of query trajectories stacked for frontier traversal.

    ``points`` concatenates every query's points; query ``i`` owns rows
    ``starts[i]:starts[i+1]``.  ``firsts``/``lasts`` cache the two align
    points per query.
    """

    __slots__ = ("points", "starts", "lens", "firsts", "lasts")

    def __init__(self, queries: Sequence[np.ndarray]) -> None:
        qs = [np.atleast_2d(np.asarray(q, dtype=np.float64)) for q in queries]
        for q in qs:
            if q.ndim != 2 or q.shape[0] == 0:
                raise ValueError("every query must be a non-empty (m, d) array")
        self.lens = np.asarray([q.shape[0] for q in qs], dtype=np.int64)
        self.starts = np.zeros(len(qs) + 1, dtype=np.int64)
        np.cumsum(self.lens, out=self.starts[1:])
        d = qs[0].shape[1] if qs else 2
        self.points = (
            np.concatenate(qs, axis=0) if qs else np.empty((0, d), dtype=np.float64)
        )
        self.firsts = (
            np.stack([q[0] for q in qs]) if qs else np.empty((0, d), dtype=np.float64)
        )
        self.lasts = (
            np.stack([q[-1] for q in qs]) if qs else np.empty((0, d), dtype=np.float64)
        )

    def __len__(self) -> int:
        return int(self.lens.shape[0])

    def query_points(self, i: int) -> np.ndarray:
        """The ``(m, d)`` point array of query ``i`` (a view)."""
        return self.points[self.starts[i] : self.starts[i + 1]]


# --------------------------------------------------------------------- #
# columnar trie
# --------------------------------------------------------------------- #


class ColumnarTrie:
    """A trie as contiguous arrays (breadth-first numbering).

    Node ``0`` is the root; node ``j``'s children are exactly the node ids
    ``child_lo[j]:child_hi[j]`` (contiguous by construction of the BFS
    numbering).  ``leaf_starts``/``leaf_pos`` and ``short_starts``/
    ``short_pos`` are CSR lists of member positions into ``member_rows``
    (int64 dataset row indices, collected in node order) — candidates come
    out of the traversal as rows of the partition's columnar dataset, never
    as objects.
    """

    __slots__ = (
        "n_nodes",
        "ndim",
        "mbr_low",
        "mbr_high",
        "kind",
        "level",
        "max_len",
        "child_lo",
        "child_hi",
        "leaf_starts",
        "leaf_pos",
        "short_starts",
        "short_pos",
        "member_rows",
    )

    def __init__(
        self,
        mbr_low: np.ndarray,
        mbr_high: np.ndarray,
        kind: np.ndarray,
        level: np.ndarray,
        max_len: np.ndarray,
        child_lo: np.ndarray,
        child_hi: np.ndarray,
        leaf_starts: np.ndarray,
        leaf_pos: np.ndarray,
        short_starts: np.ndarray,
        short_pos: np.ndarray,
        member_rows: np.ndarray,
    ) -> None:
        self.n_nodes = int(kind.shape[0])
        self.ndim = int(mbr_low.shape[1])
        self.mbr_low = mbr_low
        self.mbr_high = mbr_high
        self.kind = kind
        self.level = level
        self.max_len = max_len
        self.child_lo = child_lo
        self.child_hi = child_hi
        self.leaf_starts = leaf_starts
        self.leaf_pos = leaf_pos
        self.short_starts = short_starts
        self.short_pos = short_pos
        self.member_rows = np.asarray(member_rows, dtype=np.int64)

    def size_bytes(self) -> int:
        """Footprint of the flattened arrays."""
        total = 0
        for name in (
            "mbr_low",
            "mbr_high",
            "kind",
            "level",
            "max_len",
            "child_lo",
            "child_hi",
            "leaf_starts",
            "leaf_pos",
            "short_starts",
            "short_pos",
            "member_rows",
        ):
            total += int(getattr(self, name).nbytes)
        return total


# --------------------------------------------------------------------- #
# vectorized MinDist kernels
# --------------------------------------------------------------------- #


def rows_point_box_dist(points: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Row-wise ``MinDist(points[e], box[e])`` — the clamped-coordinate
    formula of :meth:`repro.geometry.mbr.MBR.min_dist_point`, one row per
    (frontier row, child) pair."""
    clamped = np.clip(points, low, high)
    diff = points - clamped
    return np.sqrt(np.sum(diff * diff, axis=1))


def _chunk_bounds(lens: np.ndarray, max_elems: int) -> List[int]:
    """Row boundaries such that each chunk's total span length stays at or
    below ``max_elems`` (always at least one row per chunk)."""
    cum = np.cumsum(lens)
    bounds = [0]
    a = 0
    n = int(lens.shape[0])
    while a < n:
        base = int(cum[a - 1]) if a else 0
        b = int(np.searchsorted(cum, base + max_elems, side="right"))
        b = max(b, a + 1)
        bounds.append(b)
        a = b
    return bounds


def _flat_span(
    low: np.ndarray,
    high: np.ndarray,
    q_idx: np.ndarray,
    q_start: np.ndarray,
    batch: QueryBatch,
    a: int,
    b: int,
    lens: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distances from every span point to its row's box, for rows
    ``a:b``.  Returns ``(dist, seg_starts, seg_lens, idx_in_seg)`` in the
    gathered flat layout."""
    seg_lens = lens[a:b]
    ends = np.cumsum(seg_lens)
    seg_starts = ends - seg_lens
    total = int(ends[-1])
    rep = np.repeat(np.arange(a, b, dtype=np.int64), seg_lens)
    idx_in_seg = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, seg_lens)
    pt = batch.starts[q_idx[rep]] + q_start[rep] + idx_in_seg
    p = batch.points[pt]
    clamped = np.clip(p, low[rep], high[rep])
    diff = p - clamped
    dist = np.sqrt(np.sum(diff * diff, axis=1))
    return dist, seg_starts, seg_lens, idx_in_seg


def span_min_dist(
    low: np.ndarray,
    high: np.ndarray,
    q_idx: np.ndarray,
    q_start: np.ndarray,
    batch: QueryBatch,
    max_elems: int = DEFAULT_MAX_ELEMS,
) -> np.ndarray:
    """Per-row ``MinDist`` of the query span ``q[q_start:]`` to the row's
    box (the vectorized :meth:`MBR.min_dist_trajectory`).  Every row must
    have a non-empty span."""
    e = int(q_idx.shape[0])
    lens = batch.lens[q_idx] - q_start
    out = np.empty(e, dtype=np.float64)
    bounds = _chunk_bounds(lens, max_elems)
    for a, b in zip(bounds[:-1], bounds[1:]):
        dist, seg_starts, _, _ = _flat_span(low, high, q_idx, q_start, batch, a, b, lens)
        out[a:b] = np.minimum.reduceat(dist, seg_starts)
    return out


def span_drop_min(
    low: np.ndarray,
    high: np.ndarray,
    q_idx: np.ndarray,
    q_start: np.ndarray,
    thresh: np.ndarray,
    batch: QueryBatch,
    need_tail_min: bool = True,
    max_elems: int = DEFAULT_MAX_ELEMS,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The Lemma 5.1 suffix step for every row at once.

    ``drop[e]`` is the first offset into the span ``q[q_start:]`` whose
    MinDist to the row's box is at or below ``thresh[e]`` (``-1`` when no
    span point qualifies); ``tail_min[e]`` is the smallest MinDist over
    the admissible suffix ``span[drop:]`` (``inf`` when ``drop == -1``).
    Every row must have a non-empty span.
    """
    e = int(q_idx.shape[0])
    lens = batch.lens[q_idx] - q_start
    drop = np.empty(e, dtype=np.int64)
    tail = np.empty(e, dtype=np.float64) if need_tail_min else None
    bounds = _chunk_bounds(lens, max_elems)
    for a, b in zip(bounds[:-1], bounds[1:]):
        dist, seg_starts, seg_lens, idx_in_seg = _flat_span(
            low, high, q_idx, q_start, batch, a, b, lens
        )
        rep = np.repeat(np.arange(a, b, dtype=np.int64), seg_lens)
        within = dist <= thresh[rep]
        sentinel = int(dist.shape[0]) + 1
        masked = np.where(within, idx_in_seg, sentinel)
        first = np.minimum.reduceat(masked, seg_starts)
        found = first < seg_lens
        drop[a:b] = np.where(found, first, -1)
        if need_tail_min:
            first_rep = np.repeat(np.where(found, first, 0), seg_lens)
            dist_tail = np.where(idx_in_seg >= first_rep, dist, np.inf)
            t = np.minimum.reduceat(dist_tail, seg_starts)
            tail[a:b] = np.where(found, t, np.inf)
    return drop, tail


# --------------------------------------------------------------------- #
# batched visit protocol
# --------------------------------------------------------------------- #


@dataclass
class BatchVisit:
    """One expansion step handed to ``adapter.visit_batch``: ``E`` child
    rows, each pairing a child node's box with its parent row's state."""

    #: level kind of every child in this step ("first" / "last" / "pivot")
    kind: str
    #: child MBR corners, ``(E, d)``
    low: np.ndarray
    high: np.ndarray
    #: child subtree max trajectory length, ``(E,)``
    node_max_len: np.ndarray
    #: parent accumulation state per row (see FilterState)
    remaining: np.ndarray
    q_start: np.ndarray
    #: Lemma 5.1 tau1 per row; ``nan`` encodes "not set"
    tau1: np.ndarray
    #: which query each row belongs to
    q_idx: np.ndarray
    batch: QueryBatch


@dataclass
class BatchStep:
    """``visit_batch`` result: ``keep`` marks surviving rows; the state
    arrays are full-length (values on dropped rows are unspecified)."""

    keep: np.ndarray
    remaining: np.ndarray
    q_start: np.ndarray
    tau1: np.ndarray


# --------------------------------------------------------------------- #
# frontier traversal
# --------------------------------------------------------------------- #


def frontier_filter(
    trie: ColumnarTrie,
    batch: QueryBatch,
    taus: Sequence[float],
    adapter,
) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray]:
    """Run Algorithm 2 for every query of ``batch`` in one sweep.

    Returns ``(positions, visited, pruned)``: per query, the member
    positions (into ``trie.member_rows``) of its candidates, and the
    nodes-visited / nodes-pruned counts matching the recursive reference
    walk exactly.
    """
    n_queries = len(batch)
    visited = np.zeros(n_queries, dtype=np.int64)
    pruned = np.zeros(n_queries, dtype=np.int64)
    out_chunks: List[List[np.ndarray]] = [[] for _ in range(n_queries)]
    if n_queries == 0 or trie.n_nodes == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(n_queries)], visited, pruned

    # initial per-query state (root rows)
    remaining = np.empty(n_queries, dtype=np.float64)
    q_start = np.zeros(n_queries, dtype=np.int64)
    tau1 = np.full(n_queries, np.nan, dtype=np.float64)
    for i in range(n_queries):
        state = adapter.initial_state(batch.query_points(i), float(taus[i]))
        remaining[i] = state.remaining
        q_start[i] = state.q_start
        tau1[i] = np.nan if state.tau1 is None else state.tau1
    node = np.zeros(n_queries, dtype=np.int64)
    q_idx = np.arange(n_queries, dtype=np.int64)

    while node.size:
        visited += np.bincount(q_idx, minlength=n_queries)
        # emit members: anything whose indexing sequence ends here survived
        # every level, and leaf rows contribute their clustered members —
        # then the walk continues into any children (a node may hold short
        # rows and children)
        for starts, pos in (
            (trie.short_starts, trie.short_pos),
            (trie.leaf_starts, trie.leaf_pos),
        ):
            lo = starts[node]
            hi = starts[node + 1]
            for r in np.nonzero(hi > lo)[0]:
                out_chunks[int(q_idx[r])].append(pos[lo[r] : hi[r]])
        # expand the frontier one level
        child_lo = trie.child_lo[node]
        n_child = trie.child_hi[node] - child_lo
        rows = np.nonzero(n_child > 0)[0]
        if rows.size == 0:
            break
        cnt = n_child[rows]
        total = int(cnt.sum())
        ends = np.cumsum(cnt)
        seg_starts = ends - cnt
        offset = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, cnt)
        e_child = np.repeat(child_lo[rows], cnt) + offset
        e_parent = np.repeat(rows, cnt)
        kinds = trie.kind[e_child]
        next_node: List[np.ndarray] = []
        next_q: List[np.ndarray] = []
        next_rem: List[np.ndarray] = []
        next_qs: List[np.ndarray] = []
        next_t1: List[np.ndarray] = []
        # children of one frontier level share a kind; the loop handles the
        # general case (and the degenerate empty groups cost nothing)
        for code in (KIND_FIRST, KIND_LAST, KIND_PIVOT):
            sel = np.nonzero(kinds == code)[0]
            if sel.size == 0:
                continue
            child = e_child[sel]
            parent = e_parent[sel]
            req = BatchVisit(
                kind=KIND_NAMES[code],
                low=trie.mbr_low[child],
                high=trie.mbr_high[child],
                node_max_len=trie.max_len[child],
                remaining=remaining[parent],
                q_start=q_start[parent],
                tau1=tau1[parent],
                q_idx=q_idx[parent],
                batch=batch,
            )
            step = adapter.visit_batch(req)
            kept = np.nonzero(step.keep)[0]
            if kept.size < sel.size:
                dropped_q = q_idx[parent[np.nonzero(~step.keep)[0]]]
                pruned += np.bincount(dropped_q, minlength=n_queries)
            if kept.size:
                next_node.append(child[kept])
                next_q.append(q_idx[parent[kept]])
                next_rem.append(step.remaining[kept])
                next_qs.append(step.q_start[kept])
                next_t1.append(step.tau1[kept])
        if not next_node:
            break
        node = np.concatenate(next_node)
        q_idx = np.concatenate(next_q)
        remaining = np.concatenate(next_rem)
        q_start = np.concatenate(next_qs)
        tau1 = np.concatenate(next_t1)

    positions = [
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        for chunks in out_chunks
    ]
    return positions, visited, pruned
