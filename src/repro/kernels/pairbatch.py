"""Pair-batched wavefront sweeps: many DP tables per anti-diagonal step.

:mod:`repro.kernels.wavefront` vectorises *within* one pair, so at the
24-40 points real trips have an anti-diagonal holds a few dozen cells and
numpy's per-call overhead, not arithmetic, sets the rate.  Verification
hands over *many* short pairs at once (every survivor of a task), so this
module runs the same sweep across all of their tables together: the
tables are stacked along a trailing batch axis — the fastest-varying one,
so every diagonal step is one contiguous slab per operand — inside a
common padded ``(R, N)`` frame, and one ``minimum``/``minimum``/combine
triple advances a diagonal of every table.

Bit-identity with the per-pair kernels is the contract (the differential
suite in ``tests/test_kernels.py`` compares ``view(uint64)``), and it
holds by construction:

* the cost matrix of each pair is still computed by
  :func:`~repro.geometry.point.pairwise_distances` on that pair alone (a
  batched GEMM may block and round differently);
* every real cell evaluates ``min(min(left, up), diag)`` combined with its
  cost in the association :func:`~repro.kernels.wavefront.min_combine_sweep`
  uses — elementwise float64 operations, which do not depend on what else
  shares the slab;
* padding is ``inf`` cost, so padded cells hold ``inf``, and a real cell's
  three predecessors lie inside its own table or on its ``inf`` border:
  padding never feeds a real cell;
* thresholding is per table (a ``tau`` row broadcast over the slab).  The
  per-pair sweeps abandon a pair once two consecutive diagonals are dead;
  nothing past such a pair of diagonals is finite, so abandoning changes
  no value and the batched sweep only stops when *every* table is dead.

Tables are bucketed by size so that a sweep's padded volume stays under
:data:`MAX_SWEEP_VOLUME`: two 1,500-point trajectories run as a batch of
one, not inside a frame that pads sixty short pairs up to their size.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from ..geometry.point import pairwise_distances
from .wavefront import as_matrix_pair

_INF = math.inf

#: Most padded cost cells (frame rows x frame columns x tables) one sweep
#: may hold: 32 MiB of float64, room for the two half-tables of one
#: 1,500 x 1,500 pair and not for two such pairs.  ``BENCH_kernels.json``'s
#: ``pair_batch`` series stops gaining from more tables per sweep long
#: before this (at n = 40, 256 pairs are 0.4 M cells); the cap only keeps a
#: few very long trajectories from allocating a frame sized for their
#: product.
MAX_SWEEP_VOLUME = 1 << 22

#: A sweep costs a fixed amount per diagonal (its numpy calls) plus an
#: amount per padded cell; this is the first in units of the second.
#: ``BENCH_kernels.json``'s ``pair_batch.sweep_cost_terms`` times both:
#: about 10 us against about 10 ns, one diagonal for roughly 1,000 cells
#: (650-1,450 from run to run).  On ragged batches of real trip lengths
#: anything from 1,024 to 3,072 runs within noise of the best split.
DIAGONAL_OVERHEAD_CELLS = 1024

#: Fewer pairs than this and the per-pair kernels win: the batched sweep
#: makes more numpy calls per diagonal (per-table thresholds, last-row
#: capture).  ``pair_batch`` series: 0.6-0.9x at pairs = 1; at 2, 1.2-1.7x
#: for DTW and break-even for Fréchet; 2.4x and up from 6.
MIN_BATCH_PAIRS = 2


def pair_batched(
    kernel: Callable[..., np.ndarray], per_pair: Callable[..., float], *columns: Sequence
) -> List[float]:
    """``per_pair(*row)`` for every row of the aligned ``columns``, through
    the batched ``kernel(*columns)`` once there are enough pairs for a
    shared sweep to win (the one :data:`MIN_BATCH_PAIRS` test)."""
    if len(columns[0]) < MIN_BATCH_PAIRS:
        return [per_pair(*row) for row in zip(*columns)]
    return kernel(*columns).tolist()


def _sweep(
    tables: Sequence[np.ndarray],
    taus: np.ndarray,
    combine: Callable[..., np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One padded wavefront over ``tables`` (2-d float64 cost matrices).

    Table ``b`` follows ``V[i,j] = combine(min(V[i,j-1], V[i-1,j],
    V[i-1,j-1]), w[i-1,j-1])`` with ``V[0,0] = 0`` and ``inf`` borders —
    ``np.add`` gives the DTW table, ``np.maximum`` the Fréchet one — and
    cells above the table's threshold ``taus[b]`` become ``inf``.

    Returns ``(last, n_rows, n_cols)``: ``last[k, b]`` is the cell of table
    ``b``'s *last row* on diagonal ``k``, ``V_b[n_rows[b], k - n_rows[b]]``,
    valid for ``1 <= k - n_rows[b] <= n_cols[b]`` (rows 0 and 1 of ``last``
    stay ``inf``, for callers to point masked lookups at).
    """
    n_tables = len(tables)
    n_rows = np.asarray([w.shape[0] for w in tables], dtype=np.int64)
    n_cols = np.asarray([w.shape[1] for w in tables], dtype=np.int64)
    m = int(n_rows.max())
    n = int(n_cols.max())
    costs = np.full((m, n, n_tables), _INF, dtype=np.float64)
    for b, w in enumerate(tables):
        costs[: w.shape[0], : w.shape[1], b] = w
    flat = costs.reshape(m * n, n_tables)
    # rolling diagonal buffers indexed by padded row, as in min_combine_sweep
    size = m + 1
    d2 = np.full((size, n_tables), _INF, dtype=np.float64)
    d2[0] = 0.0  # diagonal 0: V[0, 0] of every table
    d1 = np.full((size, n_tables), _INF, dtype=np.float64)
    cur = np.full((size, n_tables), _INF, dtype=np.float64)
    last = np.full((m + n + 1, n_tables), _INF, dtype=np.float64)
    # flat position of (n_rows[b], b) in a diagonal buffer
    last_at = n_rows * n_tables + np.arange(n_tables, dtype=np.int64)
    dead = np.empty((size, n_tables), dtype=bool)
    prev_alive = False  # diagonal 1 holds no finite cell
    minimum = np.minimum
    for k in range(2, m + n + 1):
        i_lo = k - n if k > n else 1
        i_hi = m if k - 1 > m else k - 1
        # the one cell outside [i_lo, i_hi] a later diagonal reads back is
        # index 0, which carried V[0, 0] = 0 (see min_combine_sweep)
        cur[0] = _INF
        if n == 1:
            wd = flat[i_lo - 1 : i_hi]
        else:
            start = (i_lo - 1) * n + (k - i_lo - 1)
            wd = flat[start : start + (i_hi - i_lo) * (n - 1) + 1 : n - 1]
        view = cur[i_lo : i_hi + 1]
        minimum(d1[i_lo : i_hi + 1], d1[i_lo - 1 : i_hi], out=view)
        minimum(view, d2[i_lo - 1 : i_hi], out=view)
        combine(view, wd, out=view)
        over = dead[i_lo : i_hi + 1]
        np.greater(view, taus, out=over)
        np.copyto(view, _INF, where=over)
        alive = not over.all()
        if not alive and not prev_alive:
            break  # ``last`` keeps its inf for every diagonal not reached
        prev_alive = alive
        # where the table's last row is off this diagonal the value taken
        # is junk; the validity range above is exactly [i_lo, i_hi]
        np.take(cur.reshape(-1), last_at, out=last[k], mode="clip")
        d2, d1, cur = d1, cur, d2
    return last, n_rows, n_cols


def _buckets(n_rows: np.ndarray, n_cols: np.ndarray, per_pair: int) -> Iterator[np.ndarray]:
    """Split pairs into sweeps: index arrays into ``n_rows``/``n_cols``, the
    frame each pair needs (it puts ``per_pair`` tables of that size into
    its sweep).

    Pairs are taken largest first, so a bucket's first pair sets (most of)
    its frame.  The next pair joins while the frame stays within
    :data:`MAX_SWEEP_VOLUME` and the bucket's padding — frame cells that
    belong to no table — costs less than the diagonals of one more sweep
    would; then a new bucket opens at that pair's size.  A pair too large
    for the cap on its own still runs, alone.
    """
    order = np.argsort(-(n_rows * n_cols), kind="stable")
    rows = n_rows[order].tolist()
    cols = n_cols[order].tolist()
    lo = 0
    while lo < len(rows):
        m, n, cells = rows[lo], cols[lo], rows[lo] * cols[lo]
        hi = lo + 1
        while hi < len(rows):
            m2, n2 = max(m, rows[hi]), max(n, cols[hi])
            cells2 = cells + rows[hi] * cols[hi]
            volume = m2 * n2 * (hi - lo + 1)
            if volume * per_pair > MAX_SWEEP_VOLUME:
                break
            if (volume - cells2) * per_pair > DIAGONAL_OVERHEAD_CELLS * (m2 + n2):
                break
            m, n, cells = m2, n2, cells2
            hi += 1
        yield order[lo:hi]
        lo = hi


def _checked_pairs(
    ts: Sequence[np.ndarray], qs: Sequence[np.ndarray], name: str
) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """Every pair validated as the per-pair kernels validate it, with the
    two length vectors (the shape of each pair's cost matrix)."""
    pairs = [as_matrix_pair(t, q, name) for t, q in zip(ts, qs)]
    n_t = np.asarray([t.shape[0] for t, _ in pairs], dtype=np.int64)
    n_q = np.asarray([q.shape[0] for _, q in pairs], dtype=np.int64)
    return pairs, n_t, n_q


def _closed_at(values: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """``value if value <= tau else inf``, elementwise."""
    return np.where(values <= taus, values, _INF)


def frechet_threshold_batch(
    ts: Sequence[np.ndarray], qs: Sequence[np.ndarray], taus: Sequence[float]
) -> np.ndarray:
    """Fréchet when ``<= taus[i]`` else ``inf``; bit-identical to
    :func:`repro.distances.frechet.frechet_threshold` per pair.  Each pair
    is one full table whose answer is ``V[m, n]``, the last element of its
    last row."""
    tau = np.asarray(taus, dtype=np.float64)
    pairs, n_t, n_q = _checked_pairs(ts, qs, "Frechet")
    out = np.empty(len(pairs), dtype=np.float64)
    for idx in _buckets(n_t, n_q, 1):
        # the cost matrix stays per pair: a batched GEMM may round differently
        ws = [pairwise_distances(*pairs[i]) for i in idx.tolist()]
        last, rows, cols = _sweep(ws, tau[idx], np.maximum)
        out[idx] = last[rows + cols, np.arange(idx.shape[0], dtype=np.int64)]
    return _closed_at(out, tau)


def dtw_double_direction_batch(
    ts: Sequence[np.ndarray], qs: Sequence[np.ndarray], taus: Sequence[float]
) -> np.ndarray:
    """Double-direction threshold DTW (Section 5.3.3) of every pair;
    bit-identical to :func:`repro.distances.dtw.dtw_double_direction` per
    pair.

    Each pair contributes two tables to its sweep: the forward DP over the
    first ``m // 2`` rows of its cost matrix and the backward DP (the
    forward DP of the reversed block) over the rest.  Their last rows come
    back padded to the frame's width with ``inf`` — the backward one read
    in reverse, so both run along ``Q`` — and the join
    ``min_j F[j] + min(B[j], B[j+1])`` is taken on those padded rows for
    the whole bucket at once (``min`` with the ``inf`` past a table's end
    is the per-pair code's "the last column has no right neighbour").
    """
    tau = np.asarray(taus, dtype=np.float64)
    pairs, n_t, n_q = _checked_pairs(ts, qs, "DTW")
    out = np.full(len(pairs), _INF, dtype=np.float64)
    for i in np.nonzero(n_t == 1)[0].tolist():
        # a one-row table is its row sum, summed the way numpy sums
        out[i] = float(np.sum(pairwise_distances(*pairs[i])))
    split = np.nonzero(n_t > 1)[0]
    # the frame a pair needs is its taller half: (m + 1) // 2 rows
    for idx in _buckets((n_t[split] + 1) // 2, n_q[split], 2):
        members = split[idx]
        forward, backward = [], []
        for i in members.tolist():
            w = pairwise_distances(*pairs[i])
            h = w.shape[0] // 2
            forward.append(w[:h])
            backward.append(w[h:][::-1, ::-1])
        p = members.shape[0]
        last, rows, cols = _sweep(forward + backward, np.tile(tau[members], 2), np.add)
        table = np.arange(2 * p, dtype=np.int64)[None, :]
        j = np.arange(int(cols.max()), dtype=np.int64)[:, None]
        # last-row cell j sits on diagonal rows + 1 + j — rows + cols - j in
        # the reversed backward tables; past a table's width the lookup is
        # pointed at row 0 of ``last``, which is inf
        diag = np.where(table < p, rows + 1 + j, rows + cols - j)
        edge = last[np.where(j < cols, diag, 0), table]
        fwd, bwd = edge[:, :p], edge[:, p:]
        join = bwd.copy()
        np.minimum(join[:-1], bwd[1:], out=join[:-1])
        out[members] = (fwd + join).min(axis=0)
    return _closed_at(out, tau)
