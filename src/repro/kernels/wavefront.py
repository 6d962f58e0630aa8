"""Anti-diagonal wavefront sweeps for the O(mn) trajectory DPs.

Every dynamic program in :mod:`repro.distances` fills an (m, n) table where
cell ``(i, j)`` depends only on ``(i-1, j-1)``, ``(i-1, j)`` and
``(i, j-1)`` — the previous two *anti-diagonals*.  Sweeping the table
diagonal by diagonal therefore turns the O(mn) interpreted inner loop into
O(m + n) vectorized steps over shifted views of the previous two diagonal
buffers and the diagonal of the cost matrix.

Two per-pair sweeps cover every DP distance, each fed a cost matrix by its
wrapper in :mod:`repro.distances`:

* :func:`min_combine_sweep` — ``V[i,j] = combine(min(predecessors),
  w[i-1,j-1])`` from ``V[0,0] = 0``: ``np.add`` is DTW (and, on a banded
  cost matrix, Sakoe-Chiba DTW), ``np.maximum`` discrete Fréchet;
* :func:`edit_sweep` — the edit DP with a substitution matrix and per-point
  insert/delete costs: ERP as is, EDR with unit gaps and a 0/1
  substitution, LCSS with unit gaps and a 0/``inf`` substitution.

(:mod:`repro.kernels.pairbatch` runs the min-combine sweep across many
pairs at once.)

All sweeps work on a *padded* table ``V`` of shape ``(m+1, n+1)`` whose row
``i`` / column ``j`` correspond to prefix lengths, with out-of-table cells
held at ``inf``; the buffers below are indexed by padded row ``i`` and the
diagonal index ``k = i + j`` runs from 0 to ``m + n``.  Consecutive cells
of one anti-diagonal are ``n - 1`` elements apart in the raveled cost
matrix, so its diagonal is a zero-copy strided slice (a column run when
``n == 1``).

Threshold variants prune every cell whose accumulated value exceeds
``tau`` (sound for every distance because each DP accumulates
non-negative costs, so a prefix value never exceeds the value of any path
extending it) and abandon outright when two *consecutive* diagonals hold no
finite cell — every warping/edit path advances ``k`` by 1 or 2 per step, so
nothing beyond such a pair of diagonals is reachable.  Surviving cell
values are bit-identical to the unconstrained DP, which is what the
differential tests in ``tests/test_kernels.py`` assert against the
per-cell loops kept under ``tests/oracles/``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

_INF = math.inf


def as_matrix_pair(t: np.ndarray, q: np.ndarray, name: str) -> Tuple[np.ndarray, np.ndarray]:
    """Both operands as float64 point matrices of one dimensionality;
    ``ValueError`` naming the distance ``name`` otherwise."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if t.shape[0] == 0 or q.shape[0] == 0:
        raise ValueError(f"{name} is undefined for empty trajectories")
    if t.shape[1] != q.shape[1]:
        raise ValueError(f"dimension mismatch: {t.shape[1]} vs {q.shape[1]}")
    return t, q


def min_combine_sweep(
    w: np.ndarray,
    tau: Optional[float],
    combine: Callable[..., np.ndarray],
    capture_row: Optional[int] = None,
) -> Tuple[float, Optional[np.ndarray]]:
    """Wavefront over ``V[i,j] = combine(min(V[i-1,j-1], V[i-1,j],
    V[i,j-1]), w[i-1,j-1])`` with ``V[0,0] = 0`` and inf borders —
    ``np.add`` accumulates DTW, ``np.maximum`` Fréchet (costs are
    non-negative, so its start cell evaluates to ``w[0,0]``).

    Returns ``(V[m, n], row)`` where ``row`` is the full DP row
    ``capture_row`` (0-based, in matrix coordinates) when requested — the
    piece the double-direction verification joins on.  With ``tau`` set,
    cells above ``tau`` become ``inf`` and the sweep abandons (returning
    ``inf``) once two consecutive diagonals are dead.
    """
    m, n = w.shape
    flat = np.ascontiguousarray(w, dtype=np.float64).ravel()
    size = m + 1
    d2 = np.full(size, _INF)
    d2[0] = 0.0  # diagonal 0: V[0, 0]
    d1 = np.full(size, _INF)  # diagonal 1: all border cells
    cur = np.full(size, _INF)
    out = np.full(n, _INF) if capture_row is not None else None
    cap = capture_row + 1 if capture_row is not None else -1  # padded row index
    prev_alive = False  # diagonal 1 holds no finite cell
    minimum = np.minimum
    for k in range(2, m + n + 1):
        i_lo = k - n if k > n else 1
        i_hi = m if k - 1 > m else k - 1
        # no full clear needed: cells outside [i_lo, i_hi] are never written
        # by any diagonal this buffer could still be read at, except index 0,
        # which carried the initial V[0, 0] = 0 and must revert to border inf
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
        if tau is not None:
            dead = view > tau
            view[dead] = _INF
            alive = not dead.all()
            if not alive and not prev_alive:
                break
            prev_alive = alive
        if out is not None and i_lo <= cap <= i_hi and 1 <= k - cap <= n:
            out[k - cap - 1] = cur[cap]
        d2, d1, cur = d1, cur, d2
    return float(d1[m]), out


def dtw_wavefront_last_row(w: np.ndarray, rows: int, tau: float) -> Optional[np.ndarray]:
    """Threshold-capped forward DTW over ``w[:rows]``; returns DP row
    ``rows - 1`` (cells above ``tau`` as ``inf``) or ``None`` when no cell
    of that row stays within ``tau`` — the half-sweep of double-direction
    verification.
    """
    _, row = min_combine_sweep(w[:rows], tau, np.add, capture_row=rows - 1)
    assert row is not None
    if not np.isfinite(row).any():
        return None
    return row


def edit_sweep(w: np.ndarray, gt: np.ndarray, gq: np.ndarray, tau: Optional[float]) -> float:
    """Wavefront over the edit DP ``V[i,j] = min(V[i-1,j-1] + w[i-1,j-1],
    V[i-1,j] + gt[i-1], V[i,j-1] + gq[j-1])``: substituting ``t_i`` by
    ``q_j`` costs ``w[i-1,j-1]``, deleting ``t_i`` costs ``gt[i-1]``,
    inserting ``q_j`` costs ``gq[j-1]``, and the boundaries are the gap-cost
    prefix sums.  Returns ``V[m, n]`` (``inf`` once ``tau`` prunes it)."""
    m, n = w.shape
    flat = np.ascontiguousarray(w, dtype=np.float64).ravel()
    g_t = np.cumsum(gt)
    g_q = np.cumsum(gq)
    size = m + 1
    d2 = np.full(size, _INF)
    d2[0] = 0.0
    d1 = np.full(size, _INF)
    d1[0] = g_q[0]  # V[0, 1]
    d1[1] = g_t[0]  # V[1, 0]
    cur = np.full(size, _INF)
    if tau is not None:
        if d1[0] > tau:
            d1[0] = _INF
        if d1[1] > tau:
            d1[1] = _INF
    prev_alive = tau is None or bool(np.isfinite(d1[:2]).any())
    for k in range(2, m + n + 1):
        i_lo = k - n if k > n else 1
        i_hi = m if k - 1 > m else k - 1
        cur.fill(_INF)
        if n == 1:
            wd = flat[i_lo - 1 : i_hi]
        else:
            start = (i_lo - 1) * n + (k - i_lo - 1)
            wd = flat[start : start + (i_hi - i_lo) * (n - 1) + 1 : n - 1]
        sub = d2[i_lo - 1 : i_hi] + wd
        dele = d1[i_lo - 1 : i_hi] + gt[i_lo - 1 : i_hi]
        ins = d1[i_lo : i_hi + 1] + gq[k - i_hi - 1 : k - i_lo][::-1]
        view = cur[i_lo : i_hi + 1]
        np.minimum(sub, dele, out=view)
        np.minimum(view, ins, out=view)
        if k <= n:
            cur[0] = g_q[k - 1]  # V[0, k]
        if k <= m:
            cur[k] = g_t[k - 1]  # V[k, 0]
        if tau is not None:
            lo = 0 if k <= n else i_lo
            hi = k if k <= m else i_hi
            band = cur[lo : hi + 1]
            dead = band > tau
            band[dead] = _INF
            alive = not dead.all()
            if not alive and not prev_alive:
                break
            prev_alive = alive
        d2, d1, cur = d1, cur, d2
    return float(d1[m])
