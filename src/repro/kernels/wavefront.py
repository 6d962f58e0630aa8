"""Anti-diagonal wavefront sweeps for the O(mn) trajectory DPs.

Every dynamic program in :mod:`repro.distances` fills an (m, n) table where
cell ``(i, j)`` depends only on ``(i-1, j-1)``, ``(i-1, j)`` and
``(i, j-1)`` — the previous two *anti-diagonals*.  Sweeping the table
diagonal by diagonal therefore turns the O(mn) interpreted inner loop into
O(m + n) vectorized steps: each diagonal is one ``minimum``/``maximum``
over shifted views of the previous two diagonal buffers plus one
elementwise combine with the diagonal of the cost matrix.

All sweeps work on a *padded* table ``V`` of shape ``(m+1, n+1)`` whose row
``i`` / column ``j`` correspond to prefix lengths, with out-of-table cells
held at ``inf``; the buffers below are indexed by padded row ``i`` and the
diagonal index ``k = i + j`` runs from 0 to ``m + n``.

Threshold variants prune every cell whose accumulated value exceeds
``tau`` (sound for all four distances because each DP accumulates
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
from typing import Optional, Tuple

import numpy as np

from ..geometry.point import pairwise_distances

_INF = math.inf
_EPS = float(np.finfo(np.float64).eps)


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


def _cost_diagonal(flat: np.ndarray, n: int, k: int, i_lo: int, i_hi: int) -> np.ndarray:
    """Strided view of ``w[i-1, k-i-1]`` for padded rows ``i_lo..i_hi``.

    ``flat`` is the C-contiguous raveled (m, n) cost matrix; consecutive
    cells of one anti-diagonal are exactly ``n - 1`` flat elements apart,
    so for ``n >= 2`` the diagonal is a zero-copy strided slice.
    """
    if n == 1:  # stride n-1 == 0 is not sliceable; the diagonal is a column run
        return flat[i_lo - 1 : i_hi]
    start = (i_lo - 1) * n + (k - i_lo - 1)
    count = i_hi - i_lo + 1
    return flat[start : start + (count - 1) * (n - 1) + 1 : n - 1]


# --------------------------------------------------------------------- #
# DTW (additive min-plus accumulation)
# --------------------------------------------------------------------- #


def _min_plus_sweep(
    w: np.ndarray,
    tau: Optional[float],
    capture_row: Optional[int] = None,
) -> Tuple[float, Optional[np.ndarray]]:
    """Wavefront over ``V[i,j] = w[i-1,j-1] + min(V[i-1,j-1], V[i-1,j],
    V[i,j-1])`` with ``V[0,0] = 0`` and inf borders.

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
    add = np.add
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
        add(view, wd, out=view)
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


def dtw_wavefront(t: np.ndarray, q: np.ndarray) -> float:
    """Exact DTW via the anti-diagonal wavefront sweep."""
    t, q = as_matrix_pair(t, q, "DTW")
    value, _ = _min_plus_sweep(pairwise_distances(t, q), tau=None)
    return value


def dtw_wavefront_threshold(t: np.ndarray, q: np.ndarray, tau: float) -> float:
    """Exact DTW when ``<= tau``, else ``inf`` (early-abandoning sweep)."""
    t, q = as_matrix_pair(t, q, "DTW")
    value, _ = _min_plus_sweep(pairwise_distances(t, q), tau=tau)
    return value if value <= tau else _INF


def dtw_wavefront_last_row(w: np.ndarray, rows: int, tau: float) -> Optional[np.ndarray]:
    """Threshold-capped forward DP over ``w[:rows]``; returns DP row
    ``rows - 1`` (cells above ``tau`` as ``inf``) or ``None`` when no cell
    of that row stays within ``tau`` — the half-sweep of double-direction
    verification.
    """
    _, row = _min_plus_sweep(w[:rows], tau=tau, capture_row=rows - 1)
    assert row is not None
    if not np.isfinite(row).any():
        return None
    return row


# --------------------------------------------------------------------- #
# Discrete Fréchet (max accumulation)
# --------------------------------------------------------------------- #


def _max_min_sweep(w: np.ndarray, tau: Optional[float]) -> float:
    """Wavefront over ``V[i,j] = max(w[i-1,j-1], min(V[i-1,j-1], V[i-1,j],
    V[i,j-1]))`` with ``V[0,0] = 0`` (costs are non-negative, so the start
    cell evaluates to ``w[0,0]``)."""
    m, n = w.shape
    flat = np.ascontiguousarray(w, dtype=np.float64).ravel()
    size = m + 1
    d2 = np.full(size, _INF)
    d2[0] = 0.0
    d1 = np.full(size, _INF)
    cur = np.full(size, _INF)
    prev_alive = False
    minimum = np.minimum
    maximum = np.maximum
    for k in range(2, m + n + 1):
        i_lo = k - n if k > n else 1
        i_hi = m if k - 1 > m else k - 1
        cur[0] = _INF  # same single-cell clear as the min-plus sweep
        if n == 1:
            wd = flat[i_lo - 1 : i_hi]
        else:
            start = (i_lo - 1) * n + (k - i_lo - 1)
            wd = flat[start : start + (i_hi - i_lo) * (n - 1) + 1 : n - 1]
        view = cur[i_lo : i_hi + 1]
        minimum(d1[i_lo : i_hi + 1], d1[i_lo - 1 : i_hi], out=view)
        minimum(view, d2[i_lo - 1 : i_hi], out=view)
        maximum(view, wd, out=view)
        if tau is not None:
            dead = view > tau
            view[dead] = _INF
            alive = not dead.all()
            if not alive and not prev_alive:
                break
            prev_alive = alive
        d2, d1, cur = d1, cur, d2
    return float(d1[m])


def frechet_wavefront(t: np.ndarray, q: np.ndarray) -> float:
    """Exact discrete Fréchet distance via the wavefront sweep."""
    t, q = as_matrix_pair(t, q, "Frechet")
    return _max_min_sweep(pairwise_distances(t, q), tau=None)


def frechet_wavefront_threshold(t: np.ndarray, q: np.ndarray, tau: float) -> float:
    """Exact Fréchet when ``<= tau``, else ``inf``."""
    t, q = as_matrix_pair(t, q, "Frechet")
    value = _max_min_sweep(pairwise_distances(t, q), tau=tau)
    return value if value <= tau else _INF


# --------------------------------------------------------------------- #
# EDR (edit distance with an epsilon match predicate)
# --------------------------------------------------------------------- #


def _edr_sweep(cost: np.ndarray, tau: Optional[float]) -> float:
    """Wavefront over the EDR edit DP: substitution cost from ``cost``
    (0 on match, 1 otherwise), insert/delete cost 1, and the real edit
    boundaries ``V[i,0] = i``, ``V[0,j] = j``."""
    m, n = cost.shape
    flat = np.ascontiguousarray(cost, dtype=np.float64).ravel()
    size = m + 1
    d2 = np.full(size, _INF)
    d2[0] = 0.0
    d1 = np.full(size, _INF)
    d1[0] = 1.0  # V[0, 1]
    d1[1] = 1.0  # V[1, 0]
    cur = np.full(size, _INF)
    prev_alive = tau is None or 1.0 <= tau
    for k in range(2, m + n + 1):
        i_lo = k - n if k > n else 1
        i_hi = m if k - 1 > m else k - 1
        cur.fill(_INF)
        wd = _cost_diagonal(flat, n, k, i_lo, i_hi)
        step = np.minimum(d1[i_lo : i_hi + 1], d1[i_lo - 1 : i_hi]) + 1.0
        sub = d2[i_lo - 1 : i_hi] + wd
        view = cur[i_lo : i_hi + 1]
        np.minimum(step, sub, out=view)
        if k <= n:
            cur[0] = float(k)  # V[0, k]
        if k <= m:
            cur[k] = float(k)  # V[k, 0]
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


def edr_wavefront(t: np.ndarray, q: np.ndarray, epsilon: float) -> int:
    """Exact EDR via the wavefront sweep (integer edit count)."""
    t, q = as_matrix_pair(t, q, "EDR")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    cost = (pairwise_distances(t, q) > epsilon).astype(np.float64)
    return int(_edr_sweep(cost, tau=None))


def edr_wavefront_threshold(t: np.ndarray, q: np.ndarray, epsilon: float, tau: float) -> float:
    """EDR when ``<= tau``, else ``inf``.  The threshold prune subsumes the
    classic ``|m - n| <= tau`` length filter and the banded DP: any cell
    with ``|i - j| > tau`` carries at least that many indels and dies."""
    t, q = as_matrix_pair(t, q, "EDR")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if abs(t.shape[0] - q.shape[0]) > tau:
        return _INF
    cost = (pairwise_distances(t, q) > epsilon).astype(np.float64)
    value = _edr_sweep(cost, tau=tau)
    return value if value <= tau else _INF


# --------------------------------------------------------------------- #
# ERP (edit distance with real penalty against a gap point)
# --------------------------------------------------------------------- #


def _erp_sweep(
    w: np.ndarray, gt: np.ndarray, gq: np.ndarray, tau: Optional[float]
) -> float:
    """Wavefront over the ERP DP: substitution from ``w``, deleting ``t_i``
    costs ``gt[i]``, inserting ``q_j`` costs ``gq[j]``, and the boundaries
    are the gap-cost prefix sums."""
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
        wd = _cost_diagonal(flat, n, k, i_lo, i_hi)
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


def _erp_inputs(t: np.ndarray, q: np.ndarray, gap: np.ndarray):
    t, q = as_matrix_pair(t, q, "ERP")
    g = np.asarray(gap, dtype=np.float64)
    if g.shape != (t.shape[1],):
        raise ValueError("gap point must match trajectory dimensionality")
    w = pairwise_distances(t, q)
    gt = np.sqrt(np.sum((t - g[None, :]) ** 2, axis=1))
    gq = np.sqrt(np.sum((q - g[None, :]) ** 2, axis=1))
    return w, gt, gq


def erp_mass_bound(gt: np.ndarray, gq: np.ndarray) -> float:
    """The triangle-derived ERP lower bound
    ``|sum dist(t_i, g) - sum dist(q_j, g)|`` from the per-point gap costs,
    rounded *down*.

    The two masses are summed apart from the DP, so in floating point their
    difference can land a few ULPs *of the masses* above an ERP value that
    itself rounded to exactly ``tau`` — and ``bound > tau`` would then
    dismiss a true answer at the closed boundary.  Subtracting the worst
    case rounding of both computations (each adds at most ``m + n`` terms
    no larger than the total mass) keeps the bound at or below the DP's
    value; it is the closed-boundary allowance
    :func:`repro.core.numerics.slack` gives the trie filters, scaled by the
    magnitude the error actually has here.
    """
    mass_t = float(gt.sum())
    mass_q = float(gq.sum())
    allowance = (gt.shape[0] + gq.shape[0] + 8) * _EPS * (mass_t + mass_q)
    return max(0.0, abs(mass_t - mass_q) - allowance)


def erp_wavefront(t: np.ndarray, q: np.ndarray, gap: np.ndarray) -> float:
    """Exact ERP via the wavefront sweep."""
    w, gt, gq = _erp_inputs(t, q, gap)
    return _erp_sweep(w, gt, gq, tau=None)


def erp_wavefront_threshold(t: np.ndarray, q: np.ndarray, gap: np.ndarray, tau: float) -> float:
    """ERP when ``<= tau``, else ``inf``, with the gap-mass lower bound as
    a free pre-check before any DP work."""
    w, gt, gq = _erp_inputs(t, q, gap)
    if erp_mass_bound(gt, gq) > tau:
        return _INF
    value = _erp_sweep(w, gt, gq, tau=tau)
    return value if value <= tau else _INF
