"""Per-cell Python loops for the DP distances: the differential oracles
for the wavefront sweeps (:mod:`repro.kernels.wavefront`) behind
:mod:`repro.distances`.  Moved here verbatim from ``src/repro/distances``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distances.erp import erp_mass_bound
from repro.geometry.point import pairwise_distances
from repro.kernels.wavefront import as_matrix_pair

_INF = math.inf


def dtw_reference(t: np.ndarray, q: np.ndarray) -> float:
    """Exact DTW via the classic per-cell cumulative-cost loop.

    Kept as the differential-testing oracle for :func:`dtw`.
    """
    t, q = as_matrix_pair(t, q, "DTW")
    w = pairwise_distances(t, q)
    m, n = w.shape
    v = np.empty_like(w)
    v[0, :] = np.cumsum(w[0, :])
    v[:, 0] = np.cumsum(w[:, 0])
    for i in range(1, m):
        row_prev = v[i - 1]
        row = v[i]
        wi = w[i]
        for j in range(1, n):
            best = row_prev[j - 1]
            if row_prev[j] < best:
                best = row_prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = wi[j] + best
    return float(v[m - 1, n - 1])


def dtw_threshold_reference(t: np.ndarray, q: np.ndarray, tau: float) -> float:
    """Row-by-row early-abandon DTW loop; oracle for :func:`dtw_threshold`."""
    t, q = as_matrix_pair(t, q, "DTW")
    w = pairwise_distances(t, q)
    m, n = w.shape
    prev = np.cumsum(w[0, :])
    prev[prev > tau] = _INF
    if not np.isfinite(prev).any():
        return _INF
    for i in range(1, m):
        cur = np.full(n, _INF)
        wi = w[i]
        if np.isfinite(prev[0]):
            val = wi[0] + prev[0]
            if val <= tau:
                cur[0] = val
        for j in range(1, n):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if cur[j - 1] < best:
                best = cur[j - 1]
            if np.isfinite(best):
                val = wi[j] + best
                if val <= tau:
                    cur[j] = val
        if not np.isfinite(cur).any():
            return _INF
        prev = cur
    return float(prev[n - 1]) if np.isfinite(prev[n - 1]) else _INF


def dtw_window_reference(t: np.ndarray, q: np.ndarray, window: int) -> float:
    """Sakoe-Chiba banded DTW: cells with ``|i - j| > window`` are skipped.

    With ``window >= max(m, n)`` this equals exact DTW.  Oracle for
    :func:`dtw_window`.
    """
    t, q = as_matrix_pair(t, q, "DTW")
    if window < 0:
        raise ValueError("window must be non-negative")
    w = pairwise_distances(t, q)
    m, n = w.shape
    window = max(window, abs(m - n))  # band must reach the final cell
    v = np.full((m + 1, n + 1), _INF)
    v[0, 0] = 0.0
    for i in range(1, m + 1):
        lo = max(1, i - window)
        hi = min(n, i + window)
        for j in range(lo, hi + 1):
            best = min(v[i - 1, j - 1], v[i - 1, j], v[i, j - 1])
            if np.isfinite(best):
                v[i, j] = w[i - 1, j - 1] + best
    return float(v[m, n])


def _forward_rows(w: np.ndarray, rows: int, tau: float):
    """Forward DP over the first ``rows`` rows of ``w``; returns the last
    computed row (or None on early abandon).  Loop-based oracle for
    :func:`repro.kernels.wavefront.dtw_wavefront_last_row`."""
    n = w.shape[1]
    prev = np.cumsum(w[0, :])
    prev[prev > tau] = _INF
    if not np.isfinite(prev).any():
        return None
    for i in range(1, rows):
        cur = np.full(n, _INF)
        wi = w[i]
        if np.isfinite(prev[0]):
            val = wi[0] + prev[0]
            if val <= tau:
                cur[0] = val
        for j in range(1, n):
            best = min(prev[j - 1], prev[j], cur[j - 1])
            if np.isfinite(best):
                val = wi[j] + best
                if val <= tau:
                    cur[j] = val
        if not np.isfinite(cur).any():
            return None
        prev = cur
    return prev


def frechet_reference(t: np.ndarray, q: np.ndarray) -> float:
    """Exact discrete Fréchet via the per-cell loop; oracle for
    :func:`frechet`."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if t.shape[0] == 0 or q.shape[0] == 0:
        raise ValueError("Frechet is undefined for empty trajectories")
    w = pairwise_distances(t, q)
    m, n = w.shape
    v = np.empty_like(w)
    v[0, :] = np.maximum.accumulate(w[0, :])
    v[:, 0] = np.maximum.accumulate(w[:, 0])
    for i in range(1, m):
        prev = v[i - 1]
        row = v[i]
        wi = w[i]
        for j in range(1, n):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            row[j] = wi[j] if wi[j] > best else best
    return float(v[m - 1, n - 1])


def edr_reference(t: np.ndarray, q: np.ndarray, epsilon: float) -> int:
    """Exact EDR via the per-cell edit-distance loop; oracle for
    :func:`edr`."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    m, n = t.shape[0], q.shape[0]
    match = pairwise_distances(t, q) <= epsilon
    prev = np.arange(n + 1)  # EDR(empty, Q^j) = j
    for i in range(1, m + 1):
        cur = np.empty(n + 1, dtype=np.int64)
        cur[0] = i  # EDR(T^i, empty) = i
        match_row = match[i - 1]
        for j in range(1, n + 1):
            sub = prev[j - 1] + (0 if match_row[j - 1] else 1)
            ins = prev[j] + 1
            dele = cur[j - 1] + 1
            best = sub
            if ins < best:
                best = ins
            if dele < best:
                best = dele
            cur[j] = best
        prev = cur
    return int(prev[n])


def lcss_reference(t: np.ndarray, q: np.ndarray, epsilon: float, delta: int) -> int:
    """Length of the longest common subsequence under ``epsilon``/``delta``;
    oracle for :func:`lcss`."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if epsilon < 0 or delta < 0:
        raise ValueError("epsilon and delta must be non-negative")
    m, n = t.shape[0], q.shape[0]
    close = pairwise_distances(t, q) <= epsilon
    prev = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, m + 1):
        cur = np.zeros(n + 1, dtype=np.int64)
        close_row = close[i - 1]
        for j in range(1, n + 1):
            if abs(i - j) <= delta and close_row[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = prev[j] if prev[j] >= cur[j - 1] else cur[j - 1]
        prev = cur
    return int(prev[n])


def erp_reference(t: np.ndarray, q: np.ndarray, gap: np.ndarray) -> float:
    """Exact ERP via the per-cell loop; oracle for :func:`erp`."""
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    g = np.asarray(gap, dtype=np.float64)
    if g.shape != (t.shape[1],):
        raise ValueError("gap point must match trajectory dimensionality")
    m, n = t.shape[0], q.shape[0]
    w = pairwise_distances(t, q)
    gt = np.sqrt(np.sum((t - g[None, :]) ** 2, axis=1))  # delete from T
    gq = np.sqrt(np.sum((q - g[None, :]) ** 2, axis=1))  # delete from Q
    prev = np.concatenate(([0.0], np.cumsum(gq)))
    for i in range(1, m + 1):
        cur = np.empty(n + 1)
        cur[0] = prev[0] + gt[i - 1]
        wi = w[i - 1]
        for j in range(1, n + 1):
            sub = prev[j - 1] + wi[j - 1]
            dele = prev[j] + gt[i - 1]
            ins = cur[j - 1] + gq[j - 1]
            best = sub
            if dele < best:
                best = dele
            if ins < best:
                best = ins
            cur[j] = best
        prev = cur
    return float(prev[n])


def erp_threshold_reference(
    t: np.ndarray, q: np.ndarray, gap: np.ndarray, tau: float
) -> float:
    """Mass-bound + full-loop ERP threshold; oracle for
    :func:`erp_threshold`, using the triangle-derived lower bound
    ``|sum dist(t_i, g) - sum dist(q_j, g)| <= ERP(T, Q)`` (rounded down,
    see :func:`~repro.distances.erp.erp_mass_bound`) to abandon early.
    """
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    g = np.asarray(gap, dtype=np.float64)
    gt = np.sqrt(np.sum((t - g[None, :]) ** 2, axis=1))
    gq = np.sqrt(np.sum((q - g[None, :]) ** 2, axis=1))
    if erp_mass_bound(gt, gq) > tau:
        return _INF
    d = erp_reference(t, q, g)
    return d if d <= tau else _INF
