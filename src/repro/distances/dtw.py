"""Dynamic Time Warping (Definition 2.2) and its optimized variants.

The paper uses DTW as the default distance.  We provide:

* :func:`dtw` — the exact O(mn) dynamic program of Definition 2.2,
  executed as a vectorized anti-diagonal wavefront
  (:mod:`repro.kernels.wavefront`);
* :func:`dtw_threshold` — ``DTW(T, Q, tau)``, the threshold-constrained
  version used during verification: cells whose accumulated value exceeds
  ``tau`` are pruned and the sweep abandons early;
* :func:`dtw_double_direction` — the Section 5.3.3 "double-direction
  verification": the DP is run simultaneously from the first points and
  (backwards) from the last points and joined in the middle, so a pair whose
  partial sums already exceed ``tau`` is rejected after touching only half
  the matrix;
* :func:`dtw_window` — a Sakoe-Chiba banded DTW (extension; not used by the
  paper's experiments but standard in the time-series literature it cites).

The per-cell Python loops these replaced are differential oracles under
``tests/oracles/`` (also the ``benchmarks/bench_kernels.py`` baseline).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..geometry.point import pairwise_distances
from ..kernels.pairbatch import dtw_batch, dtw_double_direction_batch, pair_batched
from ..kernels.wavefront import (
    dtw_wavefront,
    dtw_wavefront_last_row,
    dtw_wavefront_threshold,
)
from .base import TrajectoryDistance, register_distance

_INF = math.inf


def _check(t: np.ndarray, q: np.ndarray) -> tuple:
    t = np.asarray(t, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if t.ndim == 1:
        t = t[None, :]
    if q.ndim == 1:
        q = q[None, :]
    if t.shape[0] == 0 or q.shape[0] == 0:
        raise ValueError("DTW is undefined for empty trajectories")
    if t.shape[1] != q.shape[1]:
        raise ValueError(f"dimension mismatch: {t.shape[1]} vs {q.shape[1]}")
    return t, q


def dtw(t: np.ndarray, q: np.ndarray) -> float:
    """Exact DTW: ``v[i, j] = w[i, j] + min(v[i-1, j-1], v[i-1, j],
    v[i, j-1])`` with accumulated first row/column (Definition 2.2),
    evaluated one anti-diagonal at a time."""
    t, q = _check(t, q)
    return dtw_wavefront(t, q)


def dtw_threshold(t: np.ndarray, q: np.ndarray, tau: float) -> float:
    """``DTW(T, Q, tau)``: the exact value when ``<= tau``, else ``inf``.

    Early abandon: any cell whose accumulated cost exceeds ``tau`` can never
    be on a path of total cost ``<= tau`` (costs are non-negative), so it is
    pruned; when the wavefront goes fully dead the pair is rejected.
    """
    t, q = _check(t, q)
    return dtw_wavefront_threshold(t, q, tau)


def dtw_double_direction(t: np.ndarray, q: np.ndarray, tau: float) -> float:
    """Double-direction threshold DTW (Section 5.3.3).

    Runs the forward DP over the first half of T's rows and the backward DP
    (on the reversed matrices) over the second half, abandoning either side
    as soon as all partial sums exceed ``tau``.  The two frontiers are then
    joined: every warping path crosses from row ``h`` to row ``h+1`` via a
    vertical or diagonal step, so

    ``DTW = min over j of ( F[h][j] + min(B[h+1][j], B[h+1][j+1]) )``

    where ``F`` is the forward cumulative row and ``B`` the backward one.
    Returns the exact DTW when ``<= tau``, else ``inf``.  Both half-sweeps
    use the wavefront kernel.
    """
    t, q = _check(t, q)
    m, n = t.shape[0], q.shape[0]
    if m == 1:
        total = float(np.sum(pairwise_distances(t, q)))
        return total if total <= tau else _INF
    w = pairwise_distances(t, q)
    h = m // 2  # forward covers rows 0..h-1, backward rows h..m-1
    fwd = dtw_wavefront_last_row(w, h, tau)
    if fwd is None:
        return _INF
    # backward DP over rows h..m-1 equals forward DP over the reversed block
    w_back = w[h:, :][::-1, ::-1]
    bwd_rev = dtw_wavefront_last_row(w_back, w_back.shape[0], tau)
    if bwd_rev is None:
        return _INF
    bwd = bwd_rev[::-1]  # bwd[j] = DTW(T[h:], Q[j:]) capped at tau
    join = bwd.copy()
    np.minimum(join[:-1], bwd[1:], out=join[:-1])
    total = fwd + join
    finite = np.isfinite(total)
    if not finite.any():
        return _INF
    best = float(np.min(total[finite]))
    return best if best <= tau else _INF


def dtw_window(t: np.ndarray, q: np.ndarray, window: int) -> float:
    """Sakoe-Chiba banded DTW: cells with ``|i - j| > window`` are skipped.

    With ``window >= max(m, n)`` this equals exact DTW.
    """
    t, q = _check(t, q)
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


@register_distance("dtw")
class DTWDistance(TrajectoryDistance):
    """Dynamic Time Warping, the paper's default distance function."""

    is_metric = False

    def compute(self, t: np.ndarray, q: np.ndarray) -> float:
        return dtw(t, q)

    def compute_batch(self, ts: Sequence[np.ndarray], qs: Sequence[np.ndarray]) -> List[float]:
        return pair_batched(dtw_batch, dtw, ts, qs)

    def compute_threshold(self, t: np.ndarray, q: np.ndarray, tau: float) -> float:
        return dtw_double_direction(t, q, tau)

    def compute_threshold_batch(
        self, ts: Sequence[np.ndarray], qs: Sequence[np.ndarray], taus: Sequence[float]
    ) -> List[float]:
        return pair_batched(dtw_double_direction_batch, dtw_double_direction, ts, qs, taus)

    def lower_bound(self, t: np.ndarray, q: np.ndarray) -> float:
        """Kim's first/last-point bound (any warping path pays both cells)."""
        from .lb import lb_kim

        return lb_kim(t, q)
