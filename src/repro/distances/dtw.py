"""Dynamic Time Warping (Definition 2.2) and its optimized variants.

The paper uses DTW as the default distance.  We provide:

* :func:`dtw` — the exact O(mn) dynamic program of Definition 2.2;
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

All four run the min-plus form of
:func:`~repro.kernels.wavefront.min_combine_sweep` (the band is ``inf`` cost
outside it); many threshold pairs at once go through
:func:`~repro.kernels.pairbatch.dtw_double_direction_batch`.  The per-cell
Python loops these replaced are differential oracles under
``tests/oracles/`` (also the ``benchmarks/bench_kernels.py`` baseline).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..geometry.point import pairwise_distances
from ..kernels.pairbatch import dtw_double_direction_batch, pair_batched
from ..kernels.wavefront import as_matrix_pair, dtw_wavefront_last_row, min_combine_sweep
from .base import TrajectoryDistance, register_distance

_INF = math.inf


def dtw(t: np.ndarray, q: np.ndarray) -> float:
    """Exact DTW: ``v[i, j] = w[i, j] + min(v[i-1, j-1], v[i-1, j],
    v[i, j-1])`` with accumulated first row/column (Definition 2.2),
    evaluated one anti-diagonal at a time."""
    t, q = as_matrix_pair(t, q, "DTW")
    value, _ = min_combine_sweep(pairwise_distances(t, q), None, np.add)
    return value


def dtw_threshold(t: np.ndarray, q: np.ndarray, tau: float) -> float:
    """``DTW(T, Q, tau)``: the exact value when ``<= tau``, else ``inf``.

    Early abandon: any cell whose accumulated cost exceeds ``tau`` can never
    be on a path of total cost ``<= tau`` (costs are non-negative), so it is
    pruned; when the wavefront goes fully dead the pair is rejected.
    """
    t, q = as_matrix_pair(t, q, "DTW")
    value, _ = min_combine_sweep(pairwise_distances(t, q), tau, np.add)
    return value if value <= tau else _INF


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
    t, q = as_matrix_pair(t, q, "DTW")
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
    """Sakoe-Chiba banded DTW: cells with ``|i - j| > window`` are skipped
    (they cost ``inf``), widened to ``|m - n|`` so the band reaches the
    final cell.

    With ``window >= max(m, n)`` this equals exact DTW.
    """
    t, q = as_matrix_pair(t, q, "DTW")
    if window < 0:
        raise ValueError("window must be non-negative")
    w = pairwise_distances(t, q)
    m, n = w.shape
    i, j = np.ogrid[:m, :n]
    w[np.abs(i - j) > max(window, abs(m - n))] = _INF
    value, _ = min_combine_sweep(w, None, np.add)
    return value


@register_distance("dtw")
class DTWDistance(TrajectoryDistance):
    """Dynamic Time Warping, the paper's default distance function."""

    is_metric = False

    def compute(self, t: np.ndarray, q: np.ndarray) -> float:
        return dtw(t, q)

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
