"""Classic DTW lower bounds from the time-series literature.

The paper's related work leans on Keogh's exact DTW indexing [21] and the
Vlachos MBR envelopes [42]; DITA replaces them with its pivot/cell bounds,
but the classics remain useful — e.g. for equal-rate feeds after
:func:`repro.trajectory.transforms.resample` — so the library ships them:

* :func:`lb_kim` — O(1)-ish bound from the first/last points (the
  FL-subset variant, valid for any lengths);
* :func:`lb_keogh` — the banded envelope bound (requires equal lengths, as
  in the original definition).

:func:`lb_kim` is a true lower bound of :func:`repro.distances.dtw.dtw`;
:func:`lb_keogh` bounds the banded :func:`repro.distances.dtw.dtw_window` of
the same window (the min-plus sweep over a cost matrix that is ``inf``
outside the band), and exact DTW at the full window.  Property tests pin
both.
"""

from __future__ import annotations

import numpy as np

from ..geometry.point import euclidean


def lb_kim(t: np.ndarray, q: np.ndarray) -> float:
    """Kim's first/last-point DTW lower bound.

    Any warping path pays the (1,1) and (m,n) cells, so
    ``d(t1, q1) + d(tm, qn) <= DTW`` whenever the two cells are distinct
    (for a 1x1 matrix there is a single cell — the bound drops one term).
    This is exactly the align-level bound DITA's trie applies at its first
    two levels.
    """
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    first = euclidean(t[0], q[0])
    if t.shape[0] == 1 and q.shape[0] == 1:
        return first
    return first + euclidean(t[-1], q[-1])


def keogh_envelope(q: np.ndarray, window: int):
    """The upper/lower envelope of ``q`` under a Sakoe-Chiba band: per
    coordinate, ``U[i] = max(q[i-w .. i+w])`` and ``L[i] = min(...)``."""
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if window < 0:
        raise ValueError("window must be non-negative")
    n = q.shape[0]
    upper = np.empty_like(q)
    lower = np.empty_like(q)
    for i in range(n):
        lo = max(0, i - window)
        hi = min(n, i + window + 1)
        upper[i] = q[lo:hi].max(axis=0)
        lower[i] = q[lo:hi].min(axis=0)
    return lower, upper


def lb_keogh(t: np.ndarray, q: np.ndarray, window: int) -> float:
    """Keogh's envelope lower bound for equal-length inputs.

    Soundness is with respect to the *banded* DTW of the same window:
    ``LB_Keogh(T, Q, w) <= dtw_window(T, Q, w)`` — inside the band, row i
    of T can only align with columns i-w..i+w of Q, and its contribution is
    at least its distance to the envelope box over those columns.  Banded
    DTW *upper*-bounds exact DTW (fewer paths), so to lower-bound exact
    DTW use the full window ``w = len(q) - 1``, where the bound degrades to
    the per-point bounding-box distance (Lemma 5.3's flavor).
    """
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if t.shape[0] != q.shape[0]:
        raise ValueError("lb_keogh requires equal-length trajectories (resample first)")
    lower, upper = keogh_envelope(q, window)
    # distance from each t[i] to the axis-aligned box [lower[i], upper[i]]
    clamped = np.clip(t, lower, upper)
    return float(np.sum(np.sqrt(np.sum((t - clamped) ** 2, axis=1))))
