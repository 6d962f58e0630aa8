"""Centralized MBE baseline [42] (Appendix C).

Vlachos et al. split each trajectory into consecutive multidimensional
MBRs ("minimum bounding envelopes") and lower-bound DTW/Fréchet against
that piecewise envelope:

* DTW:  every query point must align with at least one trajectory point,
  so ``sum over q in Q of min over envelope MBRs of MinDist(q, MBR)``
  lower-bounds DTW;
* Fréchet: the max of those per-point minima lower-bounds it.

Trajectories whose bound exceeds ``tau`` are pruned; the survivors are the
"candidates" of Figure 17 and get verified exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..cluster.clock import Stopwatch
from ..core.adapters import IndexAdapter, get_adapter
from ..geometry.mbr import MBR
from ..trajectory.trajectory import Trajectory

Match = Tuple[Trajectory, float]


def envelope(t: Trajectory, points_per_box: int = 4) -> List[MBR]:
    """Piecewise bounding envelope: MBRs over runs of consecutive points."""
    if points_per_box < 1:
        raise ValueError("points_per_box must be >= 1")
    pts = t.points
    return [
        MBR.of_points(pts[i : i + points_per_box])
        for i in range(0, pts.shape[0], points_per_box)
    ]


class MBEIndex:
    """Centralized envelope index: linear scan of cheap lower bounds."""

    def __init__(
        self,
        dataset: Iterable[Trajectory],
        distance: "str | IndexAdapter" = "dtw",
        points_per_box: int = 4,
    ) -> None:
        self.adapter = get_adapter(distance) if isinstance(distance, str) else distance
        # the envelope bound is the cell bound's per-point argument
        if self.adapter.cell_bound is None:
            raise ValueError(f"the MBE bound is unsound for {self.adapter.distance_name}")
        self._aggregate = self.adapter.cell_bound
        trajs = list(dataset)
        if not trajs:
            raise ValueError("cannot index an empty dataset")
        watch = Stopwatch()
        self._trajs = trajs
        self._envelopes: Dict[int, List[MBR]] = {
            t.traj_id: envelope(t, points_per_box) for t in trajs
        }
        # stack every envelope box into contiguous (B, d) corner arrays with
        # CSR offsets per trajectory, so the linear scan of lower bounds is
        # one chunked matrix computation instead of a per-box Python loop
        lows: List[np.ndarray] = []
        highs: List[np.ndarray] = []
        lens = np.empty(len(trajs), dtype=np.int64)
        for i, t in enumerate(trajs):
            env = self._envelopes[t.traj_id]
            lens[i] = len(env)
            lows.extend(box.low for box in env)
            highs.extend(box.high for box in env)
        self._box_low = np.asarray(lows)
        self._box_high = np.asarray(highs)
        self._box_starts = np.zeros(len(trajs) + 1, dtype=np.int64)
        np.cumsum(lens, out=self._box_starts[1:])
        self.build_time_s = watch.elapsed()
        self._n_boxes = int(self._box_starts[-1])

    def __len__(self) -> int:
        return len(self._trajs)

    # ------------------------------------------------------------------ #

    def lower_bounds(self, q: np.ndarray, max_elems: int = 1 << 20) -> np.ndarray:
        """Envelope lower bound against every indexed trajectory at once.

        Chunked over whole trajectories so the (boxes, query points, d)
        intermediate never exceeds ``max_elems`` entries; each chunk clamps
        the query points into every box (the same formula as
        ``MBR.min_dist_point``) and reduces per trajectory with
        ``np.minimum.reduceat``.
        """
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        n_traj = len(self._trajs)
        nq, d = q.shape
        starts = self._box_starts
        bounds = np.empty(n_traj)
        lead = 0
        while lead < n_traj:
            tail = lead + 1
            boxes = int(starts[lead + 1] - starts[lead])
            while tail < n_traj and (boxes + int(starts[tail + 1] - starts[tail])) * nq * d <= max_elems:
                boxes += int(starts[tail + 1] - starts[tail])
                tail += 1
            b_lo = int(starts[lead])
            b_hi = b_lo + boxes
            clamped = np.clip(q[None, :, :], self._box_low[b_lo:b_hi, None, :], self._box_high[b_lo:b_hi, None, :])
            clamped -= q[None, :, :]
            dist = np.sqrt(np.sum(clamped * clamped, axis=2))
            local_starts = (starts[lead:tail] - b_lo).astype(np.int64)
            per_point = np.minimum.reduceat(dist, local_starts, axis=0)
            if self._aggregate == "sum":
                bounds[lead:tail] = per_point.sum(axis=1)
            else:
                bounds[lead:tail] = per_point.max(axis=1)
            lead = tail
        return bounds

    def candidates(self, query: Trajectory, tau: float) -> List[Trajectory]:
        """Trajectories whose envelope bound does not exceed ``tau``."""
        bounds = self.lower_bounds(query.points)
        return [t for t, lb in zip(self._trajs, bounds) if lb <= tau]

    def search(self, query: Trajectory, tau: float) -> List[Match]:
        cands = self.candidates(query, tau)
        dists = self.adapter.exact_batch(
            [t.points for t in cands], [query.points] * len(cands), [tau] * len(cands)
        )
        return [(t, d) for t, d in zip(cands, dists) if d <= tau]

    def search_ids(self, query: Trajectory, tau: float) -> List[int]:
        return sorted(t.traj_id for t, _ in self.search(query, tau))

    def count_candidates(self, query: Trajectory, tau: float) -> int:
        return len(self.candidates(query, tau))

    def join(self, other: "MBEIndex", tau: float) -> List[Tuple[int, int, float]]:
        """Nested-loop join with envelope pre-filter (what makes centralized
        joins crawl in the paper's Appendix C comparison)."""
        results: List[Tuple[int, int, float]] = []
        for q in other._trajs:
            for t, d in self.search(q, tau):
                results.append((t.traj_id, q.traj_id, d))
        return results

    def index_size_bytes(self) -> int:
        return self._n_boxes * 2 * 16
