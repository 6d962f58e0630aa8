"""The Simba baseline [47], extended to trajectories as the paper did.

Simba is a general spatial analytics system: it indexes *points* with
R-trees.  The paper adapts it by indexing each trajectory's **first point**
only; a search finds trajectories whose first point is within ``tau`` of
the query's first point (sound for DTW/Fréchet since first points align),
then verifies candidates.  The key structural handicaps versus DITA, which
the evaluation attributes the gap to:

* a single-level filter (first point only) — many more candidates;
* partitioning by first point only — less locality, worse balance;
* no verification optimizations beyond double-direction computation;
* join ships whole partitions to partitions, not per-trajectory.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..cluster.clock import Stopwatch
from ..cluster.simulator import Cluster
from ..core.adapters import IndexAdapter, get_adapter
from ..geometry.mbr import MBR
from ..spatial.rtree import RTree
from ..spatial.str_pack import str_partition
from ..trajectory.trajectory import Trajectory

Match = Tuple[Trajectory, float]


class SimbaEngine:
    """First-point R-tree index over STR partitions (by first point only)."""

    def __init__(
        self,
        dataset: Iterable[Trajectory],
        n_partitions: int = 16,
        distance: "str | IndexAdapter" = "dtw",
        cluster: Optional[Cluster] = None,
        rtree_fanout: int = 16,
    ) -> None:
        self.adapter = get_adapter(distance) if isinstance(distance, str) else distance
        if self.adapter.endpoint_bound is None:
            raise ValueError(
                f"Simba filters on first points, which {self.adapter.distance_name} does not pin"
            )
        trajs = list(dataset)
        if not trajs:
            raise ValueError("cannot index an empty dataset")
        watch = Stopwatch()
        firsts = np.asarray([t.first for t in trajs])
        tiles = str_partition(firsts, n_partitions)
        self.partitions: Dict[int, List[Trajectory]] = {}
        entries = []
        self._local_rtrees: Dict[int, RTree] = {}
        for pid, idx in enumerate(tiles):
            part = [trajs[i] for i in idx.tolist()]
            self.partitions[pid] = part
            mbr = MBR.of_points(firsts[idx])
            entries.append((mbr, pid))
            self._local_rtrees[pid] = RTree(
                [(MBR.of_point(t.first), t) for t in part], max_entries=rtree_fanout
            )
        self.global_rtree = RTree(entries, max_entries=rtree_fanout)
        self.build_time_s = watch.elapsed()
        self.cluster = cluster or Cluster(n_workers=min(16, max(1, len(self.partitions))))
        self.cluster.place_partitions(sorted(self.partitions))

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions.values())

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #

    def _local_search(self, pid: int, query: Trajectory, tau: float) -> List[Match]:
        hits = [t for _, t in self._local_rtrees[pid].search_min_dist(query.first, tau)]
        dists = self.adapter.exact_batch(
            [t.points for t in hits], [query.points] * len(hits), [tau] * len(hits)
        )
        return [(t, d) for t, d in zip(hits, dists) if d <= tau]

    def search(self, query: Trajectory, tau: float) -> List[Match]:
        relevant = [pid for _, pid in self.global_rtree.search_min_dist(query.first, tau)]
        matches: List[Match] = []
        for pid in sorted(relevant):
            local = self.cluster.run_local(
                pid,
                lambda p=pid: self._local_search(p, query, tau),
                work=len(self.partitions[pid]),
            )
            matches.extend(local)
        return matches

    def search_ids(self, query: Trajectory, tau: float) -> List[int]:
        return sorted(t.traj_id for t, _ in self.search(query, tau))

    def count_candidates(self, query: Trajectory, tau: float) -> int:
        relevant = [pid for _, pid in self.global_rtree.search_min_dist(query.first, tau)]
        return sum(
            len(self._local_rtrees[pid].search_min_dist(query.first, tau))
            for pid in relevant
        )

    # ------------------------------------------------------------------ #
    # join: partition-to-partition shipping
    # ------------------------------------------------------------------ #

    def join(self, other: "SimbaEngine", tau: float) -> List[Tuple[int, int, float]]:
        """For every partition pair whose first-point MBRs are within
        ``tau``, the whole right partition ships to the left one (Simba has
        no per-trajectory routing), then first-point filter + verify."""
        results: List[Tuple[int, int, float]] = []
        left_entries = self.global_rtree.all_entries()
        right_entries = other.global_rtree.all_entries()
        for l_mbr, l_pid in left_entries:
            for r_mbr, r_pid in right_entries:
                if l_mbr.min_dist_mbr(r_mbr) > tau:
                    continue
                r_part = other.partitions[r_pid]
                nbytes = sum(t.nbytes() for t in r_part)
                self.cluster.ship(
                    r_pid % self.cluster.n_workers, l_pid, nbytes
                )
                def scan_pair(r_part=r_part, l_pid=l_pid):
                    rtree = self._local_rtrees[l_pid]
                    pairs = [(t, q) for q in r_part for _, t in rtree.search_min_dist(q.first, tau)]
                    dists = self.adapter.exact_batch(
                        [t.points for t, _ in pairs], [q.points for _, q in pairs], [tau] * len(pairs)
                    )
                    results.extend(
                        (t.traj_id, q.traj_id, d) for (t, q), d in zip(pairs, dists) if d <= tau
                    )

                self.cluster.run_local(l_pid, scan_pair, work=len(r_part))
        return results

    def index_size_bytes(self) -> Tuple[int, int]:
        """(global, local) index size estimate."""
        global_size = len(self.partitions) * (2 * 16 * 2 + 16)
        local = sum(len(p) * (2 * 16 * 2 + 16) for p in self.partitions.values())
        return global_size, local
