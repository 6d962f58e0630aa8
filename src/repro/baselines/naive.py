"""The Naive baseline: distributed brute force, no index.

Matches the paper's ``Naive`` method: trajectories are randomly
partitioned; a search scans *every* partition and verifies *every*
trajectory with the threshold-constrained (double-direction) distance —
the only optimization Naive shares with DITA.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..cluster.clock import Stopwatch
from ..cluster.simulator import Cluster
from ..core.adapters import IndexAdapter, get_adapter
from ..trajectory.trajectory import Trajectory
from ..cluster.partitioner import RandomPartitioner

Match = Tuple[Trajectory, float]


class NaiveEngine:
    """Brute-force scan over randomly partitioned data."""

    def __init__(
        self,
        dataset: Iterable[Trajectory],
        n_partitions: int = 16,
        distance: "str | IndexAdapter" = "dtw",
        cluster: Optional[Cluster] = None,
        seed: int = 0,
    ) -> None:
        self.adapter = get_adapter(distance) if isinstance(distance, str) else distance
        trajs = list(dataset)
        if not trajs:
            raise ValueError("cannot build over an empty dataset")
        watch = Stopwatch()
        parts = RandomPartitioner(n_partitions, seed).partition(trajs)
        self.partitions = {pid: part for pid, part in enumerate(parts)}
        self.build_time_s = watch.elapsed()
        self.cluster = cluster or Cluster(n_workers=min(16, max(1, len(self.partitions))))
        self.cluster.place_partitions(sorted(self.partitions))

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions.values())

    # ------------------------------------------------------------------ #

    def _scan_partition(self, part: List[Trajectory], query: Trajectory, tau: float) -> List[Match]:
        out: List[Match] = []
        for t in part:
            d = self.adapter.exact(t.points, query.points, tau)
            if d <= tau:
                out.append((t, d))
        return out

    def search(self, query: Trajectory, tau: float) -> List[Match]:
        """Scan every partition (no global pruning)."""
        matches: List[Match] = []
        for pid, part in self.partitions.items():
            local = self.cluster.run_local(
                pid, lambda p=part: self._scan_partition(p, query, tau), work=len(part)
            )
            matches.extend(local)
        return matches

    def search_ids(self, query: Trajectory, tau: float) -> List[int]:
        return sorted(t.traj_id for t, _ in self.search(query, tau))

    def count_candidates(self, query: Trajectory, tau: float) -> int:
        """Naive has no filter: every trajectory is a candidate."""
        return len(self)

    def join(self, other: "NaiveEngine", tau: float) -> List[Tuple[int, int, float]]:
        """All-pairs nested-loop join: every partition of ``other`` ships to
        every partition of self (the quadratic shuffle that makes Naive
        infeasible at the paper's scale)."""
        results: List[Tuple[int, int, float]] = []
        for pid, part in self.partitions.items():
            for qid, qpart in other.partitions.items():
                nbytes = sum(t.nbytes() for t in qpart)
                self.cluster.ship(qid % self.cluster.n_workers, pid, nbytes)

                def scan_pair(part=part, qpart=qpart):
                    for q in qpart:
                        for t in part:
                            d = self.adapter.exact(t.points, q.points, tau)
                            if d <= tau:
                                results.append((t.traj_id, q.traj_id, d))

                self.cluster.run_local(pid, scan_pair, work=len(part) * len(qpart))
        return results
