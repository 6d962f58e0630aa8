"""Trajectory clustering on top of DITA similarity joins.

The paper motivates DITA with downstream analytics — clustering [20, 24,
26, ...], car pooling, frequent-route navigation.  This module provides the
two building blocks those applications share, both driven by one
distributed similarity self-join:

* :func:`similarity_graph` — the graph whose edges are trajectory pairs
  within ``tau``;
* :class:`TrajectoryDBSCAN` — density-based clustering (DBSCAN with the
  trajectory distance as the metric), where the expensive
  epsilon-neighbourhood queries are answered by the join in one pass.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set

from ..core.engine import DITAEngine
from ..trajectory.trajectory import Trajectory

#: DBSCAN labels
NOISE = -1


def trajectories(engine: DITAEngine) -> Iterator[Trajectory]:
    """Every row the engine logically holds, through its read contract:
    pending writes folded in first, lazy store blocks loaded as reached."""
    engine.sync_for_read()
    for pid in engine.partition_pids():
        yield from engine.partition(pid)


def similarity_graph(engine: DITAEngine, tau: float) -> Dict[int, Set[int]]:
    """Adjacency sets of the tau-similarity graph (no self-loops).

    One distributed self-join produces every edge once; both ends record
    it, so the graph is symmetric.
    """
    adj: Dict[int, Set[int]] = defaultdict(set)
    for traj in trajectories(engine):
        adj[traj.traj_id]  # ensure isolated vertices exist
    for a, b, _ in engine.self_join(tau):
        adj[a].add(b)
        adj[b].add(a)
    return dict(adj)


@dataclass
class ClusteringResult:
    """Cluster labels by trajectory id; ``NOISE`` (= -1) marks outliers."""

    labels: Dict[int, int]

    @property
    def n_clusters(self) -> int:
        return len({c for c in self.labels.values() if c != NOISE})

    def members(self, cluster: int) -> List[int]:
        return sorted(tid for tid, c in self.labels.items() if c == cluster)

    def noise(self) -> List[int]:
        return self.members(NOISE)

    def clusters(self) -> List[List[int]]:
        """Member lists, largest first."""
        out = [self.members(c) for c in sorted(set(self.labels.values())) if c != NOISE]
        out.sort(key=len, reverse=True)
        return out


class TrajectoryDBSCAN:
    """DBSCAN over trajectories with a DITA-join neighbourhood oracle.

    ``eps`` is the similarity threshold (the ``tau`` of the join) and
    ``min_pts`` the core-point density (neighbours *including* the point
    itself, as in the classic formulation).
    """

    def __init__(self, eps: float, min_pts: int = 3) -> None:
        if eps < 0:
            raise ValueError("eps must be non-negative")
        if min_pts < 1:
            raise ValueError("min_pts must be >= 1")
        self.eps = eps
        self.min_pts = min_pts

    def fit(self, engine: DITAEngine) -> ClusteringResult:
        """Cluster the engine's dataset; one self-join answers every
        neighbourhood query."""
        adj = similarity_graph(engine, self.eps)
        labels: Dict[int, int] = {}
        core = {tid for tid, nbrs in adj.items() if len(nbrs) + 1 >= self.min_pts}
        cluster_id = 0
        for tid in sorted(adj):
            if tid in labels or tid not in core:
                continue
            # expand a new cluster from this core point
            labels[tid] = cluster_id
            frontier = [tid]
            while frontier:
                cur = frontier.pop()
                for nbr in adj[cur]:
                    if nbr not in labels:
                        labels[nbr] = cluster_id
                        if nbr in core:
                            frontier.append(nbr)
                    elif labels[nbr] == NOISE:
                        labels[nbr] = cluster_id  # border point adoption
            cluster_id += 1
        for tid in adj:
            labels.setdefault(tid, NOISE)
        return ClusteringResult(labels=labels)
