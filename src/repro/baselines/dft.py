"""The DFT baseline [46], extended to threshold DTW search as the paper did.

DFT (Distributed Trajectory similarity search, Xie et al., PVLDB 2017)
indexes trajectory **segments** in R-trees and filters with per-query
**bitmaps of pruned trajectory ids**.  The structural properties the DITA
paper criticizes — and which this reimplementation reproduces — are:

* **non-clustered index**: segments are indexed apart from the trajectory
  data, so candidate segments must be mapped back to trajectory ids and
  re-fetched for verification;
* **filter/verify barrier**: every partition returns its bitmap to the
  master, which merges them and broadcasts the merged bitmap before any
  verification can start — we charge that synchronization to the simulated
  cluster (bitmap bytes over the network, plus the master merge step);
* **memory-hungry bitmaps**: one bitmap of dissimilar ids per query
  (``bitmap_bytes`` reports the modeled footprint, which is what blows up
  in the paper's join experiment).

Filtering is sound for DTW/Fréchet: the first (last) segment's MBR covers
``t1`` (``tm``), so a trajectory with
``MinDist(q1, seg_first) + MinDist(qn, seg_last) > tau`` cannot align its
endpoints within ``tau``.  The filter *is* that endpoint test, so a
distance whose adapter declares no ``endpoint_bound`` is refused.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..cluster.clock import Stopwatch
from ..cluster.simulator import Cluster
from ..core.adapters import IndexAdapter, get_adapter
from ..core.bounds import endpoint_bound
from ..geometry.mbr import MBR
from ..spatial.rtree import RTree
from ..spatial.str_pack import str_partition
from ..trajectory.trajectory import Trajectory

Match = Tuple[Trajectory, float]


def segment_trajectory(t: Trajectory, max_segment_points: int = 8) -> List[MBR]:
    """Split a trajectory into consecutive runs of up to
    ``max_segment_points`` points and return their MBRs (DFT's indexing
    unit)."""
    pts = t.points
    out: List[MBR] = []
    for start in range(0, pts.shape[0], max_segment_points):
        out.append(MBR.of_points(pts[start : start + max_segment_points]))
    return out


class DFTEngine:
    """Segment R-tree index with bitmap-based filtering."""

    def __init__(
        self,
        dataset: Iterable[Trajectory],
        n_partitions: int = 16,
        distance: "str | IndexAdapter" = "dtw",
        cluster: Optional[Cluster] = None,
        max_segment_points: int = 8,
        rtree_fanout: int = 16,
    ) -> None:
        self.adapter = get_adapter(distance) if isinstance(distance, str) else distance
        if self.adapter.endpoint_bound is None:
            raise ValueError(
                f"DFT filters on first/last points, which {self.adapter.distance_name} does not pin"
            )
        trajs = list(dataset)
        if not trajs:
            raise ValueError("cannot index an empty dataset")
        self.max_segment_points = max_segment_points
        watch = Stopwatch()
        # DFT partitions segments by spatial location of their centers; we
        # partition trajectories by first point (its closest analogue that
        # keeps trajectories whole for verification)
        firsts = np.asarray([t.first for t in trajs])
        tiles = str_partition(firsts, n_partitions)
        self.partitions: Dict[int, List[Trajectory]] = {}
        self._by_id: Dict[int, Trajectory] = {}
        self._first_seg: Dict[int, RTree] = {}
        self._last_seg: Dict[int, RTree] = {}
        self._segments = 0
        for pid, idx in enumerate(tiles):
            part = [trajs[i] for i in idx.tolist()]
            self.partitions[pid] = part
            first_entries = []
            last_entries = []
            for t in part:
                segs = segment_trajectory(t, max_segment_points)
                self._segments += len(segs)
                first_entries.append((segs[0], t.traj_id))
                last_entries.append((segs[-1], t.traj_id))
                self._by_id[t.traj_id] = t
            self._first_seg[pid] = RTree(first_entries, max_entries=rtree_fanout)
            self._last_seg[pid] = RTree(last_entries, max_entries=rtree_fanout)
        self.build_time_s = watch.elapsed()
        self.cluster = cluster or Cluster(n_workers=min(16, max(1, len(self.partitions))))
        self.cluster.place_partitions(sorted(self.partitions))
        #: modeled bitmap memory of the last query batch (bytes)
        self.last_bitmap_bytes = 0

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions.values())

    # ------------------------------------------------------------------ #

    def _partition_bitmap(self, pid: int, query: Trajectory, tau: float) -> Set[int]:
        """Ids in partition ``pid`` that *survive* the segment filter."""
        df = {
            tid: mbr.min_dist_point(query.first)
            for mbr, tid in self._first_seg[pid].search_min_dist(query.first, tau)
        }
        if not df:
            return set()
        dl = {
            tid: mbr.min_dist_point(query.last)
            for mbr, tid in self._last_seg[pid].search_min_dist(query.last, tau)
        }
        tids = [tid for tid in df if tid in dl]
        q_is_point = len(query) == 1
        bound = endpoint_bound(
            self.adapter.endpoint_bound,
            [df[tid] for tid in tids],
            [dl[tid] for tid in tids],
            [q_is_point and len(self._by_id[tid]) == 1 for tid in tids],
        )
        return {tid for tid, b in zip(tids, bound.tolist()) if b <= tau}

    def search(self, query: Trajectory, tau: float) -> List[Match]:
        """Two-phase search with the master-side bitmap barrier."""
        # phase 1: every partition computes its bitmap (dissimilar ids are
        # the complement; we track survivors, the information is the same)
        survivors: Dict[int, Set[int]] = {}
        bitmap_bytes = 0
        for pid in self.partitions:
            ids = self.cluster.run_local(
                pid,
                lambda p=pid: self._partition_bitmap(p, query, tau),
                work=len(self.partitions[pid]),
            )
            survivors[pid] = ids
            # a roaring-style bitmap over the partition's id universe
            bitmap_bytes += max(64, len(self.partitions[pid]) // 8)
        # barrier: bitmaps travel to the master (partition -1 == worker 0),
        # are merged, and the merged bitmap is broadcast back
        master_pid = sorted(self.partitions)[0]
        for pid in self.partitions:
            self.cluster.ship(pid, master_pid, max(64, len(self.partitions[pid]) // 8))
        for pid in self.partitions:
            self.cluster.ship(master_pid, pid, bitmap_bytes)
        self.last_bitmap_bytes = bitmap_bytes
        # phase 2: verification of survivors
        matches: List[Match] = []
        for pid, ids in survivors.items():
            if not ids:
                continue
            local = self.cluster.run_local(
                pid, lambda p=pid, s=ids: self._verify(p, s, query, tau), work=len(ids)
            )
            matches.extend(local)
        return matches

    def _verify(self, pid: int, ids: Set[int], query: Trajectory, tau: float) -> List[Match]:
        trajs = [self._by_id[tid] for tid in ids]
        dists = self.adapter.exact_batch(
            [t.points for t in trajs], [query.points] * len(trajs), [tau] * len(trajs)
        )
        return [(t, d) for t, d in zip(trajs, dists) if d <= tau]

    def search_ids(self, query: Trajectory, tau: float) -> List[int]:
        return sorted(t.traj_id for t, _ in self.search(query, tau))

    def count_candidates(self, query: Trajectory, tau: float) -> int:
        return sum(
            len(self._partition_bitmap(pid, query, tau)) for pid in self.partitions
        )

    def index_size_bytes(self) -> Tuple[int, int]:
        """(global, local): DFT's local index is much larger than DITA's
        because every segment is an R-tree entry."""
        global_size = len(self.partitions) * (2 * 16 * 2 + 16)
        per_entry = 2 * 16 * 2 + 16
        return global_size, self._segments * per_entry

    def estimated_join_bitmap_bytes(self, n_queries: int) -> int:
        """The paper's Section 7.2.2 argument: one bitmap per query makes a
        join over n queries consume ~n * bitmap bytes on the master."""
        per_query = sum(max(64, len(p) // 8) for p in self.partitions.values())
        return per_query * n_queries
