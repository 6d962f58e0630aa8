"""Distributed trajectory similarity join (Section 6, Algorithm 3).

The planner builds the partition-pair bi-graph with sampled ``trans``/
``comp`` weights, orients it greedily and applies division-based load
balancing; the executor then ships only trajectories that have candidates
on the other side and runs one local join per chunk on the receiver,
charging compute and network to the simulated cluster.

The whole path is row-native: senders are selected as row arrays over each
partition's columnar dataset (one vectorized endpoint-distance filter per
edge), a chunk's shipped rows are joined by :func:`join_rows`, and result
ids are read straight from the id columns — no ``Trajectory`` object is
materialized anywhere in the join.

Where the adapter declares an endpoint bound (DTW, Fréchet) a chunk walks
no trie: its *flat plan* is one ``(shipped rows x receiving rows)``
endpoint-bound mask, one filter pass over the pairs it keeps and one exact
stage (docs/PERFORMANCE.md, "Flat join plan").  The other distances take
their candidates from the receiver's trie walk.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..cluster.simulator import Cluster
from ..cluster.tasks import TaskSpec
from ..kernels.batch import TrajectoryBlock
from ..obs import MetricsRegistry
from ..storage.columnar import ColumnarDataset
from .adapters import IndexAdapter
from .bounds import endpoint_bound
from .config import DITAConfig
from .costmodel import BiEdge, Node, OrientationPlan, plan_join
from .execution import EngineTask, subdivide_task
from .global_index import GlobalIndex, min_dist_boxes
from .numerics import slack
from .trie import FilterStats

#: join output: (left trajectory id, right trajectory id, distance)
JoinPair = Tuple[int, int, float]

#: share of a sending partition sampled to estimate a bi-graph edge's
#: weights (Section 6.2)
JOIN_SAMPLE_FRACTION = 0.1


def _relevant_rows(
    part: ColumnarDataset, rows: np.ndarray, meta, tau: float, adapter: IndexAdapter
) -> np.ndarray:
    """Trajectory-to-partition relevance, vectorized: the subset of ``rows``
    (order preserved) that may have matches in the partition described by
    ``meta`` — those the adapter's endpoint bound does not rule out."""
    if adapter.endpoint_bound is None or rows.shape[0] == 0:
        return rows
    bound = endpoint_bound(
        adapter.endpoint_bound,
        meta.mbr_first.min_dist_points(part.firsts[rows]),
        meta.mbr_last.min_dist_points(part.lasts[rows]),
        (part.lengths[rows] == 1) & (meta.min_len == 1),
    )
    return rows[bound <= slack(tau)]


def relevant_pairs(
    left: GlobalIndex, right: GlobalIndex, tau: float, adapter: IndexAdapter
) -> np.ndarray:
    """The ``(len(left), len(right))`` mask of partition pairs whose MBRs
    the adapter's endpoint bound does not rule out."""
    if adapter.endpoint_bound is None:
        return np.ones((len(left), len(right)), dtype=bool)
    bound = endpoint_bound(
        adapter.endpoint_bound,
        min_dist_boxes(left.first_low, left.first_high, right.first_low, right.first_high),
        min_dist_boxes(left.last_low, left.last_high, right.last_low, right.last_high),
        left.one_point[:, None] & right.one_point[None],
    )
    return bound <= slack(tau)


def _point_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``(len(a), len(b))`` Euclidean distances between two point
    arrays, one coordinate axis at a time."""
    sq = None
    for axis in range(a.shape[1]):
        gap = np.subtract.outer(a[:, axis], b[:, axis])
        np.multiply(gap, gap, out=gap)
        sq = gap if sq is None else np.add(sq, gap, out=sq)
    return np.sqrt(sq)


def candidate_pairs(
    engine,
    pid: int,
    adapter: IndexAdapter,
    senders: ColumnarDataset,
    rows: np.ndarray,
    tau: float,
    floor: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, FilterStats]:
    """The candidate pairs of the shipped ``rows`` of ``senders`` in
    partition ``pid`` of ``engine``: ``(shipped, received, stats)``, pair
    ``i`` being ``rows[shipped[i]]`` and receiving row ``received[i]``,
    ordered by shipped row, then as the candidate source gives them.

    Where the adapter declares an endpoint bound the source is every pair
    it keeps — one ``(len(rows), receiving rows)`` mask over the two
    partitions' first and last points, no trie — and ``stats`` counts them
    as candidates.  Otherwise it is the receiver's trie walk, and ``stats``
    its nodes and candidates.  With ``floor`` (one key per shipped row, a
    self-join's diagonal edge) a pair whose receiving id does not exceed
    its shipped row's key is dropped, before the flat plan's count and
    after the walk's.
    """
    stats = FilterStats()
    recv = engine.partition(pid)
    ids = recv.traj_ids
    if adapter.endpoint_bound is not None:
        keep = endpoint_bound(
            adapter.endpoint_bound,
            _point_gaps(senders.firsts[rows], recv.firsts),
            _point_gaps(senders.lasts[rows], recv.lasts),
            (senders.lengths[rows] == 1)[:, None] & (recv.lengths == 1)[None, :],
        ) <= slack(tau)
        if floor is not None:
            keep &= ids[None, :] > floor[:, None]
        shipped, received = np.nonzero(keep)
        stats.candidates = int(shipped.shape[0])
        return shipped, received, stats
    n = int(rows.shape[0])
    found = engine.trie(pid).filter_candidates_batch(
        [senders.points(r) for r in rows.tolist()], [tau] * n, adapter, [stats] * n
    )
    if floor is not None:
        found = [c[ids[c] > key] for c, key in zip(found, floor)]
    shipped = np.repeat(np.arange(n, dtype=np.int64), [c.shape[0] for c in found])
    return shipped, np.concatenate(found) if n else np.empty(0, dtype=np.int64), stats


def join_rows(
    engine,
    pid: int,
    adapter: IndexAdapter,
    senders: ColumnarDataset,
    rows: np.ndarray,
    send_block: TrajectoryBlock,
    send_rows: np.ndarray,
    tau: float,
    keys: np.ndarray,
    floor: bool,
    counts: MetricsRegistry,
) -> List[List[Tuple[int, float]]]:
    """One join chunk's local step on partition ``pid`` of ``engine`` (the
    receiver), for the shipped ``rows`` of ``senders``, whose artifacts are
    rows ``send_rows`` of ``send_block``: :func:`candidate_pairs`, one
    :meth:`~repro.core.verify.Verifier.filter_pairs` pass over every pair
    of the chunk, one :meth:`~repro.core.verify.Verifier.exact_rows` stage.
    Returns, per shipped row, its accepted ``(receiving row, distance)``
    pairs in candidate order, and counts the stages into ``counts``
    (``filter.*`` from the candidate source, ``verify.*``).

    ``keys`` (one per shipped row) fixes each pair's exact-stage order:
    ``exact(shipped, received)`` where the receiving id exceeds the key,
    ``exact(received, shipped)`` otherwise; with ``floor`` the pairs that
    are not so ordered are dropped before any filter (a self-join's
    diagonal edge, whose keys are the shipped ids).
    """
    verifier = engine.verifier
    shipped, received, stats = candidate_pairs(
        engine, pid, adapter, senders, rows, tau, keys if floor else None
    )
    counts.counter("filter.nodes_visited", stats.nodes_visited)
    counts.counter("filter.nodes_pruned", stats.nodes_pruned)
    counts.counter("filter.candidates", stats.candidates)
    kept = verifier.filter_pairs(
        engine.trie(pid).batch_block(), received, send_block, send_rows[shipped], tau, counts
    )
    shipped, received = shipped[kept], received[kept]
    per_row = np.split(received, np.searchsorted(shipped, np.arange(1, rows.shape[0])))
    recv = engine.partition(pid)
    return verifier.exact_rows(
        recv,
        per_row,
        [senders.points(r) for r in rows.tolist()],
        [tau] * int(rows.shape[0]),
        counts,
        [recv.traj_ids[c] > key for c, key in zip(per_row, keys)],
    )


class JoinExecutor:
    """Plans and executes a distributed similarity join between two indexed
    engines (see :class:`repro.core.engine.DITAEngine`).

    With ``self_join`` (one engine on both sides) every unordered pair of
    distinct trajectories is verified once: the bi-graph keeps the
    partition pairs ``i <= j`` only, and on a diagonal edge ``(i, i)`` a
    sender is verified against the candidates with a greater id only.
    """

    def __init__(
        self,
        left_engine,
        right_engine,
        adapter: IndexAdapter,
        cluster: Cluster,
        config: Optional[DITAConfig] = None,
        self_join: bool = False,
    ) -> None:
        if self_join and left_engine is not right_engine:
            raise ValueError("a self-join runs one engine on both sides")
        self.left = left_engine
        self.right = right_engine
        self.adapter = adapter
        self.cluster = cluster
        self.config = config or left_engine.config
        self.self_join = self_join

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #

    def build_edges(self, tau: float, rng: Optional[np.random.Generator] = None) -> List[BiEdge]:
        """Sampled bi-graph construction (Section 6.2).

        Partition blocks are only touched *after* the pair-relevance check,
        so a store-backed engine never loads partitions the planner prunes
        for every counterpart."""
        rng = rng or np.random.default_rng(self.config.seed)
        left, right = self.left.global_index, self.right.global_index
        relevant = relevant_pairs(left, right, tau, self.adapter)
        if self.self_join:
            # the upper triangle: a pair of partitions meets on one edge
            relevant = np.triu(relevant | relevant.T)
        edges: List[BiEdge] = []
        # row-major: the nested left-then-right order the sampling RNG sees
        for i, j in np.argwhere(relevant).tolist():
            mt, mq = left.partitions_meta[i], right.partitions_meta[j]
            t_part = self.left.partition(mt.partition_id)
            q_part = self.right.partition(mq.partition_id)
            if self.self_join and i == j:
                # both directions of a diagonal edge are the same work
                trans_tq, comp_tq = self._estimate(t_part, mq, self.right, tau, rng, floor=True)
                trans_qt, comp_qt = trans_tq, comp_tq
            else:
                trans_tq, comp_tq = self._estimate(t_part, mq, self.right, tau, rng)
                trans_qt, comp_qt = self._estimate(q_part, mt, self.left, tau, rng)
            edges.append(
                BiEdge(
                    t_part=mt.partition_id,
                    q_part=mq.partition_id,
                    trans_tq=trans_tq,
                    comp_tq=comp_tq,
                    trans_qt=trans_qt,
                    comp_qt=comp_qt,
                )
            )
        return edges

    def _estimate(
        self,
        senders: ColumnarDataset,
        receiver_meta,
        receiver_engine,
        tau: float,
        rng: np.random.Generator,
        floor: bool = False,
    ) -> Tuple[float, float]:
        """Estimate (bytes shipped, candidate pairs) for one direction by
        sampling the sending partition: the sampled rows' pairs from
        :func:`candidate_pairs`, the chunk bodies' own source; with
        ``floor`` a sender counts only the candidates with a greater id (a
        self-join's diagonal edge)."""
        n = senders.n_rows
        if n == 0:
            return 0.0, 0.0
        k = max(1, int(round(n * JOIN_SAMPLE_FRACTION)))
        sampled = rng.choice(n, size=min(k, n), replace=False).astype(np.int64)
        scale = n / sampled.shape[0]
        kept = _relevant_rows(senders, sampled, receiver_meta, tau, self.adapter)
        trans = float(int(senders.lengths[kept].sum()) * senders.ndim * 8)
        comp = 0.0
        if kept.shape[0]:
            pairs = candidate_pairs(
                receiver_engine, receiver_meta.partition_id, self.adapter, senders, kept, tau,
                senders.traj_ids[kept] if floor else None,
            )[0]
            comp = float(pairs.shape[0])
        return trans * scale, comp * scale

    def plan(self, tau: float, use_orientation: bool = True, use_division: bool = True) -> OrientationPlan:
        edges = self.build_edges(tau)
        return plan_join(
            edges,
            lam=self.config.cost_lambda,
            use_orientation=use_orientation,
            use_division=use_division,
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def execute(
        self,
        tau: float,
        use_orientation: bool = True,
        use_division: bool = True,
    ) -> Tuple[List[JoinPair], MetricsRegistry]:
        """Run the join: ``(pairs, counts)``.  The pairs are (left id,
        right id, distance) triples, for a self-join (smaller id, greater
        id, distance), each pair once.  A pair's distance is
        ``exact(first, second)`` in that order, whichever side the plan
        shipped.

        ``counts`` is the join's registry: the plan's edges
        (``partition_pairs``), what shipped (``trajectories_shipped``,
        ``bytes_shipped``), the receivers' trie candidates
        (``candidate_pairs``), the pairs the staged verifier examined
        (``verified_pairs``, which on a self-join's diagonal edges leaves
        out the candidates below a sender's id floor), where the verifier
        resolved them (``verify.{pruned_by_mbr,pruned_by_cells,
        exact_computed,accepted}``) and the output (``result_pairs``).

        Each local-join task runs for real and its cost — priced by the
        cluster's measure hook, proportional to the task's trajectory count
        by default — is charged to the simulated worker executing it;
        shipping is charged through the cluster's network model.  With
        division balancing, a replicated partition's incoming tasks rotate
        across its replica workers.
        """
        # the joint cluster namespace of _cluster_pid: placement, lineage
        offset = self.left.n_partitions
        right_pids = [offset + pid for pid in self.right.partition_pids()]
        self.cluster.place_partitions(self.left.partition_pids() + right_pids)
        self.left.runtime.register_rebuilds(self.cluster)
        self.right.runtime.register_rebuilds(self.cluster, offset=offset)
        tracer = self.cluster.tracer
        counts = MetricsRegistry()
        plan = self.plan(tau, use_orientation, use_division)
        counts.counter("partition_pairs", len(plan.edges))
        results: List[JoinPair] = []
        # drive-side planning only (no cluster charges): per edge, select
        # the shipped rows and describe each division chunk as a
        # backend-neutral task (a shipped row's verification artifacts are
        # read out of its partition's block where the chunk runs)
        tasks: List[EngineTask] = []
        #: per task: (sending block, receiving engine, result order flipped)
        edge_of: List[Tuple[ColumnarDataset, object, bool]] = []
        for edge in plan.edges:
            if edge.direction == "tq":
                senders = self.left.partition(edge.t_part)
                send_node: Node = ("T", edge.t_part)
                recv_node: Node = ("Q", edge.q_part)
                recv_engine = self.right
                send_side, recv_side = "L", "R"
            else:
                senders = self.right.partition(edge.q_part)
                send_node = ("Q", edge.q_part)
                recv_node = ("T", edge.t_part)
                recv_engine = self.left
                send_side, recv_side = "R", "L"
            recv_meta = recv_engine.global_index.meta(recv_node[1])
            shipped = _relevant_rows(
                senders, senders.alive_rows(), recv_meta, tau, self.adapter
            )
            if shipped.shape[0] == 0:
                continue
            nbytes = int(senders.lengths[shipped].sum()) * senders.ndim * 8
            counts.counter("trajectories_shipped", int(shipped.shape[0]))
            counts.counter("bytes_shipped", nbytes)
            # the edge's one transfer is charged just before its first chunk
            ship: Optional[Tuple[int, int, int]] = (
                self._cluster_pid(send_node), self._cluster_pid(recv_node), nbytes
            )
            # division (Section 6.3): a replicated partition's workload is
            # split into n_replicas pieces executed on distinct workers,
            # counted from the receiver's home as it stands after the ship
            # (whose fault recovery may re-place partitions)
            n_replicas = max(1, plan.replica_count(recv_node))
            for slot in range(n_replicas):
                chunk = shipped[slot::n_replicas]
                if chunk.shape[0] == 0:
                    continue
                tasks.append(
                    EngineTask(
                        spec=TaskSpec(
                            task_id=len(tasks),
                            kind="join.chunk",
                            side=recv_side,
                            partition_id=recv_meta.partition_id,
                            payload=(
                                send_side,
                                send_node[1],
                                tuple(int(r) for r in chunk.tolist()),
                                tau,
                                self.self_join,
                            ),
                        ),
                        work=int(chunk.shape[0]),
                        tag="join.chunk",
                        cluster_pid=self._cluster_pid(recv_node),
                        replica=slot,
                        ship=ship,
                    )
                )
                ship = None
                edge_of.append((senders, recv_engine, send_side == "R"))

        def on_result(t: EngineTask, result) -> None:
            # rows in, rows out: map the receiver-side match rows and the
            # shipped sender rows to ids off the id columns
            match_lists, task_counts = result
            senders, recv_engine, flip = edge_of[t.spec.task_id]
            recv_ids = recv_engine.partition(t.spec.partition_id).traj_ids
            for r, matches in zip(t.spec.payload[2], match_lists):
                sid = int(senders.traj_ids[r])
                for recv_row, dist in matches:
                    rid = int(recv_ids[recv_row])
                    if self.self_join:
                        results.append((min(sid, rid), max(sid, rid), dist))
                    else:
                        results.append((rid, sid, dist) if flip else (sid, rid, dist))
            counts.counter("candidate_pairs", task_counts.value("filter.candidates"))
            counts.counter("verified_pairs", task_counts.value("verify.pairs"))
            for stage in ("pruned_by_mbr", "pruned_by_cells", "exact_computed", "accepted"):
                counts.counter(f"verify.{stage}", task_counts.value(f"verify.{stage}"))
            if tracer is not None:
                subdivide_task(tracer, task_counts)

        # one batch: under the process backend every chunk body of every
        # edge runs on the pool together, then the simulator sees the
        # sequential schedule — per edge one ship, then its chunks in order
        self.left.executor.run(tasks, self.left.resolver(self.right), on_result)
        # partitions tile the data and each edge has one direction, so a
        # pair is found once
        counts.counter("result_pairs", len(results))
        return results, counts

    def _cluster_pid(self, node: Node) -> int:
        """Map a bi-graph node to the cluster's partition-id namespace: the
        left engine keeps its ids, the right engine's are offset."""
        side, pid = node
        if side == "T":
            return pid
        return self.left.n_partitions + pid
