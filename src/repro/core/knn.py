"""KNN trajectory search and join (the paper's stated future work).

The conclusion of the paper plans "KNN-based search and join in DITA"; this
module delivers them on top of the threshold machinery via the classic
bound-refinement scheme:

1. **seed** an upper bound ``tau0`` with exact distances to a small set of
   likely-near trajectories (the partition whose first-point MBR is nearest
   to the query's first point);
2. run a **threshold search** at the current ``tau``; if it yields at least
   ``k`` results, the k-th smallest distance is the answer radius;
3. otherwise **double** ``tau`` and repeat — every iteration reuses the
   index, and the filter bounds guarantee no near neighbour is missed.

The result is exact: identical to brute-force top-k under the engine's
distance function (ties broken by trajectory id).  Candidate pools flow as
``(dataset, row)`` pairs over the partitions' columnar blocks; only the
final ``k`` winners are materialized as ``Trajectory`` views.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from ..storage.columnar import ColumnarDataset
from ..trajectory.trajectory import Trajectory
from .numerics import slack

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import DITAEngine

#: one result: (trajectory, distance)
Neighbour = Tuple[Trajectory, float]

#: one pool member: (its partition's columnar dataset, its row)
PoolEntry = Tuple[ColumnarDataset, int]


def _full_pool(engine: "DITAEngine") -> List[PoolEntry]:
    """Every alive (dataset, row) across the engine's partitions, by pid."""
    pool: List[PoolEntry] = []
    for pid in engine.partition_pids():
        part = engine.partition(pid)
        pool.extend((part, r) for r in range(part.n_rows))
    return pool


def _exact_top_k(
    engine: "DITAEngine", query: Trajectory, k: int, pool: Sequence[PoolEntry]
) -> List[Neighbour]:
    """The ``k`` nearest pool members by (distance, id), exact.

    Once ``k`` seeds are in hand, every further trajectory is measured with
    the adapter's *threshold* kernel at the current k-th distance, so the
    early-abandoning sweep rejects non-contenders after touching only a
    fraction of the DP matrix — same answers as computing every distance in
    full, identical tie-breaking.

    Boundary semantics: the threshold kernels are *closed* at ``tau``
    (``value if value <= tau else inf``), but their float assembly differs
    from the full-distance kernels' at the ULP level, so a trajectory whose
    true distance exactly equals the current k-th distance could come back
    as ``inf`` and lose a ``(d, id)`` tie it should win.  The sweep
    therefore runs at ``slack(kth)`` and every admitted candidate's
    distance is re-derived with the canonical full kernel before the
    tie-break — the answer is bit-for-bit the brute-force top-k.
    """
    dist = engine.adapter.distance()
    exact = engine.adapter.exact
    # max-heap via (-d, -id); ids are unique so the (part, row) payload is
    # never compared
    heap: List[Tuple[float, int, ColumnarDataset, int]] = []
    for part, row in pool:
        tid = int(part.traj_ids[row])
        pts = part.points(row)
        if len(heap) < k:
            d = dist.compute(pts, query.points)
            heapq.heappush(heap, (-d, -tid, part, row))
            continue
        neg_d, neg_id = heap[0][0], heap[0][1]
        d = exact(pts, query.points, slack(-neg_d))
        if not math.isfinite(d):
            continue
        d = dist.compute(pts, query.points)
        if (d, tid) < (-neg_d, -neg_id):
            heapq.heapreplace(heap, (-d, -tid, part, row))
    out = [(part.view(row), -neg_d) for neg_d, _, part, row in heap]
    out.sort(key=lambda m: (m[1], m[0].traj_id))
    return out


def _seed_tau(engine: "DITAEngine", query: Trajectory, k: int) -> Tuple[float, float]:
    """Bounds on the k-NN radius from exact distances to a capped sample of
    trajectories in the nearest partitions (by first point).

    Returns ``(tau_hi, tau_lo)``: the k-th smallest seed distance (a valid
    upper bound on the k-NN radius) and the smallest seed distance (the
    scale at which the progressive search starts).
    """
    # spend the exact-distance budget on the trajectories whose *first
    # points* are nearest the query's — similar trajectories share first
    # points, so this reliably captures near neighbours; ranking the whole
    # dataset by first-point gap is one vectorized pass over the columnar
    # summary arrays and avoids the trap of overlapping partition MBRs
    # hiding the nearest sub-bucket
    budget = max(4 * k, 32)
    pool: List[Tuple[int, ColumnarDataset, int]] = []  # (pid, dataset, row)
    firsts_parts: List[np.ndarray] = []
    for pid in engine.partition_pids():
        part = engine.partition(pid)
        pool.extend((pid, part, r) for r in range(part.n_rows))
        firsts_parts.append(part.firsts)
    if len(pool) < k:
        return math.inf, 0.0
    firsts = np.concatenate(firsts_parts, axis=0)
    gaps = np.sqrt(np.sum((firsts - np.asarray(query.first)[None, :]) ** 2, axis=1))
    order = np.argsort(gaps, kind="stable")[:budget]
    chosen = [pool[int(i)] for i in order]
    # the exact-distance seeding runs on the partitions that own the
    # seeds: one "knn.seed" task per involved partition, referencing the
    # seed trajectories by row id — the executing side (inline searcher
    # or pool worker) reads points and ids out of its own block view
    from ..cluster.tasks import TaskSpec
    from .engine import _EngineTask, _LocalResolver

    per_pid: dict = {}
    for pid, part, row in chosen:
        per_pid.setdefault(pid, []).append(row)
    seed_dists: List[Tuple[float, int]] = []
    resolver = _LocalResolver(engine)
    tasks: List = []
    for pid in sorted(per_pid):
        rows = per_pid[pid]
        tasks.append(
            _EngineTask(
                spec=TaskSpec(
                    task_id=len(tasks),
                    kind="knn.seed",
                    side="L",
                    partition_id=pid,
                    payload=(query.points, tuple(int(r) for r in rows)),
                ),
                work=len(rows),
                tag="knn.seed",
                cluster_pid=pid,
            )
        )
    engine._run_tasks(tasks, resolver, lambda t, r: seed_dists.extend(r))
    if len(seed_dists) < k:
        return math.inf, 0.0
    seed_dists.sort()
    return seed_dists[k - 1][0], seed_dists[0][0]


def knn_search(engine: "DITAEngine", query: Trajectory, k: int) -> List[Neighbour]:
    """The ``k`` trajectories nearest to ``query`` under the engine's
    distance, sorted by (distance, id).  Exact.

    Boundary semantics (the serving-layer contract):

    * ``k == 0`` returns ``[]`` (a negative ``k`` raises ``ValueError``);
    * ``k >= len(engine)`` returns the whole dataset, ranked;
    * ties — including many trajectories exactly at the k-th distance —
      are broken by ``(distance, trajectory id)``, so the answer is a
      deterministic function of the logical dataset, never of sweep
      internals (tau schedule, partition order, adapter batching).

    Pending streamed writes are folded in first (the same flush-on-read
    every other query entry point performs), so the answer reflects every
    buffered ``append_trajectory``/``extend_trajectory``/
    ``remove_trajectory`` — not the stale base image.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    engine._check_query([], [query])
    # fold pending deltas BEFORE seeding: _seed_tau and _full_pool read
    # partition blocks directly, and without this sync a buffered append
    # was invisible to them (undercounting results when k exceeds the
    # stale base size) while a buffered remove could poison tau_hi
    engine._sync_streams()
    if k == 0:
        return []
    with engine._job("knn", k=k):
        result, rounds, fallback = _knn_search_inner(engine, query, k)
    if engine.metrics is not None:
        engine.metrics.counter("knn.jobs")
        engine.metrics.counter("knn.rounds", rounds)
        if fallback:
            engine.metrics.counter("knn.brute_force_fallbacks")
    return result


def _knn_search_inner(
    engine: "DITAEngine", query: Trajectory, k: int
) -> Tuple[List[Neighbour], int, bool]:
    """The progressive-widening loop; returns (result, rounds, fallback)."""
    n_total = len(engine)
    k = min(k, n_total)
    tau_hi, tau_lo = _seed_tau(engine, query, k)
    if not math.isfinite(tau_hi):
        # degenerate fallback: tiny dataset; rank everything
        return _exact_top_k(engine, query, k, _full_pool(engine)), 0, True
    # progressive widening: start near the 1-NN scale (never more than a
    # few doublings below tau_hi) and double toward the guaranteed-
    # sufficient radius tau_hi (the k-th seed distance) — cheap early
    # rounds usually finish before the expensive wide search is needed
    tau = min(max(tau_lo, tau_hi / 256, 1e-12), tau_hi)
    rounds = 0
    for _ in range(128):  # tau doubles each round; bounded by construction
        rounds += 1
        matches = engine.search_batch_rows([query], [tau])[0]
        if len(matches) >= k:
            scored = sorted(
                (
                    (d, engine.partition(pid).id_of(row), pid, row)
                    for pid, row, d in matches
                ),
                key=lambda e: (e[0], e[1]),
            )[:k]
            return (
                [(engine.partition(pid).view(row), d) for d, _, pid, row in scored],
                rounds,
                False,
            )
        if tau >= tau_hi:
            # the k seeds lie within tau_hi, so the search at tau_hi should
            # have returned >= k; float rounding at the boundary can in
            # principle drop a seed, so nudge once then fall back to brute
            # force (correctness over cleverness)
            if tau_hi > 0 and tau <= tau_hi * (1 + 1e-9):
                tau = tau_hi * (1 + 1e-6)
                continue
            break
        tau = min(tau * 2, tau_hi)
    return _exact_top_k(engine, query, k, _full_pool(engine)), rounds, True


def knn_join(left_engine, right_engine, k: int) -> List[Tuple[int, int, float]]:
    """For every trajectory of ``right_engine``'s dataset, its ``k`` nearest
    neighbours in ``left_engine``.  Returns (left id, right id, distance)
    triples sorted by (right id, distance, left id).

    ``k == 0`` returns ``[]``; a negative ``k`` raises ``ValueError``.
    Both sides fold their pending streamed writes in first (the right
    side's partitions are iterated directly below, and the left side is
    synced by the per-query :func:`knn_search` calls).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return []
    right_engine._sync_streams()
    out: List[Tuple[int, int, float]] = []
    for pid in right_engine.partition_pids():
        part = right_engine.partition(pid)
        for q in part:
            for t, d in knn_search(left_engine, q, k):
                out.append((t.traj_id, q.traj_id, d))
    out.sort(key=lambda r: (r[1], r[2], r[0]))
    return out
