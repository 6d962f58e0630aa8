"""KNN trajectory search and join (the paper's stated future work).

The conclusion of the paper plans "KNN-based search and join in DITA"; this
module delivers them as a best-first distributed top-k over the threshold
machinery's own bounds:

1. the coordinator **orders the partitions** by the global index's
   endpoint bound to the query and runs them in waves of 1, 2, 4, 8 ...
   ``search`` tasks asking for ``k`` rows, each carrying the k-th
   distance known when its wave started (the caller's ``tau`` at first,
   ``inf`` unless capped);
2. a partition answers with its **local top-k** within that distance
   (:func:`repro.core.search.search_rows` with ``k`` set: candidates in
   lower-bound order through the staged verifier, stopping at the first
   bound beyond the tightening k-th distance);
3. the coordinator **merges** the answers by ``(distance, id)`` and stops
   at the first partition whose bound exceeds the k-th distance — that
   partition and every later one is never scheduled, so a lazily opened
   store never loads them.

The result is exact: identical to brute-force top-k under the engine's
distance function (ties broken by trajectory id).  Rows flow as
``(distance, id, partition, row)``; only the final ``k`` winners are
materialized as ``Trajectory`` views.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Tuple

from ..trajectory.trajectory import Trajectory
from .numerics import slack
from .search import SearchStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import DITAEngine

#: one result: (trajectory, distance)
Neighbour = Tuple[Trajectory, float]


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"k must be a non-negative int, got {k!r}")


def knn_search(
    engine: "DITAEngine", query: Trajectory, k: int, tau: float = math.inf
) -> List[Neighbour]:
    """The ``k`` trajectories nearest to ``query`` under the engine's
    distance among those within ``tau``, sorted by (distance, id).  Exact.
    A finite ``tau`` is the capped select's ``WHERE f(t, q) <= tau ORDER
    BY distance LIMIT k``: partitions whose bound exceeds it are never
    scheduled.

    Boundary semantics (the serving-layer contract):

    * ``k == 0`` returns ``[]`` (a negative or non-``int`` ``k`` raises
      ``ValueError``), and so does an engine with no rows left;
    * ``k >= len(engine)`` returns the whole dataset, ranked;
    * ties — including many trajectories exactly at the k-th distance —
      are broken by ``(distance, trajectory id)``, so the answer is a
      deterministic function of the logical dataset, never of the wave
      schedule, the partition order or the chunking; every distance is the
      adapter's ``exact_batch`` value, the one ``search`` reports.

    Pending streamed writes are folded in first (the same flush-on-read
    every other query entry point performs), so the answer reflects every
    buffered ``append_trajectory``/``extend_trajectory``/
    ``remove_trajectory`` — not the stale base image.
    """
    from ..cluster.tasks import TaskSpec
    from .engine import _EngineTask, _LocalResolver

    _check_k(k)
    engine._check_query([tau], [query])
    engine._sync_streams()
    want = min(k, len(engine))
    if want == 0:
        return []
    order = engine.global_index.nearest_partitions(query.points, engine.adapter)
    #: the nearest found so far, sorted, at most ``want`` long
    best: List[Tuple[float, int, int, int]] = []  # (distance, id, pid, row)
    stats = SearchStats() if engine.metrics is not None else None

    def on_result(task: _EngineTask, result) -> None:
        (nearest,), task_stats = result
        pid = task.spec.partition_id
        best[:] = sorted(best + [(d, tid, pid, row) for row, d, tid in nearest])[:want]
        if task_stats is not None:
            stats.merge(task_stats[0])

    resolver = _LocalResolver(engine)
    at = waves = 0
    with engine._job("knn", k=k):
        while at < len(order):
            kth = best[-1][0] if len(best) == want else tau
            # sorted by bound, so an empty wave means every later one is too
            wave = [pid for bound, pid in order[at : at + (1 << waves)] if bound <= slack(kth)]
            if not wave:
                break
            tasks = [
                _EngineTask(
                    spec=TaskSpec(
                        task_id=i,
                        kind="search",
                        side="L",
                        partition_id=pid,
                        payload=((query.points,), (kth,), want, stats is not None),
                    ),
                    work=engine.global_index.meta(pid).size,
                    tag="knn.topk",
                    cluster_pid=pid,
                )
                for i, pid in enumerate(wave)
            ]
            engine._run_tasks(tasks, resolver, on_result)
            at += len(wave)
            waves += 1
    if engine.metrics is not None:
        engine.metrics.counter("knn.jobs")
        engine.metrics.counter("knn.waves", waves)
        engine.metrics.counter("knn.tasks", at)
        engine.metrics.counter("knn.partitions_skipped", len(order) - at)
        engine.metrics.absorb("knn.filter", stats.filter)
        engine.metrics.absorb("knn.verify", stats.verify)
    return [(engine.partition(pid).view(row), d) for d, _, pid, row in best]


def knn_join(left_engine, right_engine, k: int) -> List[Tuple[int, int, float]]:
    """For every trajectory of ``right_engine``'s dataset, its ``k`` nearest
    neighbours in ``left_engine``.  Returns (left id, right id, distance)
    triples sorted by (right id, distance, left id).

    ``k == 0`` returns ``[]``; a negative or non-``int`` ``k`` raises
    ``ValueError``.  Both sides fold their pending streamed writes in first
    (the right side's partitions are iterated directly below, and the left
    side is synced by the per-query :func:`knn_search` calls).
    """
    _check_k(k)
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
