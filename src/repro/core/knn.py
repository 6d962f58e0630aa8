"""KNN trajectory search and join (the paper's stated future work).

The conclusion of the paper plans "KNN-based search and join in DITA";
here they are a best-first distributed top-k, run by the engine's one
``search`` coordinator (:meth:`repro.core.engine.DITAEngine.scan_rows`
with ``k`` set, which describes the waves) over the threshold search's own
local scan (:func:`repro.core.search.search_rows` with ``k`` set).  This
module validates ``k``, batches queries and materializes the winners as
``Trajectory`` views.  Answers are exact — brute-force top-k under the
engine's distance, ties broken by trajectory id — and the same whether a
query runs alone or in a batch.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..trajectory.trajectory import Trajectory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import DITAEngine

#: one result: (trajectory, distance)
Neighbour = Tuple[Trajectory, float]


def check_k(k: int, least: int = 0) -> int:
    """``k`` as an ``int``: any integral number (numpy's included, a
    ``bool`` not) of at least ``least``; anything else raises
    ``ValueError`` naming it."""
    if not isinstance(k, numbers.Integral) or isinstance(k, bool) or k < least:
        raise ValueError(f"k must be an int >= {least}, got {k!r}")
    return int(k)


def knn_search_batch(
    engine: "DITAEngine", queries: Sequence[Trajectory], k: int, tau: float = math.inf
) -> List[List[Neighbour]]:
    """:func:`knn_search` for many queries at once: one answer per query,
    each identical to the query's own :func:`knn_search`.  The queries
    share one best-first pass, so a partition two queries ask for in the
    same round runs one task for both."""
    k = check_k(k)
    queries = list(queries)
    rows = engine.scan_rows(queries, [tau] * len(queries), None, "knn", k=k)
    return [[(engine.partition(pid).view(row), d) for pid, row, d in nearest] for nearest in rows]


def knn_search(
    engine: "DITAEngine", query: Trajectory, k: int, tau: float = math.inf
) -> List[Neighbour]:
    """The ``k`` trajectories nearest to ``query`` under the engine's
    distance among those within ``tau``, sorted by (distance, id).  Exact.
    A finite ``tau`` is the capped select's ``WHERE f(t, q) <= tau ORDER
    BY distance LIMIT k``: partitions whose bound exceeds it are never
    scheduled.

    Boundary semantics (the serving-layer contract):

    * ``k == 0`` returns ``[]`` (a negative or non-integral ``k`` raises
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
    return knn_search_batch(engine, [query], k, tau)[0]


def knn_join(left_engine, right_engine, k: int) -> List[Tuple[int, int, float]]:
    """For every trajectory of ``right_engine``'s dataset, its ``k`` nearest
    neighbours in ``left_engine``: one :func:`knn_search_batch` over the
    right side's rows.  Returns (left id, right id, distance) triples
    sorted by (right id, distance, left id).

    ``k == 0`` returns ``[]``; a negative or non-integral ``k`` raises
    ``ValueError``.  Both sides fold their pending streamed writes in first.
    """
    k = check_k(k)
    if k == 0:
        return []
    right_engine.sync_for_read()
    queries = [q for pid in right_engine.partition_pids() for q in right_engine.partition(pid)]
    out = [
        (t.traj_id, q.traj_id, d)
        for q, nearest in zip(queries, knn_search_batch(left_engine, queries, k))
        for t, d in nearest
    ]
    out.sort(key=lambda r: (r[1], r[2], r[0]))
    return out
