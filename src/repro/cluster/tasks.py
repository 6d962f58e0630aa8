"""The task-description layer shared by both execution backends.

Every per-partition unit of work the engine schedules — a partition's
share of a threshold search or of a kNN, one replica chunk of a join — is
described by a picklable :class:`TaskSpec` and executed by
:func:`run_task_body` against a *resolver*: an object that turns the
spec's ``(side, partition id, row ids)`` references into live engines,
datasets and verification artifacts.

One resolver class exists, :class:`repro.core.execution.LocalResolver`
over one engine per join side, and both backends use it: inline it
resolves against the coordinator's own partitions and tries; on the
process pool each worker resolves against its *own* store-backed engines
(:func:`repro.cluster.parallel.open_sides`), which map the same
:class:`~repro.storage.store.TrajectoryStore` blocks and build their own
tries lazily.

Because both backends run the same body through the same resolver over
bit-identical block bytes, their results and counts are bit-identical;
only *where* the body runs differs.

The payload discipline is the backbone of the zero-copy guarantee: a
spec may carry query point arrays (queries originate at the coordinator
and must cross), but never dataset coordinates — join specs reference
sender trajectories as ``(side, partition id, row ids)`` and the worker
reads the points out of its own mapped block.
:func:`pickle_budget` turns that discipline into an enforceable bound:
the process pool refuses any spec whose pickle exceeds its kind's
budget, so a regression that starts shipping coordinates fails loudly.

Task kinds are registered with :func:`register_task_kind`; worker entry
points obey the same wall-clock/entropy purity rules as simulated task
closures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

import numpy as np

from ..obs import MetricsRegistry

#: registered task bodies: kind -> fn(spec, resolver) -> result
_TASK_KINDS: Dict[str, Callable[["TaskSpec", Any], Any]] = {}

#: pickle-size allowance independent of payload contents (spec scaffolding,
#: pickle framing, tuple overhead); deliberately generous so the guard only
#: trips on actual data smuggling, never on framing drift
_BASE_BUDGET = 8 * 1024
#: per-row allowance for payloads that reference rows by id (int64 + framing)
_PER_ROW_BUDGET = 64
#: per-query allowance on top of the query's coordinate bytes
_PER_QUERY_BUDGET = 512


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit of work, identical across backends.

    ``side`` and ``partition_id`` name the partition the task runs *on*
    (the receiver, for a join chunk); the payload is kind-specific and
    must stay picklable and coordinate-free except for query points.
    """

    task_id: int
    kind: str
    side: str  # "L" (this engine) or "R" (the join counterpart)
    partition_id: int
    payload: Tuple[Any, ...]


def register_task_kind(kind: str, fn: Callable[[TaskSpec, Any], Any]) -> None:
    """Register ``fn`` as the body executed for ``kind`` tasks.

    ``fn`` is a task body and must not reach the wall clock or OS
    entropy."""
    if kind in _TASK_KINDS:
        raise ValueError(f"task kind {kind!r} already registered")
    _TASK_KINDS[kind] = fn


def run_task_body(spec: TaskSpec, resolver: Any) -> Any:
    """Execute ``spec`` against ``resolver`` — the single entry point both
    the simulated backend (inline) and the process workers call."""
    try:
        fn = _TASK_KINDS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown task kind {spec.kind!r}") from None
    return fn(spec, resolver)


# ---------------------------------------------------------------------- #
# task bodies
# ---------------------------------------------------------------------- #


def _search_body(spec: TaskSpec, res: Any) -> Any:
    """One partition's share of a (batched) threshold search or of a kNN.

    Payload: ``(q_points_tuple, taus_tuple, k)`` where each entry of
    ``q_points_tuple`` is one query's raw point array and ``k`` is
    ``None`` for a threshold search.  Returns ``(match_lists, counts)``:
    per query, accepted ``(row, distance)`` pairs — with ``k`` set, its at
    most ``k`` nearest as ``(row, distance, trajectory id)``, so the
    coordinator merges by ``(distance, id)`` without the partition — and
    the task's :class:`~repro.obs.MetricsRegistry` of stage counts.
    """
    from ..core.search import search_rows

    q_points_list, taus, k = spec.payload
    eng = res.engine(spec.side)
    trie = eng.trie(spec.partition_id)
    q_datas = [res.query_data(pts) for pts in q_points_list]
    counts = MetricsRegistry()
    match_lists = search_rows(
        trie, eng.adapter, eng.verifier, q_points_list, taus, q_datas, counts, k
    )
    if k is not None:
        ids = trie.dataset.traj_ids
        match_lists = [[(r, d, int(ids[r])) for r, d in m] for m in match_lists]
    return match_lists, counts


def _join_chunk_body(spec: TaskSpec, res: Any) -> Any:
    """One division-replica chunk of a join edge, run on the receiver.

    Payload: ``(send_side, send_pid, row_ids, tau, self_join)`` — the
    senders are referenced by row id only; their points and verification
    artifacts come out of the resolver's own view of the sending
    partition, so no coordinate bytes ever ride the spec.  Every pair is
    evaluated as ``exact(first, second)`` in its reported order: the left
    side's row first in a join, the smaller id first in a self-join, whose
    diagonal edge also drops every candidate whose id does not exceed its
    sender's (identity pairs and mirrors).  The local step is
    :func:`~repro.core.join.join_rows`.  Returns ``(match_lists, counts)``:
    per row of ``row_ids``, receiver-side ``(row, distance)`` matches, and
    the task's registry of stage counts.
    """
    from ..core.join import join_rows

    send_side, send_pid, rows, tau, self_join = spec.payload
    rows = np.asarray(rows, dtype=np.int64)
    part = res.engine(send_side).partition(send_pid)
    block, block_rows = res.sender_block(send_side, send_pid, rows)
    if self_join:
        keys = part.traj_ids[rows].astype(np.float64)
    else:
        keys = np.full(rows.shape[0], np.inf if spec.side == "L" else -np.inf)
    counts = MetricsRegistry()
    match_lists = join_rows(
        res.engine(spec.side),
        spec.partition_id,
        # the left engine's adapter drives the join
        res.engine("L").adapter,
        part,
        rows,
        block,
        block_rows,
        tau,
        keys,
        self_join and send_pid == spec.partition_id,
        counts,
    )
    return match_lists, counts


def _debug_echo_body(spec: TaskSpec, res: Any) -> Any:
    """Scheduler-test body: returns the payload unchanged."""
    return spec.payload


def _debug_spin_body(spec: TaskSpec, res: Any) -> Any:
    """Scheduler-test body: pure CPU burn of ``payload[0]`` iterations,
    used to create load imbalance without touching any clock."""
    (n,) = spec.payload
    acc = 0
    for i in range(n):
        acc += i * i
    return acc


def _debug_crash_body(spec: TaskSpec, res: Any) -> Any:
    """Failure-path test body: kills the hosting process outright (the
    moral equivalent of a segfaulting native kernel)."""
    (code,) = spec.payload
    os._exit(code)


def _debug_unpicklable_body(spec: TaskSpec, res: Any) -> Any:
    """Failure-path test body: returns a value no pickle can carry."""
    return lambda: None


register_task_kind("search", _search_body)
register_task_kind("join.chunk", _join_chunk_body)
register_task_kind("debug.echo", _debug_echo_body)
register_task_kind("debug.spin", _debug_spin_body)
register_task_kind("debug.crash", _debug_crash_body)
register_task_kind("debug.unpicklable", _debug_unpicklable_body)


# ---------------------------------------------------------------------- #
# the zero-copy pickle guard
# ---------------------------------------------------------------------- #


def pickle_budget(spec: TaskSpec) -> int:
    """The maximum pickled size allowed for ``spec``.

    The budget prices exactly what each kind is *allowed* to carry:
    query coordinates for search specs (queries originate at the
    coordinator), a fixed handful of bytes per referenced row otherwise.
    Dataset coordinates have no line item, so a spec that smuggles them
    blows its budget and the pool rejects it before anything is sent.
    """
    if spec.kind == "search":
        q_points_list = spec.payload[0]
        coord_bytes = sum(int(p.nbytes) for p in q_points_list)
        return _BASE_BUDGET + coord_bytes + _PER_QUERY_BUDGET * len(q_points_list)
    if spec.kind == "join.chunk":
        return _BASE_BUDGET + _PER_ROW_BUDGET * len(spec.payload[2])
    return _BASE_BUDGET
