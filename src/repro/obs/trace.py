"""Span-based tracing on the simulated clock.

A :class:`Span` is one named interval of simulated time attributed to a
worker (or to the driver, for job envelopes).  Spans nest::

    job: search                                    (driver envelope)
      task: search.partition  worker=0             (one cluster task)
        stage: filter                              (subdivided share)
        stage: verify
      net: ship.send          worker=1             (network lane)

Timestamps come from the workers' simulated clocks — the same numbers the
:class:`~repro.cluster.metrics.ExecutionReport` is built from — so the sum
of a worker's span durations reconciles with its reported busy time, and
two same-seed runs export byte-identical traces.

Exporters: :meth:`Tracer.export_json` (the repo-native format used by the
golden-trace CI job) and :meth:`Tracer.export_chrome` (a chrome://tracing /
Perfetto ``traceEvents`` array; load the file in ``chrome://tracing`` to
see the per-worker timeline).

The tracer never reads the host clock and allocates nothing per-event
beyond one small dataclass, but every recording site in the cluster is
additionally guarded by ``cluster.tracer is None`` so an untraced run pays
one attribute load per task, nothing more.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One traced interval of simulated time.

    ``cat`` is the accounting category: ``"job"`` (driver envelope),
    ``"task"`` (a cluster task charged to a core), ``"stage"`` (a
    subdivision of its parent task), ``"net"`` (network lane) or
    ``"fault"`` (fault-layer overhead: wasted attempts, backoff,
    speculation, recovery).  ``seconds`` is the exact charged amount
    (``t1 - t0`` can differ from it by float rounding).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    cat: str
    worker: Optional[int]
    t0: float
    t1: float
    seconds: float
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans; job spans opened on the driver envelope the worker
    spans recorded while they are open."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []  # driver job-span stack (indices)
        self._next_id = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    @property
    def current_parent(self) -> Optional[int]:
        return self.spans[self._open[-1]].span_id if self._open else None

    def begin(self, name: str, cat: str = "job", **args: object) -> int:
        """Open a driver span; its [t0, t1] is set on :meth:`end` to the
        envelope of the spans recorded while it was open."""
        span = Span(
            span_id=self._new_id(),
            parent_id=self.current_parent,
            name=name,
            cat=cat,
            worker=None,
            t0=0.0,
            t1=0.0,
            seconds=0.0,
            args=dict(args),
        )
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        return span.span_id

    def end(self, span_id: int) -> Span:
        """Close the innermost open driver span (must match ``span_id``)."""
        if not self._open or self.spans[self._open[-1]].span_id != span_id:
            raise ValueError(f"span {span_id} is not the innermost open span")
        idx = self._open.pop()
        span = self.spans[idx]
        kids = [s for s in self.spans if s.parent_id == span.span_id]
        if kids:
            span.t0 = min(s.t0 for s in kids)
            span.t1 = max(s.t1 for s in kids)
            span.seconds = sum(s.seconds for s in kids if s.cat != "stage")
        return span

    class _JobContext:
        def __init__(self, tracer: "Tracer", span_id: int) -> None:
            self.tracer = tracer
            self.span_id = span_id

        def __enter__(self) -> int:
            return self.span_id

        def __exit__(self, *exc: object) -> None:
            self.tracer.end(self.span_id)

    def job(self, name: str, **args: object) -> "Tracer._JobContext":
        """``with tracer.job("search"): ...`` — a driver envelope span."""
        return Tracer._JobContext(self, self.begin(name, "job", **args))

    def record(
        self,
        name: str,
        cat: str,
        worker: Optional[int],
        t0: float,
        t1: float,
        seconds: Optional[float] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Record one completed worker span (parented to the open job)."""
        span = Span(
            span_id=self._new_id(),
            parent_id=self.current_parent,
            name=name,
            cat=cat,
            worker=worker,
            t0=t0,
            t1=t1,
            seconds=(t1 - t0) if seconds is None else seconds,
            args=args or {},
        )
        self.spans.append(span)
        return span

    def last_span(self) -> Optional[Span]:
        """The most recently recorded span (driver spans included)."""
        return self.spans[-1] if self.spans else None

    def subdivide(
        self,
        span: Span,
        parts: Sequence[Tuple[str, float, Optional[Dict[str, object]]]],
    ) -> List[Span]:
        """Split ``span`` into proportional child stage spans.

        ``parts`` are ``(name, weight, args)``; each child gets a share of
        the parent interval proportional to its weight, with the last
        boundary pinned to the parent's ``t1`` so children tile the parent
        exactly.  Zero total weight records nothing.  Stage spans carry
        ``seconds`` shares summing exactly to the parent's ``seconds``.
        """
        total = float(sum(w for _, w, _ in parts))
        if total <= 0.0:
            return []
        out: List[Span] = []
        cum = 0.0
        t0 = span.t0
        s0 = 0.0
        for i, (name, weight, args) in enumerate(parts):
            cum += float(weight)
            if i == len(parts) - 1:
                t1, s1 = span.t1, span.seconds
            else:
                t1 = span.t0 + span.duration * (cum / total)
                s1 = span.seconds * (cum / total)
            child = Span(
                span_id=self._new_id(),
                parent_id=span.span_id,
                name=name,
                cat="stage",
                worker=span.worker,
                t0=t0,
                t1=t1,
                seconds=s1 - s0,
                args=args or {},
            )
            self.spans.append(child)
            out.append(child)
            t0, s0 = t1, s1
        return out

    def clear(self) -> None:
        self.spans = []
        self._open = []
        self._next_id = 0

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def to_events(self) -> List[Dict[str, object]]:
        """JSON-ready span dicts in recording order (floats repr'd so two
        identical runs serialize byte-identically)."""
        out: List[Dict[str, object]] = []
        for s in self.spans:
            out.append(
                {
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "name": s.name,
                    "cat": s.cat,
                    "worker": s.worker,
                    "t0": repr(s.t0),
                    "t1": repr(s.t1),
                    "seconds": repr(s.seconds),
                    "args": {k: _jsonable(v) for k, v in sorted(s.args.items())},
                }
            )
        return out

    def export_json(self) -> str:
        """The repo-native trace format (used by the golden-trace job)."""
        return json.dumps({"spans": self.to_events()}, indent=2, sort_keys=True)

    def export_chrome(self) -> str:
        """A ``chrome://tracing`` / Perfetto ``traceEvents`` JSON string.

        Complete ("X") events; ``ts``/``dur`` are microseconds of simulated
        time; one tid per worker plus a ``.net`` lane per worker for
        network spans; driver job spans ride tid ``"driver"``.
        """
        events: List[Dict[str, object]] = []
        for s in self.spans:
            if s.worker is None:
                tid = "driver"
            elif s.cat == "net":
                tid = f"w{s.worker}.net"
            else:
                tid = f"w{s.worker}"
            events.append(
                {
                    "name": s.name,
                    "cat": s.cat,
                    "ph": "X",
                    "ts": s.t0 * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": "cluster",
                    "tid": tid,
                    "args": {k: _jsonable(v) for k, v in sorted(s.args.items())},
                }
            )
        return json.dumps({"traceEvents": events}, indent=2, sort_keys=True)


def _jsonable(v: object) -> object:
    """Span-arg values for export: floats repr'd for byte-stability."""
    if isinstance(v, bool) or not isinstance(v, float):
        return v
    return repr(v)
