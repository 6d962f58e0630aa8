"""Per-stage breakdown tables from a trace (EXPLAIN ANALYZE / repro trace).

The table is built purely from :class:`~repro.obs.trace.Span` records and
an :class:`~repro.cluster.metrics.ExecutionReport`, so the SQL session and
the CLI render identical output for the same run — and tests can assert
that the table's totals reconcile with the report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .trace import Span

#: categories whose spans account simulated worker time (job envelopes and
#: stage subdivisions are views over these, not additional time)
_ACCOUNTING_CATS = ("task", "net", "fault")

#: span args that identify *which* task/transfer a span belongs to; summing
#: them across a row would be meaningless, so the table drops them
_IDENTITY_ARGS = frozenset({"partition", "seq", "attempt", "src", "dst", "home"})


def accounted_spans(spans: Sequence[Span]) -> List[Span]:
    """The spans that carry worker time exactly once (no double counting:
    job envelopes and stage subdivisions are excluded)."""
    return [s for s in spans if s.cat in _ACCOUNTING_CATS]


def worker_span_seconds(spans: Sequence[Span]) -> Dict[int, float]:
    """Per-worker sum of accounted span charges — the left-hand side of
    the accounting identity against ``ExecutionReport.worker_times``."""
    out: Dict[int, float] = {}
    for s in accounted_spans(spans):
        if s.worker is not None:
            out[s.worker] = out.get(s.worker, 0.0) + s.seconds
    return out


def stage_rows(spans: Sequence[Span]) -> List[Dict[str, object]]:
    """Aggregate spans into display rows: one row per accounted span name
    (first-seen order), each followed by its stage-subdivision children.

    Row keys: ``name``, ``indent``, ``count``, ``seconds``, ``counters``
    (summed numeric span args).
    """
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.cat == "stage" and s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)

    def _agg(group: Sequence[Span], name: str, indent: int) -> Dict[str, object]:
        counters: Dict[str, float] = {}
        for s in group:
            for k, v in s.args.items():
                if k in _IDENTITY_ARGS:
                    continue
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    continue
                counters[k] = counters.get(k, 0) + v
        return {
            "name": name,
            "indent": indent,
            "count": len(group),
            "seconds": sum(s.seconds for s in group),
            "counters": {k: counters[k] for k in sorted(counters)},
        }

    rows: List[Dict[str, object]] = []
    order: List[str] = []
    groups: Dict[str, List[Span]] = {}
    for s in accounted_spans(spans):
        if s.name not in groups:
            order.append(s.name)
            groups[s.name] = []
        groups[s.name].append(s)
    for name in order:
        group = groups[name]
        rows.append(_agg(group, name, 0))
        sub_order: List[str] = []
        sub_groups: Dict[str, List[Span]] = {}
        for s in group:
            for c in children.get(s.span_id, []):
                if c.name not in sub_groups:
                    sub_order.append(c.name)
                    sub_groups[c.name] = []
                sub_groups[c.name].append(c)
        for sub in sub_order:
            rows.append(_agg(sub_groups[sub], sub, 1))
    return rows


def format_breakdown(
    spans: Sequence[Span],
    report,
    registry=None,
    title: Optional[str] = None,
) -> str:
    """Render the per-stage table plus the run totals (and, when a
    registry is given, its counter block).  ``report`` is an
    :class:`~repro.cluster.metrics.ExecutionReport` (duck-typed)."""
    rows = stage_rows(spans)
    busy_total = sum(report.worker_times.values()) if report.worker_times else 0.0
    lines: List[str] = []
    if title:
        lines.append(title)
    header = f"{'stage':<28} {'count':>7} {'seconds':>12} {'share':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    accounted = 0.0
    for row in rows:
        label = ("  " * int(row["indent"])) + str(row["name"])
        secs = float(row["seconds"])
        if row["indent"] == 0:
            accounted += secs
        share = (secs / busy_total * 100.0) if busy_total > 0 else 0.0
        extra = ""
        if row["counters"]:
            pairs = ", ".join(f"{k}={_fmt_num(v)}" for k, v in row["counters"].items())
            extra = f"  [{pairs}]"
        lines.append(
            f"{label:<28} {row['count']:>7} {secs:>12.6f} {share:>6.1f}%{extra}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'accounted':<28} {'':>7} {accounted:>12.6f} "
        f"{(accounted / busy_total * 100.0) if busy_total > 0 else 0.0:>6.1f}%"
    )
    lines.append(
        "report: "
        f"workers={len(report.worker_times)} "
        f"makespan={report.makespan:.6f}s "
        f"busy_total={busy_total:.6f}s "
        f"compute={report.total_compute_s:.6f}s "
        f"network={report.total_network_s:.6f}s "
        f"bytes={report.total_network_bytes} "
        f"tasks={report.tasks}"
    )
    if registry is not None:
        counter_lines = registry.lines()
        if counter_lines:
            lines.append("counters:")
            lines.extend(f"  {line}" for line in counter_lines)
    return "\n".join(lines)


def _fmt_num(v: float) -> str:
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.6f}"
    return str(int(v))
