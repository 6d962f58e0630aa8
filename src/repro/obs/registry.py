"""A named-metrics registry with a stable snapshot order.

Every count the engine keeps is a named number in a
:class:`MetricsRegistry`:

* ``counter(name, n)`` — monotonically accumulating integers/floats;
* ``gauge(name, v)`` — last-write-wins values (e.g. plan sizes);
* ``observe(name, v)`` — histograms, summarised as count/sum/min/max.

Counts go one way.  A task's stages (trie filter, verifier) count into
the task's own registry under stage names (``filter.candidates``,
``verify.pairs``); the coordinator ``merge``s each task's registry into
one job registry, whose counters, moved :meth:`under` the job prefix
(``search``, ``knn``, ``join``), go to ``engine.metrics`` and to the
caller's ``stats=``: both hold the same names
(``search.filter.candidates``, ``join.candidate_pairs``; see
docs/OBSERVABILITY.md).

``snapshot()`` sorts keys and reprs floats, so two identical runs
serialize to byte-identical JSON (the determinism contract).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple


class MetricsRegistry:
    """Counters, gauges and histograms keyed by dotted metric names."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        #: name -> (count, sum, min, max)
        self._hists: Dict[str, Tuple[int, float, float, float]] = {}

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #

    def counter(self, name: str, value: "int | float" = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: "int | float") -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: "int | float") -> None:
        v = float(value)
        prev = self._hists.get(name)
        if prev is None:
            self._hists[name] = (1, v, v, v)
        else:
            n, total, lo, hi = prev
            self._hists[name] = (n + 1, total + v, min(lo, v), max(hi, v))

    def merge(self, other: "MetricsRegistry") -> None:
        counters = self._counters
        for name, v in other._counters.items():
            counters[name] = counters.get(name, 0) + v
        for name, v in other._gauges.items():
            self.gauge(name, v)
        for name, (n, total, lo, hi) in other._hists.items():
            prev = self._hists.get(name)
            if prev is None:
                self._hists[name] = (n, total, lo, hi)
            else:
                pn, pt, pl, ph = prev
                self._hists[name] = (pn + n, pt + total, min(pl, lo), max(ph, hi))

    def under(self, prefix: str) -> "MetricsRegistry":
        """A copy of the counters with each name moved to
        ``{prefix}.{name}`` (a job registry as its callers see it)."""
        out = MetricsRegistry()
        out._counters = {f"{prefix}.{name}": v for name, v in self._counters.items()}
        return out

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._hists.clear()

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def value(self, name: str, default: "int | float" = 0) -> "int | float":
        """A counter or gauge value (counters shadow gauges on collision)."""
        if name in self._counters:
            return self._counters[name]
        return self._gauges.get(name, default)

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """All counters under ``prefix`` in sorted-name order."""
        return {
            k: v for k, v in sorted(self._counters.items()) if k.startswith(prefix)
        }

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable, stably ordered view of every metric.

        Ints stay ints, floats are repr'd; histogram ``name`` flattens to
        ``name.count`` / ``name.sum`` / ``name.min`` / ``name.max``.
        """
        out: Dict[str, object] = {}
        for k, v in self._counters.items():
            out[f"counter.{k}"] = _snap_num(v)
        for k, v in self._gauges.items():
            out[f"gauge.{k}"] = _snap_num(v)
        for k, (n, total, lo, hi) in self._hists.items():
            out[f"hist.{k}.count"] = n
            out[f"hist.{k}.sum"] = _snap_num(total)
            out[f"hist.{k}.min"] = _snap_num(lo)
            out[f"hist.{k}.max"] = _snap_num(hi)
        return {k: out[k] for k in sorted(out)}

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def lines(self, prefix: str = "") -> List[str]:
        """``name = value`` lines for the EXPLAIN ANALYZE counter block."""
        out = []
        for k, v in self.snapshot().items():
            if k.startswith(f"counter.{prefix}"):
                out.append(f"{k[len('counter.'):]} = {v}")
        return out


def _snap_num(v: "int | float") -> object:
    if isinstance(v, float):
        return repr(v)
    return v
