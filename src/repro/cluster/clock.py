"""Injectable time sources for the simulator.

DITA's reproduction claims require simulated metrics — makespan, bytes
shipped, load ratios — to be functions of the algorithm alone.  The
simulator therefore never reads the host clock by default: task costs
come from a *measure hook* ``measure(fn, work) -> (result, seconds)``.

* :func:`unit_cost_measure` (the default) runs ``fn`` and charges a cost
  proportional to the caller-declared ``work`` units — fully
  deterministic, so two runs on the same seed produce byte-identical
  reports;
* :func:`wall_clock_measure` restores the old behaviour — real host
  timing — as an explicit opt-in for profiling runs
  (``Cluster(..., measure=wall_clock_measure)``).

:func:`wall_clock` is the single sanctioned raw wall-clock read in the
package; index build times and benchmarks go through it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple

#: measure hook: (thunk, work units) -> (thunk result, charged seconds)
TaskMeasure = Callable[[Callable[[], Any], float], Tuple[Any, float]]

#: simulated seconds charged per unit of work by the default measure
DEFAULT_UNIT_COST_S = 1e-3


def wall_clock() -> float:
    """The process monotonic clock — the explicit opt-in real-time source."""
    return time.perf_counter()


def wall_clock_measure(fn: Callable[[], Any], work: float = 1.0) -> Tuple[Any, float]:
    """Run ``fn`` and charge its real elapsed wall time (host-dependent)."""
    start = wall_clock()
    result = fn()
    return result, wall_clock() - start


def unit_cost_measure(fn: Callable[[], Any], work: float = 1.0) -> Tuple[Any, float]:
    """Run ``fn`` and charge ``work`` deterministic cost units."""
    result = fn()
    return result, float(work) * DEFAULT_UNIT_COST_S


def make_fixed_cost_measure(unit_cost_s: float) -> TaskMeasure:
    """A deterministic measure with a custom per-work-unit cost."""
    if unit_cost_s < 0:
        raise ValueError("unit_cost_s must be non-negative")

    def measure(fn: Callable[[], Any], work: float = 1.0) -> Tuple[Any, float]:
        result = fn()
        return result, float(work) * unit_cost_s

    return measure


class Stopwatch:
    """Wall time since construction (build-time metrics)."""

    def __init__(self) -> None:
        self._start = wall_clock()

    def elapsed(self) -> float:
        return wall_clock() - self._start
