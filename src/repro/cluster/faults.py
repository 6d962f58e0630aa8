"""Deterministic fault injection and recovery for the cluster simulator.

DITA inherits Spark's resilience story — lineage-based re-execution of
lost partitions, task-level retry, speculative execution for stragglers —
and the paper's scale-out claims implicitly assume it works.  This module
reproduces that story under the simulator's seeded, byte-identical regime:

* a :class:`FaultPlan` decides *when* things break — worker crashes,
  transient task failures, message drops in :meth:`Cluster.ship
  <repro.cluster.simulator.Cluster.ship>`, straggler slowdowns — purely
  from ``(seed, event index)`` via a counter-based splitmix64 stream, so
  the same plan replayed over the same job breaks in exactly the same
  places (no RNG object whose state depends on call order);
* a :class:`RecoveryPolicy` decides *how* the cluster reacts: retries with
  exponential backoff, lineage rebuilds, speculative task copies;
* a :class:`FaultReport` accounts every injected fault and every second of
  recovery work, and is merged into the job's
  :class:`~repro.cluster.metrics.ExecutionReport`.

Failed attempts never execute the task body — only their (partial) cost is
charged — so a job run under any plan returns results *identical* to the
fault-free run (``tests/test_faults.py`` / ``tests/test_chaos.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Tuple

_MASK = (1 << 64) - 1

#: event-stream tags keeping the per-kind decision streams disjoint
_STREAM_CRASH = 0x1
_STREAM_CRASH_POINT = 0x2
_STREAM_TASK_FAIL = 0x3
_STREAM_TASK_PROGRESS = 0x4
_STREAM_SHIP_DROP = 0x5
_STREAM_STRAGGLER = 0x6


def mix64(x: int) -> int:
    """One splitmix64 output step — the deterministic decision primitive."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _uniform(seed: int, *parts: int) -> float:
    """A uniform [0, 1) draw keyed by ``(seed, parts)`` — stateless, so the
    decision for event ``k`` never depends on how many events preceded it."""
    h = mix64(seed & _MASK)
    for p in parts:
        h = mix64(h ^ (p & _MASK))
    return h / float(1 << 64)


class TaskAbandonedError(RuntimeError):
    """A task (or message) kept failing past ``max_retries`` attempts."""

    def __init__(self, what: str, attempts: int) -> None:
        super().__init__(f"{what} abandoned after {attempts} failed attempts")
        self.what = what
        self.attempts = attempts


class PartitionLostError(RuntimeError):
    """A partition's worker crashed and no surviving worker can host it."""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, config-driven fault schedule for one simulated job.

    All decisions are pure functions of ``(seed, event identity)``; two
    clusters executing the same deterministic job under the same plan see
    byte-identical fault sequences.
    """

    seed: int = 0
    #: probability that a worker crashes during the job
    worker_crash_rate: float = 0.0
    #: a crashing worker dies just before its k-th task attempt, with k
    #: drawn uniformly from [0, crash_after_tasks_max)
    crash_after_tasks_max: int = 4
    #: per-attempt probability that a task fails transiently
    task_failure_rate: float = 0.0
    #: per-attempt probability that a shipped message is dropped
    message_drop_rate: float = 0.0
    #: probability that a worker is a straggler for the whole job
    straggler_rate: float = 0.0
    #: compute-time multiplier applied to a straggler's tasks
    straggler_slowdown: float = 4.0

    def __post_init__(self) -> None:
        for name in ("worker_crash_rate", "task_failure_rate", "message_drop_rate", "straggler_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.crash_after_tasks_max < 1:
            raise ValueError("crash_after_tasks_max must be >= 1")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1 (1 disables)")

    # ------------------------------------------------------------------ #
    # per-worker decisions
    # ------------------------------------------------------------------ #

    def crash_set(self, n_workers: int) -> Tuple[int, ...]:
        """Which workers crash during the job.  At least one worker always
        survives (the lowest-id non-crashing worker, or worker 0 when the
        rate dooms everyone) so lineage recovery has somewhere to go."""
        doomed = [
            w for w in range(n_workers)
            if _uniform(self.seed, _STREAM_CRASH, w) < self.worker_crash_rate
        ]
        if len(doomed) == n_workers and n_workers > 0:
            doomed = doomed[1:]
        return tuple(doomed)

    def crash_point(self, worker_id: int) -> int:
        """The crashing worker dies just before its k-th task attempt."""
        u = _uniform(self.seed, _STREAM_CRASH_POINT, worker_id)
        return int(u * self.crash_after_tasks_max)

    def straggler_factors(self, n_workers: int) -> Tuple[float, ...]:
        """Per-worker compute slowdown multipliers (1.0 = healthy)."""
        return tuple(
            self.straggler_slowdown
            if _uniform(self.seed, _STREAM_STRAGGLER, w) < self.straggler_rate
            else 1.0
            for w in range(n_workers)
        )

    # ------------------------------------------------------------------ #
    # per-event decisions
    # ------------------------------------------------------------------ #

    def task_fails(self, task_seq: int, attempt: int) -> bool:
        return _uniform(self.seed, _STREAM_TASK_FAIL, task_seq, attempt) < self.task_failure_rate

    def failure_progress(self, task_seq: int, attempt: int) -> float:
        """Fraction of the task's cost spent before the attempt died."""
        return _uniform(self.seed, _STREAM_TASK_PROGRESS, task_seq, attempt)

    def ship_dropped(self, ship_seq: int, attempt: int) -> bool:
        return _uniform(self.seed, _STREAM_SHIP_DROP, ship_seq, attempt) < self.message_drop_rate

    @property
    def is_null(self) -> bool:
        """True when the plan can never inject anything."""
        return (
            self.worker_crash_rate == 0.0
            and self.task_failure_rate == 0.0
            and self.message_drop_rate == 0.0
            and (self.straggler_rate == 0.0 or self.straggler_slowdown == 1.0)
        )


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the cluster reacts to injected faults."""

    #: retries per task/message before raising :class:`TaskAbandonedError`
    max_retries: int = 3
    #: simulated seconds of backoff before retry ``a`` is ``base * 2**a``
    backoff_base_s: float = 0.01
    #: launch speculative copies of tasks landing on slow workers
    use_speculation: bool = True
    #: a task is speculated when its worker's slowdown factor strictly
    #: exceeds this quantile of all workers' factors (Spark's
    #: ``spark.speculation.quantile`` analogue); 1.0 disables speculation
    speculation_quantile: float = 0.75

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if not 0.0 < self.speculation_quantile <= 1.0:
            raise ValueError("speculation_quantile must be in (0, 1]")

    def backoff_s(self, attempt: int) -> float:
        return self.backoff_base_s * (2.0 ** attempt)


@dataclass
class FaultReport:
    """Everything the fault layer injected and everything recovery cost.

    The ``*_s`` fields are simulated seconds charged to worker clocks *in
    addition to* the fault-free job's charges; their sum
    (:attr:`overhead_s`) is the recovery makespan overhead the paper's
    resilience story pays for.
    """

    # injected
    worker_crashes: int = 0
    task_failures: int = 0
    message_drops: int = 0
    stragglers: int = 0
    #: *real* execution-backend failures (process-pool worker crashes,
    #: unpicklable results) surfaced as typed ExecutorError — counted by
    #: the cluster, not the simulated fault plan
    executor_failures: int = 0
    # recovery actions
    task_retries: int = 0
    message_resends: int = 0
    recovered_partitions: int = 0
    rerouted_tasks: int = 0
    abandoned_tasks: int = 0
    speculative_tasks: int = 0
    speculative_wins: int = 0
    # recovery cost (simulated seconds)
    wasted_compute_s: float = 0.0
    backoff_wait_s: float = 0.0
    rebuild_compute_s: float = 0.0
    resend_network_s: float = 0.0
    speculative_compute_s: float = 0.0
    straggler_excess_s: float = 0.0

    @property
    def overhead_s(self) -> float:
        """Total extra simulated seconds attributable to faults."""
        return (
            self.wasted_compute_s
            + self.backoff_wait_s
            + self.rebuild_compute_s
            + self.resend_network_s
            + self.speculative_compute_s
            + self.straggler_excess_s
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (floats repr'd for byte-stability)."""
        out: Dict[str, object] = {}
        for k, v in asdict(self).items():
            out[k] = repr(v) if isinstance(v, float) else v
        out["overhead_s"] = repr(self.overhead_s)
        return out

    def to_registry(self, registry, prefix: str = "faults") -> None:
        """Fold the fault accounting into a metrics registry: one counter
        per field plus the derived ``overhead_s`` gauge."""
        for name, value in asdict(self).items():
            registry.counter(f"{prefix}.{name}", value)
        registry.gauge(f"{prefix}.overhead_s", self.overhead_s)

    def copy(self) -> "FaultReport":
        return replace(self)

    def merge(self, other: "FaultReport") -> None:
        for f in (
            "worker_crashes", "task_failures", "message_drops", "stragglers",
            "executor_failures",
            "task_retries", "message_resends", "recovered_partitions",
            "rerouted_tasks", "abandoned_tasks", "speculative_tasks",
            "speculative_wins", "wasted_compute_s", "backoff_wait_s",
            "rebuild_compute_s", "resend_network_s", "speculative_compute_s",
            "straggler_excess_s",
        ):
            setattr(self, f, getattr(self, f) + getattr(other, f))


@dataclass
class FaultSession:
    """Mutable per-job fault state owned by one :class:`Cluster`.

    Holds the plan, the policy, the live :class:`FaultReport` and the
    event counters; the cluster consults it on every task attempt and
    every ship.  :meth:`reset` rewinds everything so the next job replays
    the identical fault sequence (back-to-back experiments on one cluster
    see the same faults, not a continuation of the last job's stream).
    """

    plan: FaultPlan
    policy: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    n_workers: int = 0
    report: FaultReport = field(default_factory=FaultReport)
    task_seq: int = 0
    ship_seq: int = 0

    def __post_init__(self) -> None:
        self._crash_set = frozenset(self.plan.crash_set(self.n_workers))
        self._crash_points = {w: self.plan.crash_point(w) for w in self._crash_set}
        self._factors = self.plan.straggler_factors(self.n_workers)
        self._quantile_cut = self._speculation_cut()
        self.report.stragglers = sum(1 for f in self._factors if f > 1.0)

    def _speculation_cut(self) -> float:
        """The factor quantile above which tasks get speculative copies."""
        factors = sorted(self._factors)
        if not factors:
            return float("inf")
        # linear-interpolation quantile, same convention as numpy's default
        q = self.policy.speculation_quantile
        pos = q * (len(factors) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(factors) - 1)
        frac = pos - lo
        return factors[lo] * (1.0 - frac) + factors[hi] * frac

    # ------------------------------------------------------------------ #
    # decisions
    # ------------------------------------------------------------------ #

    def next_task_seq(self) -> int:
        s = self.task_seq
        self.task_seq += 1
        return s

    def next_ship_seq(self) -> int:
        s = self.ship_seq
        self.ship_seq += 1
        return s

    def crashes_at(self, worker_id: int, tasks_started: int) -> bool:
        """Is the worker's crash point reached at this attempt count?"""
        point = self._crash_points.get(worker_id)
        return point is not None and tasks_started >= point

    def factor(self, worker_id: int) -> float:
        return self._factors[worker_id]

    def should_speculate(self, factor: float) -> bool:
        return (
            self.policy.use_speculation
            and factor > 1.0
            and factor > self._quantile_cut
        )

    def reset(self) -> None:
        """Rewind for a fresh job: zero the counters and the report (the
        plan-derived decisions are stateless and need no rewind)."""
        self.report = FaultReport()
        self.report.stragglers = sum(1 for f in self._factors if f > 1.0)
        self.task_seq = 0
        self.ship_seq = 0
