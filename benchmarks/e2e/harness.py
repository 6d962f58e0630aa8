"""Measurement plumbing shared by the workloads: the clock, the speedometer
that scales it, sample statistics, the in-memory span recorder, the scratch
directory and the child-process-group guard.  Nothing here knows about
DITA."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

#: the benchmark's directory and the checkout it sits in
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

now = time.perf_counter


def contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place that declares workloads, metrics,
    units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


#: a child's process group gets this long to exit by itself once its
#: result is in (or once it is told to stop) before it is SIGKILLed
GROUP_GRACE_S = 10.0


class Interrupted(BaseException):
    """SIGINT/SIGTERM/watchdog: unwinds through every ``finally``."""


def install_signal_handlers(watchdog_s: float) -> None:
    """Turn SIGINT, SIGTERM and the per-workload watchdog (SIGALRM after
    ``watchdog_s``) into :class:`Interrupted`, so temp dirs are removed and
    child groups reaped on every exit path."""

    def handler(signum: int, _frame: Any) -> None:
        raise Interrupted(signal.Signals(signum).name)

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
        signal.signal(sig, handler)
    signal.alarm(max(1, int(watchdog_s)))


# --------------------------------------------------------------------- #
# sample statistics
# --------------------------------------------------------------------- #


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def tail_fraction(n: int, pct: float) -> float:
    """The quantile reported as the tail of ``n`` samples: ``pct`` percent,
    lowered to the highest quantile that still has ten samples beyond it
    when ``n`` is too small to support ``pct`` — and never below the median."""
    want = min(n - 1, int(n * pct / 100.0))
    return max(min(want, n - 11), n // 2) / n


def quantile(samples: Sequence[float], fraction: float) -> float:
    ordered = sorted(samples)
    return float(ordered[min(len(ordered) - 1, int(len(ordered) * fraction))])


def digest(arrays: Sequence[np.ndarray]) -> str:
    """Short content hash of generated inputs."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------- #
# the host's speed
# --------------------------------------------------------------------- #

#: iterations of the calibration spin
SPIN_ITERS = 2000
#: what one spin takes on the host this was written on at full clock; a
#: scaled time is the wall time multiplied by this over the spin measured
#: beside it, so it reads as the wall time of a quiet moment on that host
REFERENCE_SPIN_S = 60e-6
#: spins on each side of an operation that set its speed factor
SPIN_WINDOW = 10


def spin() -> float:
    """Wall seconds of one calibration spin: integer arithmetic in a tight
    loop.  It allocates nothing the collector tracks and touches no memory
    to speak of, so its time owes nothing to the operation before it (a
    spin that also built dicts and sorted lists tracked a busy host a fifth
    better but ran 20% slower between city queries than between joins,
    paying for their garbage)."""
    t0 = now()
    s = 0
    for i in range(SPIN_ITERS):
        s += i * i
    return now() - t0


class Speedometer:
    """Spins timed beside the measured operations.

    The hosts this runs on (a few vCPUs of a shared machine) run in a fast
    or a 1.3x slower state for seconds to minutes at a time: a fixed join
    and the spin move together (their ratio stays within +-5% while each
    moves +-15%), and which state a run meets is luck.  So every reported
    time is divided by the host's speed factor at that moment: the median
    of the spins just before and just after the operation over
    :data:`REFERENCE_SPIN_S`.  No spin ever runs inside a timed operation."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, n: int = 1) -> int:
        """Take ``n`` spins; returns the position before them — the
        ``at`` of an operation that starts next."""
        at = len(self.samples)
        for _ in range(n):
            self.samples.append(spin())
        return at

    def factors(self, at: Sequence[int]) -> np.ndarray:
        """Speed factor (1.0 = reference, > 1 = slower) at each position of
        ``at``: over the :data:`SPIN_WINDOW` spins before it and as many
        after."""
        pos = np.asarray(at, dtype=np.int64)
        if not self.samples:
            return np.ones(pos.shape[0])
        pad = np.full(SPIN_WINDOW, np.nan)
        s = np.concatenate([pad, np.asarray(self.samples, dtype=np.float64), pad])
        # row p: samples[p - SPIN_WINDOW : p + SPIN_WINDOW], NaN past the ends
        windows = np.lib.stride_tricks.sliding_window_view(s, 2 * SPIN_WINDOW)
        where, inverse = np.unique(pos, return_inverse=True)
        return (np.nanmedian(windows[where], axis=1) / REFERENCE_SPIN_S)[inverse]

    def factor(self) -> float:
        """The median speed factor of everything sampled."""
        return median(self.samples) / REFERENCE_SPIN_S if self.samples else 1.0


def scale_metrics(values: Dict[str, float], units: Dict[str, str], factor: float) -> Dict[str, float]:
    """Time-valued metrics (by their declared unit) of a traced run brought
    to reference speed with the run's one factor; counts, bytes and ratios
    pass through."""
    out = {}
    for name, v in values.items():
        unit = units.get(name, "")
        if unit in ("s", "ms", "us"):
            v = v / factor
        elif unit == "1/s":
            v = v * factor
        out[name] = v
    return out


# --------------------------------------------------------------------- #
# closed-loop measurement
# --------------------------------------------------------------------- #


@dataclass
class Pass:
    """One pass of a measured loop: a stretch of identical (or, for the
    stateful workloads, statistically identical) work.  ``lo:hi`` slices the
    run's operations."""

    lo: int
    hi: int


@dataclass
class Measured:
    """What one measured section produced."""

    #: wall seconds of each operation, in order
    durations: List[float] = field(default_factory=list)
    #: the speedometer's position when each started
    at: List[int] = field(default_factory=list)
    #: which operations' latency is the reported one (None: all of them)
    reported: Optional[List[int]] = None
    #: the complete passes the loop got through
    passes: List[Pass] = field(default_factory=list)
    #: operations that raised
    failed: int = 0
    speed: Speedometer = field(default_factory=Speedometer)

    @property
    def ops(self) -> int:
        return len(self.durations)

    def record(self, duration: float, at: int, reported: bool = True) -> None:
        if reported and self.reported is not None:
            self.reported.append(len(self.durations))
        self.durations.append(duration)
        self.at.append(at)

    def summary(self, tail_pct: float) -> Dict[str, float]:
        """The end-to-end numbers of the run: median and tail of the
        reported operations' scaled latencies and operations per scaled
        second, all over the complete passes only, so that every run weighs
        the pass's operations alike.  ``wall_*`` are the same without the
        scaling, for the record."""
        lo, hi = (self.passes[0].lo, self.passes[-1].hi) if self.passes else (0, self.ops)
        wall = np.asarray(self.durations[lo:hi], dtype=np.float64)
        factors = self.speed.factors(self.at[lo:hi])
        scaled = wall / factors
        if self.reported is None:
            pick = np.arange(hi - lo)
        else:
            pick = np.asarray([i - lo for i in self.reported if lo <= i < hi], dtype=np.int64)
        frac = tail_fraction(pick.shape[0], tail_pct)
        return {
            "op_p50_ms": median(scaled[pick].tolist()) * 1e3,
            "op_tail_ms": quantile(scaled[pick].tolist(), frac) * 1e3,
            "ops_per_s": (hi - lo) / float(scaled.sum()),
            "wall_op_p50_ms": median(wall[pick].tolist()) * 1e3,
            "wall_ops_per_s": (hi - lo) / float(wall.sum()),
            "speed_factor": float(np.median(factors)),
        }


def closed_loop(op: Callable[[int], Any], seconds: float, pass_ops: int, spins: int = 1) -> Measured:
    """One client: issue ``op(i)`` for i = 0, 1, ... each after the previous
    returned (and after ``spins`` calibration spins), until ``seconds`` have
    passed and at least one pass of ``pass_ops`` operations is complete.  An
    exception is a failed operation, not the end of the run."""
    m = Measured()
    deadline = now() + seconds
    i = 0
    while now() < deadline or not m.passes:
        at = m.speed.sample(spins) + spins
        t0 = now()
        try:
            op(i)
        except Exception as exc:  # counted, reported, and the loop goes on
            m.failed += 1
            print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        m.record(now() - t0, at)
        i += 1
        if i % pass_ops == 0:
            m.passes.append(Pass(i - pass_ops, i))
    m.speed.sample(max(spins, SPIN_WINDOW))
    return m


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #


class SpanRecorder:
    """In-memory spans: (name, start, end, parent, op).  ``parent`` is the
    index of the enclosing span (-1 at top level); spans of one replayed
    operation share ``op``.  Nothing is written until :meth:`dump`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self._stack: List[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(now())
        try:
            yield
        finally:
            self.ends[idx] = now()
            self._stack.pop()

    def extend(self, other: "SpanRecorder") -> None:
        """Append another recorder's spans (its parents re-indexed)."""
        base = len(self.names)
        self.names += other.names
        self.starts += other.starts
        self.ends += other.ends
        self.parents += [p + base if p >= 0 else -1 for p in other.parents]
        self.ops += other.ops

    def self_times(self) -> Dict[str, float]:
        """Per span name, total duration minus the part child spans cover."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[name] = out.get(name, 0.0) + (self.ends[i] - self.starts[i]) - child[i]
        return out

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name in self.names:
            out[name] = out.get(name, 0) + 1
        return out

    def total(self, name: str) -> float:
        return sum(
            self.ends[i] - self.starts[i] for i, n in enumerate(self.names) if n == name
        )

    def dump(self) -> List[Dict[str, Any]]:
        base = self.starts[0] if self.starts else 0.0
        return [
            {
                "name": self.names[i],
                "start": self.starts[i] - base,
                "end": self.ends[i] - base,
                "parent": self.parents[i],
                "op": self.ops[i],
            }
            for i in range(len(self.names))
        ]


class NullRecorder:
    """A recorder that records nothing: the replay's cost without spans."""

    op = -1

    class _Noop:
        def __enter__(self) -> None:
            return None

        def __exit__(self, *exc: Any) -> bool:
            return False

    _noop = _Noop()

    def span(self, name: str) -> "NullRecorder._Noop":
        return self._noop


# --------------------------------------------------------------------- #
# scratch space
# --------------------------------------------------------------------- #


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A private directory under the checkout's ``.bench_tmp`` that is also
    this process's (and its children's) ``TMPDIR`` — the engine spills
    process-backend snapshots through ``tempfile`` — removed on every exit
    path."""
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    saved_env, saved_default = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = str(path)
    tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        tempfile.tempdir = saved_default
        if saved_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_env
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run is using it


# --------------------------------------------------------------------- #
# child process groups
# --------------------------------------------------------------------- #


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def reap_group(proc: subprocess.Popen, grace_s: float = GROUP_GRACE_S) -> None:
    """Wait until every process of ``proc``'s session (it was started with
    ``start_new_session=True``, so pool workers and the multiprocessing
    resource tracker share its group) is gone; SIGKILL the group every
    ``grace_s`` until it is."""
    pgid = proc.pid
    deadline = now() + grace_s
    while proc.poll() is None or group_alive(pgid):
        if now() >= deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = now() + grace_s
        time.sleep(0.01)


def run_in_group(argv: List[str], timeout_s: float) -> str:
    """Run ``argv`` in its own session, return its stdout, and do not return
    before its whole process group has ended — whatever happens here."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=None, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except BaseException:
        # timeout, signal or watchdog: ask the leader to stop (it shuts its
        # pool down in ``finally``); reap_group kills what is left after the
        # grace period
        try:
            os.kill(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        raise
    finally:
        reap_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited with code {proc.returncode}")
    return out
