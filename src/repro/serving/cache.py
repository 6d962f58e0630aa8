"""Mutation-safe caches keyed on the engine's generation counter.

Two caches back the serving layer:

* :class:`ResultCache` — finished answers (result value *and* the stats
  the execution produced, so a hit returns byte-identical observability
  to a fresh run).  Bytes-bounded LRU.
* :class:`CandidateCache` — the per-query *partition* footprint (which
  partitions were relevant, and what each one cost), consumed by the
  cost-based scheduler to price repeat queries — LocationSpark's sFilter
  role.  Entry-bounded LRU.

Each counts its ``hits``, ``misses``, ``invalidations``, ``evictions``
and ``stored`` entries into the registry it is given, under its
``PREFIX`` (``serve.cache``, ``serve.candidate_cache``).

The invalidation contract ("exactly the affected entries"): every entry
carries a **footprint** — the engine's
:attr:`~repro.core.engine.DITAEngine.generation` at stamp time plus the
``(pid, partition_version)`` pairs the answer depended on.  A hit first
takes the cheap path (generation unchanged ⇒ nothing mutated anywhere ⇒
valid); otherwise it revalidates per partition: the entry survives iff
every footprint partition's version is unchanged **and** the query's
currently-relevant partition set is still covered by the footprint (a
mutation routed to some *other* partition can make that partition newly
relevant — e.g. an append that enlarged its MBR into the query ball — so
coverage must be re-checked against the live global index).  A mutation
confined to partitions outside the footprint therefore invalidates
nothing, while any append/extend/remove/merge/repartition touching a
footprint partition kills exactly the entries that read it.

Entries are stamped only when the engine has no pending deltas (the
serving layer stamps right after a query, which synced) — so a flush
that re-lays rows without changing logical content is always preceded
by generation-bumping buffered writes, and the cheap path stays sound.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Optional, Tuple

from ..obs import MetricsRegistry

#: ``(generation, ((pid, partition_version), ...))``
Footprint = Tuple[int, Tuple[Tuple[int, int], ...]]


def snapshot_footprint(engine, pids: Optional[Iterable[int]] = None) -> Footprint:
    """The engine's current footprint over ``pids`` (all partitions when
    None).  Call only after :meth:`~repro.core.engine.DITAEngine.sync_for_read`
    — a footprint taken with pending deltas would stamp pre-flush row
    layouts."""
    if pids is None:
        pids = engine.partition_pids()
    return (
        engine.generation,
        tuple((pid, engine.partition_version(pid)) for pid in sorted(pids)),
    )


def footprint_valid(
    engine, footprint: Footprint, current_pids: Optional[Iterable[int]] = None
) -> bool:
    """Whether an entry stamped with ``footprint`` may still be served.

    ``current_pids`` is the query's currently-relevant partition set when
    the caller can compute one (threshold search); None means the entry
    depends on the whole dataset (kNN, join, SQL scans).
    """
    gen, parts = footprint
    if engine.generation == gen:
        return True
    covered = {pid for pid, _ in parts}
    if current_pids is None:
        # whole-dataset entry: any mutation anywhere invalidates — but only
        # mutations (per-partition version moves), never mere reads
        if {pid for pid in engine.partition_pids()} != covered:
            return False
    else:
        if not set(current_pids) <= covered:
            return False
    return all(engine.partition_version(pid) == v for pid, v in parts)


class _Counted:
    """A cache that counts its events into a registry under ``PREFIX``."""

    PREFIX = ""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics

    def _count(self, name: str) -> None:
        self.metrics.counter(f"{self.PREFIX}.{name}")


class _Entry:
    __slots__ = ("value", "stats", "footprint", "nbytes")

    def __init__(self, value, stats, footprint: Footprint, nbytes: int) -> None:
        self.value = value
        self.stats = stats
        self.footprint = footprint
        self.nbytes = nbytes


class ResultCache(_Counted):
    """Bytes-bounded LRU of finished answers with footprint validity.

    Keys are caller-built canonical tuples (the serving layer hashes the
    query's point bytes, tau/k, engine identity and request kind).  A
    ``capacity_bytes`` of 0 disables the cache entirely (every ``get``
    misses, every ``put`` is dropped).
    """

    PREFIX = "serve.cache"

    def __init__(self, capacity_bytes: int, metrics: MetricsRegistry) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        super().__init__(metrics)
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def get(
        self, key: tuple, engine, current_pids: Optional[Iterable[int]] = None
    ):
        """The cached ``(value, stats)`` for ``key``, or None on miss.

        ``engine``/``current_pids`` drive footprint revalidation; a stale
        entry is evicted on the spot (counted as an invalidation, then a
        miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self._count("misses")
            return None
        if not footprint_valid(engine, entry.footprint, current_pids):
            self._drop(key, entry)
            self._count("invalidations")
            self._count("misses")
            return None
        self._entries.move_to_end(key)
        self._count("hits")
        return entry.value, entry.stats

    def put(
        self,
        key: tuple,
        value,
        stats,
        footprint: Footprint,
        nbytes: int,
    ) -> None:
        if self.capacity_bytes == 0 or nbytes > self.capacity_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key] = _Entry(value, stats, footprint, nbytes)
        self._bytes += nbytes
        self._count("stored")
        while self._bytes > self.capacity_bytes:
            victim_key, victim = self._entries.popitem(last=False)
            self._bytes -= victim.nbytes
            self._count("evictions")

    def _drop(self, key: tuple, entry: _Entry) -> None:
        del self._entries[key]
        self._bytes -= entry.nbytes


class CandidateCache(_Counted):
    """Per-query partition footprints for the scheduler's cost model.

    Maps a query signature to the partitions it touched and the observed
    per-partition cost (simulated seconds from the tracer's
    ``search.partition`` spans).  Validity is **strictly per-partition**:
    entries never take the generation fast path, because they describe
    row-addressed state (a flush that re-lays rows without changing
    logical content must still invalidate them).
    """

    #: entries kept; the least recently used goes first
    MAX_ENTRIES = 4096
    PREFIX = "serve.candidate_cache"

    def __init__(self, metrics: MetricsRegistry) -> None:
        super().__init__(metrics)
        #: key -> list of (pid, version, cost_s)
        self._entries: "OrderedDict[tuple, List[Tuple[int, int, float]]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple, engine) -> Optional[List[Tuple[int, float]]]:
        """``[(pid, cost_s), ...]`` for a still-valid entry, else None."""
        entry = self._entries.get(key)
        if entry is None:
            self._count("misses")
            return None
        if any(engine.partition_version(pid) != v for pid, v, _ in entry):
            del self._entries[key]
            self._count("invalidations")
            self._count("misses")
            return None
        self._entries.move_to_end(key)
        self._count("hits")
        return [(pid, cost) for pid, _, cost in entry]

    def put(self, key: tuple, engine, costs: Iterable[Tuple[int, float]]) -> None:
        self._entries[key] = [
            (pid, engine.partition_version(pid), float(cost)) for pid, cost in costs
        ]
        self._entries.move_to_end(key)
        self._count("stored")
        while len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)
            self._count("evictions")
