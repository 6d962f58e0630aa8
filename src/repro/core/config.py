"""DITA configuration (the paper's Table 3 parameters)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

#: numeric field -> (lower bound, bound allowed, integer-valued)
_BOUNDS = {
    "num_global_partitions": (1, True, True),
    "trie_fanout": (1, True, True),
    "num_pivots": (0, True, True),
    "trie_leaf_capacity": (1, True, True),
    "cell_size": (0, False, False),
    "comp_time_per_pair": (0, False, False),
    "network_bandwidth": (0, False, False),
    "num_processes": (0, True, True),
    "delta_max_rows": (1, True, True),
    "repartition_skew_ratio": (1, True, False),
    "max_inflight": (1, True, True),
    "tenant_rate": (0, False, False),
    "tenant_burst": (1, True, False),
    "serving_queue_depth": (1, True, True),
    "result_cache_bytes": (0, True, True),
    "seed": (0, True, True),
}


@dataclass(frozen=True)
class DITAConfig:
    """Tunable parameters of the DITA index and join planner.

    Defaults follow the paper's Table 3 (scaled where the paper's default
    depends on dataset size): ``num_global_partitions`` is the paper's
    ``NG`` (total partitions = NG * NG), ``trie_fanout`` is ``NL``,
    ``num_pivots`` is ``K``.  ``docs/TUNING.md`` names who sets each field.
    """

    #: NG — first-level and second-level global partition counts.
    num_global_partitions: int = 8
    #: NL — trie fanout per level.
    trie_fanout: int = 8
    #: K — number of pivot points per trajectory.
    num_pivots: int = 4
    #: pivot selection strategy: "inflection", "neighbor" or "first_last".
    pivot_strategy: str = "neighbor"
    #: minimum trajectories in a trie node before we stop splitting
    #: (the paper stops at 16 by default, Appendix B).
    trie_leaf_capacity: int = 16
    #: side length D of the cells of Lemma 5.6's compression; about the
    #: query threshold works well (the default suits tau in 0.001..0.005).
    cell_size: float = 0.004
    #: cost-model lambda numerator pieces: average verification time per
    #: candidate pair (Delta, seconds) and network bandwidth (B, bytes/s).
    comp_time_per_pair: float = 2e-5
    network_bandwidth: float = 125e6  # 1 Gbps in bytes/s
    #: task execution backend.  ``"simulated"`` (the default) runs every
    #: task body inline on the deterministic cluster simulator — byte-
    #: identical to all prior releases.  ``"process"`` runs the *same*
    #: task descriptions on a spawn-based multi-core worker pool
    #: (:mod:`repro.cluster.parallel`) that attaches to the engine's
    #: store blocks via shared memory maps; results and stats are
    #: bit-identical to the simulated backend, and the simulator still
    #: does all cost accounting (tasks are charged their declared work).
    backend: str = "simulated"
    #: process-pool size for ``backend="process"``; 0 sizes the pool to
    #: the host's CPU count.
    num_processes: int = 0
    #: streaming ingestion: a partition's delta buffer
    #: (:class:`~repro.storage.delta.DeltaPartition`) is applied to its
    #: base block — and the partition's trie rebuilt — once it holds this
    #: many pending rows, instead of waiting for the next read.
    delta_max_rows: int = 256
    #: trigger online repartitioning once the largest partition exceeds
    #: this multiple of the mean partition size; see
    #: ``DITAEngine.maybe_repartition``.
    repartition_skew_ratio: float = 4.0
    #: serving layer (:mod:`repro.serving`): maximum requests admitted but
    #: not yet completed; arrivals beyond it are shed with a typed
    #: :class:`~repro.serving.admission.QueueFullError`.
    max_inflight: int = 64
    #: serving layer: per-tenant token-bucket refill rate, requests per
    #: simulated second (the burst capacity is ``tenant_burst``).
    tenant_rate: float = 32.0
    #: serving layer: per-tenant token-bucket burst capacity.
    tenant_burst: float = 8.0
    #: serving layer: per-tenant queued-request ceiling; arrivals beyond it
    #: are shed even when the global ``max_inflight`` still has room.
    serving_queue_depth: int = 32
    #: serving layer: result-cache capacity in (estimated) bytes; 0
    #: disables the result cache.
    result_cache_bytes: int = 4 * 1024 * 1024
    #: the seed of the run's data, carried with the configuration.
    seed: int = 0

    def __post_init__(self) -> None:
        for name, (low, closed, integral) in _BOUNDS.items():
            value = getattr(self, name)
            kind = Integral if integral else Real
            ok = (
                isinstance(value, kind)
                and not isinstance(value, bool)
                and math.isfinite(value)
                and (value >= low if closed else value > low)
            )
            if not ok:
                what = "an integer" if integral else "a finite number"
                raise ValueError(
                    f"{name} must be {what} {'>=' if closed else '>'} {low}, got {value!r}"
                )
        if self.pivot_strategy not in ("inflection", "neighbor", "first_last"):
            raise ValueError(f"unknown pivot strategy {self.pivot_strategy!r}")
        if self.backend not in ("simulated", "process"):
            raise ValueError(f"unknown backend {self.backend!r}")

    @property
    def cost_lambda(self) -> float:
        """λ = 1 / (Δ · B), Section 6.2's tuning constant between network
        bytes and candidate-pair computation."""
        return 1.0 / (self.comp_time_per_pair * self.network_bandwidth)

    def with_options(self, **kwargs) -> "DITAConfig":
        """Functional update, e.g. ``cfg.with_options(num_pivots=5)``."""
        return replace(self, **kwargs)
