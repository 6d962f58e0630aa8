"""DITA configuration (the paper's Table 3 parameters)."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DITAConfig:
    """Tunable parameters of the DITA index and join planner.

    Defaults follow the paper's Table 3 (scaled where the paper's default
    depends on dataset size): ``num_global_partitions`` is the paper's
    ``NG`` (total partitions = NG * NG), ``trie_fanout`` is ``NL``,
    ``num_pivots`` is ``K``.
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
    #: side length for cell-based compression, D of Lemma 5.6.  When None it
    #: is derived from the expected threshold (2 * tau is a good default).
    cell_size: float = 0.004
    #: cost-model lambda numerator pieces: average verification time per
    #: candidate pair (Delta, seconds) and network bandwidth (B, bytes/s).
    comp_time_per_pair: float = 2e-5
    network_bandwidth: float = 125e6  # 1 Gbps in bytes/s
    #: enable the Lemma 5.1 suffix optimization during trie filtering.
    use_suffix_pruning: bool = True
    #: install the observability layer (:mod:`repro.obs`): a span tracer on
    #: the engine's cluster plus a metrics registry on the engine.  Results
    #: are identical either way; off (the default) costs one attribute
    #: check per task.
    use_tracing: bool = False
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
    #: trigger a background merge (compaction into a new catalog
    #: generation) once rows written since the last merge exceed this
    #: fraction of the indexed rows; see ``DITAEngine.maybe_merge``.
    merge_trigger: float = 0.25
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
    #: enable the MBR coverage filter (Lemma 5.4) during verification.
    use_mbr_coverage: bool = True
    #: enable the cell-based lower bound (Lemma 5.6) during verification.
    use_cell_filter: bool = True
    #: random seed for sampling steps.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_global_partitions < 1:
            raise ValueError("num_global_partitions must be >= 1")
        if self.trie_fanout < 1:
            raise ValueError("trie_fanout must be >= 1")
        if self.num_pivots < 0:
            raise ValueError("num_pivots must be >= 0")
        if self.pivot_strategy not in ("inflection", "neighbor", "first_last"):
            raise ValueError(f"unknown pivot strategy {self.pivot_strategy!r}")
        if self.trie_leaf_capacity < 1:
            raise ValueError("trie_leaf_capacity must be >= 1")
        if self.cell_size is not None and self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if self.delta_max_rows < 1:
            raise ValueError("delta_max_rows must be >= 1")
        if self.merge_trigger <= 0:
            raise ValueError("merge_trigger must be positive")
        if self.repartition_skew_ratio < 1:
            raise ValueError("repartition_skew_ratio must be >= 1")
        if self.backend not in ("simulated", "process"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.num_processes < 0:
            raise ValueError("num_processes must be >= 0")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.tenant_rate <= 0:
            raise ValueError("tenant_rate must be positive")
        if self.tenant_burst < 1:
            raise ValueError("tenant_burst must be >= 1")
        if self.serving_queue_depth < 1:
            raise ValueError("serving_queue_depth must be >= 1")
        if self.result_cache_bytes < 0:
            raise ValueError("result_cache_bytes must be >= 0")

    @property
    def cost_lambda(self) -> float:
        """λ = 1 / (Δ · B), Section 6.2's tuning constant between network
        bytes and candidate-pair computation."""
        return 1.0 / (self.comp_time_per_pair * self.network_bandwidth)

    def with_options(self, **kwargs) -> "DITAConfig":
        """Functional update, e.g. ``cfg.with_options(num_pivots=5)``."""
        return replace(self, **kwargs)
