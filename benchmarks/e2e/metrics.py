"""Which end-to-end metric, on which workload, each layer metric should move.

``BENCHMARK.json`` at the repository root declares the metrics (names,
units, bounds) and is the only place that does; this file adds what the
contract has no room for.  The four end-to-end metrics are the same for
every workload, so a target is written ``workload:metric``; an empty list
is a metric of the trace, the host or the process pool, which no workload
measures end to end.  README.md spells out the predicted "no change"
pairings.
"""

from __future__ import annotations

from typing import Dict, List

#: metrics that are counts on the simulated clock, not wall time
SIM_METRICS = ("serving.shed_ratio",)

# city_read: the fast queries (searches, SQL selects) are nine tenths of its
# operations and set the median; the kNN queries are the slowest tenth and
# nine tenths of the time, so they set the tail and the rate
_SEARCH = ["city_read:op_p50_ms"]
_KNN = ["city_read:op_tail_ms", "city_read:ops_per_s"]
_JOIN = ["dense_join:op_p50_ms", "dense_join:ops_per_s"]
_SETUP = ["city_read:setup_s", "served_mixed:setup_s"]
_STREAM_READ = ["stream_mixed:op_p50_ms", "stream_mixed:op_tail_ms"]
_STREAM_RATE = ["stream_mixed:ops_per_s"]
_SERVED = ["served_mixed:ops_per_s", "served_mixed:op_tail_ms"]

#: layer metric -> the workload:metric pairs it should move
MOVES: Dict[str, List[str]] = {
    # repro.storage
    "storage.columnar_build_s": _SETUP,
    "storage.store_build_s": ["stream_mixed:setup_s"],
    "storage.store_open_ms": _STREAM_RATE,
    "storage.partition_load_ms": _STREAM_RATE,
    "storage.view_us": _SEARCH,
    "storage.delta_append_us": _STREAM_RATE,
    "storage.delta_flush_ms": _STREAM_READ,
    "storage.merge_s": _STREAM_RATE,
    "storage.reopen_ms": _STREAM_RATE,
    "storage.merge_bytes": _STREAM_RATE,
    "storage.bytes_per_point": _SETUP,
    # repro.core.global_index
    "global_index.build_s": _SETUP,
    "global_index.prune_us": _SEARCH,
    "global_index.kept_ratio": _SEARCH,
    # repro.core.trie + repro.kernels.frontier
    "trie.build_s": _SETUP + _STREAM_READ,
    "trie.filter_us": _SEARCH,
    "trie.batch_filter_us_per_query": _JOIN,
    "trie.candidates_per_query": _SEARCH + _KNN,
    "trie.nodes_visited_per_query": _SEARCH,
    "trie.bytes_per_traj": _SETUP,
    # repro.core.verify + repro.kernels.batch
    "verify.prepare_us": _SEARCH + _JOIN,
    "verify.mbr_us": _KNN + _JOIN,
    "verify.cell_us": _KNN + _JOIN,
    "verify.mbr_pruned_ratio": _KNN + _JOIN,
    "verify.cell_pruned_ratio": _KNN + _JOIN,
    "verify.accept_ratio": _KNN + _JOIN,
    # repro.kernels.wavefront through verifier.exact_fn
    "kernel.dp_us_per_pair": _JOIN + _SEARCH + _KNN,
    "kernel.dp_pairs": _JOIN + _SEARCH + _KNN,
    "kernel.dp_cells_per_s": _JOIN + _SEARCH + _KNN,
    # repro.core.engine: what the entry point adds to the replayed layers
    "engine.overhead_us": _SEARCH + _SERVED,
    # repro.core.knn
    "knn.search_rounds_per_query": _KNN,
    "knn.exact_per_result": _KNN,
    "knn.candidates_per_query": _KNN,
    "knn.filter_us": _KNN,
    "knn.cell_us": _KNN,
    "knn.dp_us": _KNN,
    # repro.core.join + repro.core.costmodel
    "join.plan_s": _JOIN,
    "join.execute_s": _JOIN,
    "join.candidate_pairs": _JOIN,
    "join.verified_pairs": _JOIN,
    "join.result_pairs": _JOIN,
    # repro.cluster.parallel + repro.cluster.tasks: measured in dense_join's
    # traced run only (see workloads.PoolJoin), so they move no bounded metric
    "pool.spawn_s": [],
    "pool.join_s": [],
    "pool.roundtrip_ms": [],
    "pool.pickle_bytes_per_task": [],
    "pool.tasks": [],
    "pool.speedup": [],
    # repro.sql
    "sql.parse_us": _SEARCH + _SERVED,
    "sql.plan_us": _SEARCH + _SERVED,
    "sql.physical_us": _SEARCH + _SERVED,
    "sql.exec_us": _SEARCH + _SERVED,
    "sql.overhead_ratio": _SEARCH,
    # repro.serving
    "serving.hit_ratio": _SERVED + ["served_mixed:op_p50_ms"],
    "serving.candidate_hit_ratio": _SERVED,
    "serving.invalidations": _SERVED,
    "serving.overhead_us": _SERVED,
    "serving.hit_us": ["served_mixed:op_p50_ms"],
    "serving.shed_ratio": _SERVED,
    # the trace itself and the host it ran on
    "obs.tracing_overhead_ratio": [],
    "trace.coverage": [],
    "host.spin_us": [],
}
