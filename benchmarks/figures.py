"""Every table and figure of DITA's evaluation (PAPER.md Section 7,
Appendices B/C) at reproduction scale, from one declarative table, plus
the ``ext-*`` figures that time this implementation's own extensions
(kNN, the pair-batched kernels, the store's cold start, streaming).

    python benchmarks/figures.py [--out RESULTS.jsonl] [--only fig7 fig8 ...]

:data:`FIGURES` maps a figure id to its panels; a :class:`Panel` names
its dataset, swept parameter and values, series, metric, unit and clock.
Each panel prints as a paper-style table; ``--out`` writes one JSON line
per value: ``figure, panel, series, x, value, unit, clock, n, seed,
cpu_count, git_sha`` (``n``, ``seed``: the dataset's size and generator
seed, before any swept sample rate).  ``clock`` is

* ``sim`` for a simulated cluster's makespan or load ratio: every task is
  priced by the measured wall time of the real algorithm
  (``wall_clock_measure``), every shipment by :data:`BENCH_NETWORK`;
* ``wall`` for host time read through ``repro.cluster.clock.wall_clock``;
* absent for counts and sizes.

Absolute numbers differ from the paper's (Python on one host, ~1/10^4 of
its data); the target is the shape -- who wins, by what rough factor, how
curves move (EXPERIMENTS.md).  ``test_figures.py`` asserts those shapes.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import math
import os
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import DITAConfig, DITAEngine
from repro.baselines import DFTEngine, MBEIndex, NaiveEngine, SimbaEngine, VPTree
from repro.cluster import Cluster, NetworkModel, RandomPartitioner
from repro.cluster.clock import wall_clock, wall_clock_measure
from repro.core.adapters import DTWAdapter, EDRAdapter, LCSSAdapter
from repro.core.bounds import pamd
from repro.core.knn import knn_search
from repro.core.pivots import pivot_indices
from repro.core.search import search_rows
from repro.core.trie import TrieIndex
from repro.core.verify import VerificationData, Verifier
from repro.datagen import beijing_like, chengdu_like, citywide_dataset, osm_like, sample_queries, worldwide_dataset
from repro.distances import dtw, dtw_double_direction, frechet, frechet_threshold, get_distance
from repro.geometry.cell import CellSet
from repro.geometry.point import pairwise_distances
from repro.kernels.batch import compress_cells
from repro.kernels.pairbatch import _sweep, dtw_double_direction_batch, frechet_threshold_batch
from repro.obs import MetricsRegistry
from repro.storage import ColumnarDataset
from repro.storage.columnar import partition_rows
from repro.storage.store import TrajectoryStore, build_store
from repro.trajectory import Trajectory, dataset_stats, load_csv, save_csv

#: the paper's tau sweep (degrees; 0.001 ~ 111 m) and the default tau of
#: every panel that sweeps something else
TAUS = (0.001, 0.002, 0.003, 0.004, 0.005)
TAU = 0.003
RATES = (0.25, 0.5, 0.75, 1.0)
WORKERS = (4, 8, 12, 16)
EDIT_TAUS = (1, 2, 3, 4, 5)
SAMPLE_SEED = 3
QUERY_SEED = 7

#: name -> (generator, trajectories, seed, generator options): the paper's
#: Beijing / Chengdu / OSM at ~1/10^4 scale, plus the denser citywide sets
#: the joins run on and their hotspot-skewed variants (Fig. 16)
_CITY_B = dict(avg_len=22, min_len=7, max_len=112)
_CITY_C = dict(avg_len=37, min_len=10, max_len=209)
DATASETS: Dict[str, Tuple[Callable[..., ColumnarDataset], int, int, Dict[str, Any]]] = {
    "beijing": (beijing_like, 3000, 101, {}),
    "chengdu": (chengdu_like, 3000, 102, {}),
    "osm": (osm_like, 800, 103, {}),
    "beijing_join": (citywide_dataset, 800, 104, dict(_CITY_B, duplication=2)),
    "chengdu_join": (citywide_dataset, 800, 105, dict(_CITY_C, duplication=2)),
    "osm_join": (worldwide_dataset, 800, 106, dict(avg_len=60, min_len=9)),
    "beijing_skew": (citywide_dataset, 800, 107, dict(_CITY_B, duplication=3, zone_skew=2.5)),
    "chengdu_skew": (citywide_dataset, 800, 108, dict(_CITY_C, duplication=3, zone_skew=2.5)),
    # the cold-start and delta-read ratios' two scales, and the base of
    # the hot-corner stream the repartitioning panel feeds
    "city_2k": (citywide_dataset, 2000, 11, dict(avg_len=24, min_len=4, max_len=64)),
    "city_10k": (citywide_dataset, 10000, 11, dict(avg_len=24, min_len=4, max_len=64)),
    "hot_stream": (citywide_dataset, 600, 11, dict(avg_len=16)),
    # the cell compression panel's blocks: the e2e workloads' cities
    # (city_read's Beijing, dense_join's Chengdu, both on seed 2018), and
    # one trip as long as a day of GPS fixes
    "beijing_8k": (beijing_like, 8000, 2018, {}),
    "chengdu_632": (chengdu_like, 632, 2018, {}),
    "long_trip": (citywide_dataset, 1, 11, dict(avg_len=3000, min_len=3000, max_len=3000)),
}

#: the datasets are ~1/10^4 of the paper's and Python verifies a pair ~50x
#: slower than the authors' Scala, so a 1 Gbps model would make transfer
#: unrealistically free next to compute; scaling bandwidth by the same
#: factor keeps the paper's compute/communication ratio (DESIGN.md)
BENCH_NETWORK = NetworkModel(bandwidth_bytes_per_s=2e6, latency_s=0.0002)

#: fixed driver-side cost per query or join (result collection at the
#: master), so tiny-cluster latencies never read as exactly zero
DRIVER_OVERHEAD_S = 1e-4

SEARCH_METHODS = ("naive", "simba", "dft", "dita")
JOIN_METHODS = ("simba", "dita")
BASELINES = {"naive": NaiveEngine, "simba": SimbaEngine, "dft": DFTEngine}
#: the edit distances, by name (their tau is an edit budget)
EDIT_ADAPTERS = {"edr": EDRAdapter(epsilon=0.0005), "lcss": LCSSAdapter(epsilon=0.0005, delta=3)}

def cached(fn):
    """Memoise ``fn`` on its bound arguments, defaults filled in, so that
    ``f(a)`` and ``f(a, default)`` share one entry: every panel of a pass
    shares its datasets, engines and runs."""
    signature, memo = inspect.signature(fn), {}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.values())
        if key not in memo:
            memo[key] = fn(*args, **kwargs)
        return memo[key]

    return wrapper


@cached
def data(name: str) -> ColumnarDataset:
    """A dataset by name; ``name@rate`` is its deterministic sample."""
    base, _, rate = name.partition("@")
    if rate:
        return data(base).sample(float(rate), seed=SAMPLE_SEED)
    make, n, seed, options = DATASETS[base]
    return make(n, seed=seed, **options)


def sampled(name: str, rate: float) -> str:
    return name if rate == 1.0 else f"{name}@{rate}"


@cached
def queries(name: str, n: int) -> List[Trajectory]:
    """The paper samples its queries from the dataset itself."""
    return sample_queries(data(name), n, seed=QUERY_SEED)


def config(**overrides) -> DITAConfig:
    base = dict(
        num_global_partitions=4,
        trie_fanout=8,
        num_pivots=4,
        trie_leaf_capacity=8,
        cell_size=0.004,
        # the Section 6.2 lambda calibrated to this environment: Python
        # verifies a candidate pair in ~0.5 ms and BENCH_NETWORK moves
        # 2e6 bytes/s, so lambda = 1 / (Delta * B) prices bytes correctly
        comp_time_per_pair=5e-4,
        network_bandwidth=BENCH_NETWORK.bandwidth_bytes_per_s,
    )
    base.update(overrides)
    return DITAConfig(**base)


@cached
def engine(method: str, name: str, workers: int = 16, distance: str = "dtw", overrides: Tuple = ()):
    """A distributed engine over dataset ``name``: ``dita``, ``random``
    (DITA's engine adopting random partitions, Fig. 13) or a baseline, all
    on the same wall-priced cluster settings."""
    cluster = Cluster(workers, network=BENCH_NETWORK, measure=wall_clock_measure)
    adapter = EDIT_ADAPTERS.get(distance, distance)
    if method == "dita":
        return DITAEngine(data(name), config(**dict(overrides)), distance=adapter, cluster=cluster)
    if method == "random":
        parts = RandomPartitioner(16, seed=3).partition(data(name))
        return DITAEngine.from_partitions(dict(enumerate(parts)), config(), distance=adapter, cluster=cluster)
    return BASELINES[method](data(name), n_partitions=16, distance=adapter, cluster=cluster)


@cached
def centralized(method: str, name: str, distance: str):
    """Appendix C's single-machine indexes: DITA on one worker and one
    partition group, with single-trajectory leaves so its pruning power is
    compared at full granularity; MBE; the VP-tree (Fréchet only)."""
    if method == "dita":
        cfg = config(num_global_partitions=1, trie_leaf_capacity=1, num_pivots=5)
        return DITAEngine(data(name), cfg, distance=distance, cluster=Cluster(1))
    if method == "mbe":
        return MBEIndex(data(name), distance)
    return VPTree(data(name))


def per_query(fn: Callable[[Trajectory], float], qs: Sequence[Trajectory]) -> Tuple[float, float]:
    """Mean of ``fn(q)`` over ``qs`` and the mean wall time of a call (ms)."""
    start = wall_clock()
    total = sum(fn(q) for q in qs)
    return total / len(qs), (wall_clock() - start) / len(qs) * 1000.0


def search_ms(method: str, name: str, tau: float, workers: int = 16, distance: str = "dtw",
              overrides: Tuple = ()) -> float:
    """Mean simulated latency of a query running alone: the makespan of its
    tasks plus the driver overhead (ms).  Queries come from the unsampled
    dataset."""
    eng = engine(method, name, workers, distance, overrides)

    def latency(q: Trajectory) -> float:
        eng.cluster.reset_clocks()
        eng.search(q, tau)
        return eng.cluster.report().makespan + DRIVER_OVERHEAD_S

    return per_query(latency, queries(name.partition("@")[0], 15))[0] * 1000.0


@cached
def join_run(method: str, name: str, tau: float, workers: int = 16, distance: str = "dtw",
             overrides: Tuple = (), balanced: bool = True):
    """One self-join: ``(report, stats, result pairs)``, cached so that
    panels reading different metrics of one run share it; ``stats`` holds
    the join's ``join.*`` counters (none for Simba, which has no planner)."""
    eng = engine(method, name, workers, distance, overrides)
    eng.cluster.reset_clocks()
    stats = MetricsRegistry()
    if method == "simba":  # partition-to-partition shipping, no planner
        pairs = eng.join(eng, tau)
    else:
        pairs = eng.join(eng, tau, use_orientation=balanced, use_division=balanced, stats=stats)
    return eng.cluster.report(), stats, len(pairs)


def join_s(method: str, name: str, tau: float, workers: int = 16, distance: str = "dtw",
           overrides: Tuple = ()) -> float:
    """Simulated join time: makespan plus the driver overhead (s)."""
    return join_run(method, name, tau, workers, distance, overrides)[0].makespan + DRIVER_OVERHEAD_S


def candidates_per_query(method: str, name: str, tau: float, overrides: Tuple = ()) -> float:
    eng = engine(method, name, 16, "dtw", overrides)
    return per_query(lambda q: eng.count_candidates(q, tau), queries(name, 10))[0]


def load_ratio(name: str, tau: float, balanced: bool) -> float:
    """Busiest over least busy worker of a 32-worker join (one worker per
    partition, so partition-level balance shows at the worker level); a
    worker left idle is priced at the mean share instead."""
    report = join_run("dita", name, tau, 32, "dtw", (), balanced)[0]
    if math.isinf(report.load_ratio):
        return report.makespan / max(1e-9, report.total_compute_s / 16)
    return report.load_ratio


def centralized_query(method: str, name: str, distance: str, tau: float, timed: bool) -> float:
    """Mean query time (ms) or mean candidates per query of one index."""
    index = centralized(method, name, distance)
    fn = (lambda q: len(index.search(q, tau))) if timed else (lambda q: index.count_candidates(q, tau))
    return per_query(fn, queries(name, 6))[1 if timed else 0]


def flat_pamd_candidates(q: Trajectory, tau: float) -> int:
    """A single-level index: the pivot bound checked against every trajectory."""
    cfg = config()
    return sum(
        pamd(t.points, q.points, pivot_indices(t.points, cfg.num_pivots, cfg.pivot_strategy)) <= tau
        for t in data("beijing")
    )


@cached
def beijing_trie() -> TrieIndex:
    return TrieIndex(list(data("beijing")), config())


FILTERS = ("trie+suffix", "trie", "flat PAMD")


@cached
def filter_run(variant: str, tau: float) -> Tuple[float, float]:
    """Mean candidates and mean filter time (ms) per query of one filter."""
    trie, adapter = beijing_trie(), DTWAdapter(use_suffix_pruning=variant == "trie+suffix")
    if variant == "flat PAMD":
        return per_query(lambda q: flat_pamd_candidates(q, tau), queries("beijing", 10))
    return per_query(lambda q: len(trie.filter_candidates(q.points, tau, adapter)), queries("beijing", 10))


VERIFY_CONFIGS = {
    "exact only": (False, False),
    "+mbr": (True, False),
    "+cells": (False, True),
    "full": (True, True),
}
VERIFY_STAGES = ("pairs", "mbr-kill", "cell-kill", "exact", "matches")


@cached
def verify_run(label: str) -> Tuple[Dict[str, int], float]:
    """One verifier configuration over the same candidate stream: where the
    pairs die and the matches, per query, and the mean search time (ms)."""
    use_mbr, use_cells = VERIFY_CONFIGS[label]
    adapter, trie, counts = DTWAdapter(), beijing_trie(), MetricsRegistry()
    verifier = Verifier(adapter, use_mbr_coverage=use_mbr, use_cell_filter=use_cells)

    def search(q: Trajectory) -> int:
        q_data = VerificationData.of(q, config().cell_size)
        return len(search_rows(trie, adapter, verifier, [q.points], [TAU], [q_data], counts)[0])

    qs = queries("beijing", 10)
    matches, elapsed = per_query(search, qs)
    names = ("pairs", "pruned_by_mbr", "pruned_by_cells", "exact_computed")
    per_stage = [counts.value(f"verify.{name}") / len(qs) for name in names]
    return dict(zip(VERIFY_STAGES, per_stage + [matches])), elapsed


#: ext-knn's series: DITA's kNN under DTW (``dita``) against a DTW scan
#: (``brute``), and DITA's kNN under the two max-accumulating distances
KNN_DISTANCES = {"dita": "dtw", "frechet": "frechet", "hausdorff": "hausdorff"}
#: per kNN query, from the engine's ``knn.*`` counters: rows the verifier
#: took, rows its MBR stage cut (Lemma 5.4 coverage and the box bound),
#: rows past that stage (Lemma 5.6's input plus the rows a task verifies
#: at tau = inf, which no filter sees), DPs, and trie nodes visited
KNN_STAGES = ("pairs", "mbr-cut", "past-mbr", "dps", "trie-nodes")
KNN_K = 10


def knn_ms(method: str, k: int) -> float:
    """Mean top-k time per query (ms): DITA's best-first kNN or a scan that
    computes every DTW distance and sorts."""
    points = [(t.traj_id, t.points) for t in data("beijing")]
    dtw = get_distance("dtw")

    def brute(q: Trajectory) -> int:
        return len(sorted(((dtw.compute(p, q.points), tid) for tid, p in points))[:k])

    if method == "brute":
        return per_query(brute, queries("beijing", 8))[1]
    eng = engine("dita", "beijing", distance=KNN_DISTANCES[method])
    return per_query(lambda q: len(knn_search(eng, q, k)), queries("beijing", 8))[1]


@cached
def knn_counts(distance: str) -> Dict[str, float]:
    """Per query, where a k = 10 kNN's rows go (``KNN_STAGES``), read from
    the ``knn.*`` counters of a traced engine."""
    # an engine of its own: tracing the cached one would trace panel (a)
    eng = engine.__wrapped__("dita", "beijing", distance=distance)
    eng.enable_tracing()
    qs = queries("beijing", 8)
    for q in qs:
        knn_search(eng, q, KNN_K)
    m = eng.metrics
    pairs, cut = m.value("knn.verify.pairs"), m.value("knn.verify.pruned_by_mbr")
    counts = (pairs, cut, pairs - cut, m.value("knn.verify.exact_computed"), m.value("knn.filter.nodes_visited"))
    return {stage: c / len(qs) for stage, c in zip(KNN_STAGES, counts)}


def best_of(calls: Dict[str, Callable[[], object]], reps: int) -> Dict[str, float]:
    """The least wall time (s) of ``reps`` calls of each of ``calls``, made
    in turn so that a change in host load hits them all alike; noise on a
    shared host only ever adds, so the minimum is the steadiest figure."""
    best = dict.fromkeys(calls, math.inf)
    for _ in range(reps):
        for key, call in calls.items():
            start = wall_clock()
            call()
            best[key] = min(best[key], wall_clock() - start)
    return best


#: ext-kernels: pairs per exact-stage call, from one partition's share of
#: a search (1, 2) through a kNN round's (6, 48) to a join chunk's (256),
#: at the lengths Beijing and Chengdu trips average
PAIR_COUNTS = (1, 2, 6, 48, 256)
PAIR_LENGTHS = {"beijing": 24, "chengdu": 40}
PAIR_KERNELS = {
    "dtw": (dtw_double_direction, dtw_double_direction_batch, dtw),
    "frechet": (frechet_threshold, frechet_threshold_batch, frechet),
}


@cached
def kernel_pairs(name: str) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """The first ``max(PAIR_COUNTS)`` trips of ``name`` long enough to cut
    to its average length, each against a noisy re-observation of itself."""
    n, rng = PAIR_LENGTHS[name], np.random.default_rng(SAMPLE_SEED)
    ts = [t.points[:n] for t in data(name) if len(t) >= n][: max(PAIR_COUNTS)]
    return ts, [t + rng.normal(scale=1e-4, size=t.shape) for t in ts]


@cached
def pair_us(kernel: str, name: str, pairs: int) -> Dict[str, float]:
    """µs a pair of the exact stage: the per-pair kernel in a loop
    (``loop``) against one pair-batched call (``batch``).  Each threshold
    is 1.5x its pair's distance, so no table abandons early; the answers
    are compared bit for bit before anything is timed."""
    single, batch, exact = PAIR_KERNELS[kernel]
    ts, qs = (side[:pairs] for side in kernel_pairs(name))
    taus = [1.5 * exact(t, q) for t, q in zip(ts, qs)]
    calls = {
        "loop": lambda: np.asarray([single(t, q, tau) for t, q, tau in zip(ts, qs, taus)]),
        "batch": lambda: batch(ts, qs, taus),
    }
    assert np.array_equal(calls["loop"]().view(np.uint64), calls["batch"]().view(np.uint64)), kernel
    return {key: s / pairs * 1e6 for key, s in best_of(calls, 9).items()}


@cached
def sweep_terms(name: str) -> Tuple[float, float]:
    """The two costs ``pairbatch.DIAGONAL_OVERHEAD_CELLS`` weighs, from the
    DTW half-tables of ``name``'s pairs: µs a diagonal (one pair's two
    half-tables, nothing to amortise the numpy calls over) and ns a padded
    cell (what the other 255 pairs add, per cell)."""
    n = PAIR_LENGTHS[name]
    half = (n + 1) // 2
    tables = [pairwise_distances(t[:half], q) for t, q in zip(*kernel_pairs(name)) for _ in range(2)]
    s = best_of({k: functools.partial(_sweep, ts, np.full(len(ts), math.inf), np.add)
                 for k, ts in (("few", tables[:2]), ("many", tables))}, 9)
    return s["few"] * 1e6 / (half + n - 1), (s["many"] - s["few"]) * 1e9 / ((len(tables) - 2) * half * n)


#: ext-kernels (g): the blocks whose cells are compressed
CELL_BLOCKS = ("beijing_8k", "chengdu_632", "long_trip")


@cached
def cells_us(name: str) -> Dict[str, float]:
    """µs a point of Lemma 5.6's cell compression over one block:
    ``CellSet.from_points`` row by row (``loop``) against one block-wide
    ``compress_cells`` pass (``block``).  A city's block is its largest of
    the engine's NG x NG partitions; ``long_trip`` is one row.  The cells
    are compared bit for bit before anything is timed."""
    dataset, side = data(name), config().cell_size
    block = dataset.subset(max(partition_rows(dataset, config().num_global_partitions), key=len))
    coords, starts = block.point_coords, block.point_starts

    def loop():
        sets = [CellSet.from_points(coords[a:b], side) for a, b in zip(starts[:-1], starts[1:])]
        return np.concatenate([c.centers for c in sets]), np.concatenate([c.counts for c in sets])

    calls = {"loop": loop, "block": lambda: compress_cells(coords, starts, side)}
    (want_c, want_n), (got_c, got_n, _) = calls["loop"](), calls["block"]()
    assert np.array_equal(want_c.view(np.uint64), got_c.view(np.uint64)), name
    assert np.array_equal(want_n, got_n), name
    return {key: s / block.n_points * 1e6 for key, s in best_of(calls, 5).items()}


@cached
def cold_start(name: str) -> Dict[str, float]:
    """Time to first result (s): parse a CSV and build every partition
    (``parse``) against opening the memory-mapped store and indexing only
    the partitions one search reaches (``reload``).  Both end with the same
    search, whose answers are compared before anything is timed."""
    with tempfile.TemporaryDirectory(prefix="figures-storage-") as work:
        csv, store = Path(work) / "trips.csv", Path(work) / "store"
        save_csv(data(name), csv)
        build_store(data(name), store, n_groups=config().num_global_partitions)
        query = Trajectory(-1, data(name).points(0))
        paths = {
            "parse": lambda: DITAEngine(load_csv(csv), config()).search_ids(query, TAU),
            "reload": lambda: DITAEngine.from_store(TrajectoryStore.open(store), config()).search_ids(query, TAU),
        }
        assert paths["parse"]() == paths["reload"](), name
        times = best_of(paths, 3)
    return dict(times, ratio=times["parse"] / times["reload"])


def stream_config(**overrides) -> DITAConfig:
    """Eight partitions; pending rows flush when a read needs them, never
    on a size trigger."""
    return config(num_global_partitions=8, delta_max_rows=100_000, **overrides)


@cached
def delta_read(name: str) -> Dict[str, float]:
    """A batch search's ms a query on an engine that took ``n / 20``
    appends through its delta path, reads interleaved (``streamed``),
    against one bulk-built over the same final rows (``bulk``): the price
    of routing appends instead of rebuilding.  Answers are compared before
    anything is timed, at tau and at 10 tau, where most queries match."""
    base, rng = data(name), np.random.default_rng(DATASETS[name][2])
    streamed = DITAEngine(base, stream_config())
    qs = sample_queries(base, 16, seed=5, perturb=0.0004)
    taus = [TAU] * len(qs)
    appended = []
    n_appends = max(64, len(base) // 20)
    for k in range(n_appends):
        src = base.points(int(rng.integers(0, len(base))))
        appended.append(Trajectory(1_000_000 + k, src + rng.normal(0.0, 0.0004, src.shape)))
        streamed.append_trajectory(appended[-1].traj_id, appended[-1].points)
        if (k + 1) % (n_appends // 8) == 0:
            streamed.search_batch_rows(qs[:4], taus[:4])
    bulk = DITAEngine(ColumnarDataset.from_trajectories(list(base) + appended), stream_config())
    engines = {"streamed": streamed, "bulk": bulk}
    for tau in (TAU, 10 * TAU):
        answers = [[sorted(t.traj_id for t, _ in hits) for hits in eng.search_batch(qs, [tau] * len(qs))]
                   for eng in engines.values()]
        assert answers[0] == answers[1], (name, tau)
    times = best_of({key: functools.partial(eng.search_batch_rows, qs, taus) for key, eng in engines.items()}, 15)
    return dict({key: s * 1e3 / len(qs) for key, s in times.items()}, ratio=times["streamed"] / times["bulk"])


HOT_APPENDS = 200
HOT_CORNER = (0.19, 0.19)


def hot_stream(adaptive: bool) -> Tuple[List[float], int]:
    """Appends into one corner with probes there after every tenth of the
    stream, on a 4-worker wall-priced cluster: the makespan after each
    probe batch and the repartitions made.  ``adaptive`` calls
    ``maybe_repartition`` (skew ratio 2.0) after every append and pays the
    migration's shipping on the default network; both runs see the same
    stream."""
    cluster = Cluster(4, measure=wall_clock_measure)
    eng = DITAEngine(data("hot_stream"), stream_config(repartition_skew_ratio=2.0), cluster=cluster)
    rng, hot = np.random.default_rng(7), np.asarray(HOT_CORNER)
    makespans, repartitions = [], 0
    for k in range(HOT_APPENDS):
        eng.append_trajectory(2_000_000 + k, hot + rng.random((6, 2)) * 0.004)
        if adaptive and eng.maybe_repartition():
            repartitions += 1
        if (k + 1) % (HOT_APPENDS // 10) == 0:
            probes = [Trajectory(-1 - j, hot + rng.random((6, 2)) * 0.004) for j in range(8)]
            eng.search_batch_rows(probes, [TAU] * len(probes))
            makespans.append(cluster.report().makespan)
    return makespans, repartitions


@cached
def hot_streams() -> Dict[str, Tuple[List[float], int]]:
    """:func:`hot_stream` static and adaptive, alternately five times each;
    per series, the run with the median final makespan (tasks are priced
    by their wall time, so one run's makespan moves by a quarter)."""
    runs = [(s, hot_stream(s == "adaptive")) for _ in range(5) for s in ("static", "adaptive")]
    return {s: sorted((run for t, run in runs if t == s), key=lambda run: run[0][-1])[2]
            for s in ("static", "adaptive")}


@dataclass(frozen=True)
class Panel:
    """One paper panel: ``measure(series, x)`` for every series and x.

    ``dataset`` is None where the series themselves are dataset names.
    ``versus`` lists series whose geo-mean ratio to ``dita`` is printed.
    """

    key: str
    title: str
    dataset: Optional[str]
    series: Sequence[str]
    measure: Callable[[str, Any], float]
    unit: str
    clock: Optional[str] = None
    versus: Sequence[str] = ()
    param: str = "tau"
    xs: Sequence = TAUS


class Figure(NamedTuple):
    title: str
    paper: str
    panels: Sequence[Panel]


def sweep_panels(name: str, run: Callable[..., float], unit: str, methods: Sequence[str],
                 scaled: Optional[Sequence[str]] = None) -> List[Panel]:
    """Panels (a)-(d) of Figs. 7-10: vary tau; vary the sample rate
    (scalability); vary the workers (scale-up); vary both together
    (scale-out).  ``scaled`` narrows the methods of (b)-(d)."""
    scaled = scaled or methods
    versus = tuple(m for m in methods if m != "dita")
    return [
        Panel("a", f"varying tau [{name}]", name, methods, lambda m, tau: run(m, name, tau), unit, "sim", versus),
        Panel("b", f"scalability: varying sample rate [{name}]", name, scaled,
              lambda m, r: run(m, sampled(name, r), TAU), unit, "sim", param="sample rate", xs=RATES),
        Panel("c", f"scale-up: varying workers [{name}]", name, scaled,
              lambda m, w: run(m, name, TAU, w), unit, "sim", param="workers", xs=WORKERS),
        Panel("d", f"scale-out: sample rate and workers together [{name}]", name, scaled,
              lambda m, rw: run(m, sampled(name, rw[0]), TAU, rw[1]), unit, "sim",
              param="rate, workers", xs=tuple(zip(RATES, WORKERS))),
    ]


def variant_panels(title: str, variants: Dict[str, Tuple], keys: str = "ab") -> List[Panel]:
    """DITA threshold-search time across tau, one series per trie variant,
    on each join dataset.  The paper times these trie knobs through the
    join; a DTW join walks no trie here (the flat join plan), so the
    panels time the search, which still does."""
    return [
        Panel(key, f"{title}, search [{name}]", name, tuple(variants),
              lambda v, tau, name=name: search_ms("dita", name, tau, overrides=variants[v]), "ms", "sim")
        for key, name in zip(keys, ("beijing_join", "chengdu_join"))
    ]


STRATEGIES = {s: (("pivot_strategy", s),) for s in ("inflection", "neighbor", "first_last")}
PIVOT_SIZES = {f"K={k}": (("num_pivots", k),) for k in (2, 3, 4, 5, 6)}
FANOUTS = {f"NL={nl}": (("trie_fanout", nl),) for nl in (4, 8, 16)}
NGS = (2, 4, 8, 12, 16)
TABLE2_STATS = ("trajectories", "avg len", "min len", "max len")
#: Table 7's index per method: DITA and MBE under DTW, the VP-tree under
#: Fréchet (it needs a metric)
TABLE7 = {"dita": "dtw", "mbe": "dtw", "vptree": "frechet"}


def _table2(name: str, stat: str) -> float:
    s = dataset_stats(data(name))
    return dict(zip(TABLE2_STATS, (s.cardinality, s.avg_len, s.min_len, s.max_len)))[stat]


def _table5(name: str, keys: str) -> List[Panel]:
    def index(method: str, rate: float):
        return engine(method, sampled(name, rate))

    return [
        Panel(keys[0], f"build time [{name}]", name, ("dita", "dft"), lambda m, r: index(m, r).build_time_s,
              "s", "wall", param="sample rate", xs=RATES),
    ] + [
        Panel(key, f"{which} index size [{name}]", name, ("dita", "dft"),
              lambda m, r, i=i: index(m, r).index_size_bytes()[i] / 1024, "KB", param="sample rate", xs=RATES)
        for i, (key, which) in enumerate(zip(keys[1:], ("global", "local")))
    ]


def _table7_kb(method: str, name: str) -> float:
    size = centralized(method, name, TABLE7[method]).index_size_bytes()
    return (sum(size) if method == "dita" else size) / 1024


def _centralized_panels(distance: str, name: str, methods: Sequence[str], keys: str) -> List[Panel]:
    return [
        Panel(keys[0], f"candidates per query [{name}, {distance}]", name, methods,
              lambda m, tau: centralized_query(m, name, distance, tau, False), "count"),
        Panel(keys[1], f"query time [{name}, {distance}]", name, methods,
              lambda m, tau: centralized_query(m, name, distance, tau, True), "ms", "wall", ("mbe",)),
    ]


def _balance_panels(name: str, keys: str) -> List[Panel]:
    series = ("balanced", "unbalanced")
    return [
        Panel(keys[0], f"load ratio [{name}]", name, series,
              lambda s, tau: load_ratio(name, tau, s == "balanced"), "x", "sim"),
        Panel(keys[1], f"total time [{name}]", name, series,
              lambda s, tau: join_run("dita", name, tau, 32, "dtw", (), s == "balanced")[0].makespan, "s", "sim"),
    ]


FIGURES: Dict[str, Figure] = {
    "table2": Figure(
        "Table 2: dataset statistics (scaled analogues)",
        "Beijing avg 22.2 len 7..112; Chengdu avg 37.4 len 10..209; OSM long worldwide traces",
        [
            Panel("a", "cardinality and lengths", None, ("beijing", "chengdu", "osm"), _table2, "count",
                  param="statistic", xs=TABLE2_STATS),
            Panel("b", "size", None, ("beijing", "chengdu", "osm"), lambda name, _: data(name).nbytes() / 1e6,
                  "MB", param="", xs=("size",)),
        ],
    ),
    "fig7": Figure(
        "Figure 7: search on Beijing (DTW)",
        "DITA ~1-2 ms vs Naive ~100 ms, DFT ~90 ms, Simba ~3-7 ms; DITA least sensitive to tau, "
        "scales nearly linearly",
        sweep_panels("beijing", search_ms, "ms", SEARCH_METHODS),
    ),
    "fig8": Figure(
        "Figure 8: search on Chengdu (DTW)",
        "Fig. 7's ordering with larger times; tau=0.005: Naive 418 ms, DFT 289 ms, Simba 24 ms, DITA 6 ms",
        sweep_panels("chengdu", search_ms, "ms", SEARCH_METHODS),
    ),
    "fig9": Figure(
        "Figure 9: join on Beijing (DTW), Simba vs DITA",
        "DITA wins by 1-2 orders of magnitude (tau=0.005: Simba 31594 s vs DITA 252 s); the gap "
        "widens with tau and data size.  Naive (quadratic shuffle) and DFT (per-query bitmaps, "
        "panel e) are excluded, as in Section 7.2.2",
        sweep_panels("beijing_join", join_s, "s", JOIN_METHODS) + [
            Panel("e", "DFT join bitmap memory, had it run [beijing_join]", "beijing_join", ("dft",),
                  lambda m, n: engine(m, "beijing_join").estimated_join_bitmap_bytes(n) / 1e6, "MB",
                  param="trajectories", xs=(DATASETS["beijing_join"][1],)),
        ],
    ),
    "fig10": Figure(
        "Figure 10: join on Chengdu (DTW)",
        "Simba incomplete beyond tau=0.002 in 24 h; DITA finishes the sweep and scales nearly "
        "linearly (panels b-d: DITA only, as in the paper)",
        sweep_panels("chengdu_join", join_s, "s", JOIN_METHODS, scaled=("dita",)),
    ),
    "fig11": Figure(
        "Figure 11: search and join on OSM, DTW and Frechet",
        "DITA ~0.1 s search vs >10 s baselines; only DITA completes the join; Frechet slower than "
        "DTW at equal tau; the OSM join is cheap because worldwide data is sparse",
        [
            Panel("a", "search [osm, dtw]", "osm", SEARCH_METHODS,
                  lambda m, tau: search_ms(m, "osm", tau), "ms", "sim", SEARCH_METHODS[:3]),
            Panel("b", "join, DITA only [osm_join, dtw]", "osm_join", ("dita",),
                  lambda m, tau: join_s(m, "osm_join", tau), "s", "sim"),
            Panel("c", "search [osm, frechet]", "osm", SEARCH_METHODS,
                  lambda m, tau: search_ms(m, "osm", tau, distance="frechet"), "ms", "sim", SEARCH_METHODS[:3]),
            Panel("d", "join, DITA only [osm_join, frechet]", "osm_join", ("dita",),
                  lambda m, tau: join_s(m, "osm_join", tau, distance="frechet"), "s", "sim"),
            Panel("e", "join candidate pairs per trajectory, worldwide vs citywide (dtw)", None,
                  ("osm_join", "chengdu_join"),
                  lambda name, tau: join_run("dita", name, tau)[1].value("join.candidate_pairs") / len(data(name)), "count"),
        ],
    ),
    "table4": Figure(
        "Table 4: varying the number of global partitions NG (DTW)",
        "both metrics U-shaped in NG; the join optimum sits at a larger NG than the search optimum",
        [
            Panel("a", "search [beijing]", "beijing", ("dita",),
                  lambda m, ng: search_ms(m, "beijing", TAU, overrides=(("num_global_partitions", ng),)),
                  "ms", "sim", param="NG", xs=NGS),
            Panel("b", "join [beijing_join]", "beijing_join", ("dita",),
                  lambda m, ng: join_s(m, "beijing_join", TAU, overrides=(("num_global_partitions", ng),)),
                  "s", "sim", param="NG", xs=NGS),
        ],
    ),
    "fig12": Figure(
        "Figure 12: pivot strategy (a, b) and pivot size K (c, d), search (DTW; the paper's is a join)",
        "Neighbor best, First/Last worst (Beijing tau=0.005: 252 s / 269 s / 287 s); the best K "
        "grows with trajectory length (4 on Beijing, 5 on Chengdu)",
        variant_panels("strategies", STRATEGIES) + variant_panels("pivot size", PIVOT_SIZES, "cd") + [
            Panel("e", "filter candidates per query by strategy [beijing_join]", "beijing_join", tuple(STRATEGIES),
                  lambda s, tau: candidates_per_query("dita", "beijing_join", tau, STRATEGIES[s]), "count"),
        ],
    ),
    "fig13": Figure(
        "Figure 13: DITA partitioning vs random partitioning (join, DTW)",
        "random partitioning loses by orders of magnitude: every partition pair is relevant "
        "(all-to-all shipping) and local MBRs are loose",
        [
            Panel("a", "join time [beijing_join]", "beijing_join", ("dita", "random"),
                  lambda m, tau: join_s(m, "beijing_join", tau), "s", "sim", ("random",)),
            Panel("b", "relevant partition pairs [beijing_join]", "beijing_join", ("dita", "random"),
                  lambda m, tau: join_run(m, "beijing_join", tau)[1].value("join.partition_pairs"), "count"),
            Panel("c", "shipped [beijing_join]", "beijing_join", ("dita", "random"),
                  lambda m, tau: join_run(m, "beijing_join", tau)[1].value("join.bytes_shipped") / 1e6, "MB"),
            Panel("d", "result pairs [beijing_join]", "beijing_join", ("dita", "random"),
                  lambda m, tau: join_run(m, "beijing_join", tau)[2], "count"),
        ],
    ),
    "fig14": Figure(
        "Figure 14: varying the trie fanout NL (search, DTW; the paper's is a join)",
        "NL=32 best, 16 worst, 64 between (Chengdu tau=0.005: 1671 s / 2022 s / 1760 s): small "
        "fanouts give loose MBRs, large ones probe more than they prune",
        variant_panels("fanout", FANOUTS),
    ),
    "table5": Figure(
        "Table 5: index construction time and size, DITA vs DFT",
        "DITA 197 s, 14 MB global, 1446 MB local on Beijing; DFT's segment index ~9x larger; time "
        "and local size ~linear in the sample rate, global size constant",
        _table5("beijing", "abc") + _table5("chengdu", "def"),
    ),
    "fig15": Figure(
        "Figure 15: join under DTW / Frechet (a, b) and EDR / LCSS (c, d)",
        "Frechet slower than DTW at equal tau; LCSS faster than EDR; Chengdu slower than Beijing",
        [
            Panel(key, f"{' and '.join(dists)} [{name}]", name, dists,
                  lambda d, tau, name=name: join_s("dita", name, tau, distance=d), "s", "sim", param=param, xs=xs)
            # edit distances get no endpoint pruning (every partition is
            # relevant), so they join a 30% sample to stay tractable
            for key, name, dists, param, xs in (
                ("a", "beijing_join", ("dtw", "frechet"), "tau", TAUS),
                ("b", "chengdu_join", ("dtw", "frechet"), "tau", TAUS),
                ("c", "beijing_join@0.3", ("edr", "lcss"), "edit budget", EDIT_TAUS),
                ("d", "chengdu_join@0.3", ("edr", "lcss"), "edit budget", EDIT_TAUS),
            )
        ],
    ),
    "fig16": Figure(
        "Figure 16: load balancing, worker load ratio and total join time (DTW)",
        "orientation + division keep the busiest/least busy ratio low with little overhead; the "
        "unbalanced variant is more skewed and slower",
        _balance_panels("beijing_skew", "ab") + _balance_panels("chengdu_skew", "cd"),
    ),
    "fig17": Figure(
        "Figure 17: centralized comparison against MBE and the VP-tree",
        "DITA fewest candidates and ~10x faster than MBE; the gap is larger under DTW than Frechet",
        _centralized_panels("dtw", "chengdu_join", ("mbe", "dita"), "ab")
        # the VP-tree pays a full Frechet DP per node: half the data
        + _centralized_panels("frechet", "chengdu_join@0.5", ("mbe", "vptree", "dita"), "cd"),
    ),
    "table7": Figure(
        "Table 7: centralized index build time and size",
        "DITA 57 s / 219 MB vs MBE 834 s / 1257 MB vs VP-tree 3507 s / 3021 MB",
        [
            Panel("a", "build time", "chengdu_join", tuple(TABLE7),
                  lambda m, name: centralized(m, name, TABLE7[m]).build_time_s, "s", "wall",
                  param="dataset", xs=("chengdu_join",)),
            Panel("b", "index size", "chengdu_join", tuple(TABLE7), _table7_kb, "KB",
                  param="dataset", xs=("chengdu_join",)),
        ],
    ),
    "ablation-trie": Figure(
        "Ablation: accumulative trie vs flat pivot bound; suffix pruning on/off (beijing, DTW)",
        "(not a paper figure; quantifies the Section 5.3.1/5.3.2 design)",
        [
            Panel("a", "candidates per query", "beijing", FILTERS, lambda v, tau: filter_run(v, tau)[0], "count"),
            Panel("b", "filter time per query", "beijing", FILTERS, lambda v, tau: filter_run(v, tau)[1],
                  "ms", "wall"),
        ],
    ),
    "ablation-verify": Figure(
        "Ablation: the verification stages (search on beijing, DTW)",
        "(quantifies Section 5.3.3: MBR coverage ~free, cells cheap, exact DTW only for survivors; "
        "answers identical across configs)",
        [
            Panel("a", "candidate pairs per query, where they die", "beijing", tuple(VERIFY_CONFIGS),
                  lambda c, stage: verify_run(c)[0][stage], "count", param="stage", xs=VERIFY_STAGES),
            Panel("b", "search time per query", "beijing", tuple(VERIFY_CONFIGS),
                  lambda c, _: verify_run(c)[1], "ms", "wall", xs=(TAU,)),
        ],
    ),
    "ext-knn": Figure(
        "Extension: kNN search, best-first top-k vs brute force (beijing; DTW unless named)",
        "(future work of the paper, implemented here; exactness tested in tests/test_knn.py)",
        [
            Panel("a", "time per query (brute, dita: DTW; frechet, hausdorff: DITA's kNN)", "beijing",
                  ("brute", *KNN_DISTANCES), knn_ms, "ms", "wall", ("brute",), param="k", xs=(1, 5, 10, 25)),
            Panel("b", f"rows per query at each stage (k = {KNN_K}, engine counters)", "beijing",
                  tuple(KNN_DISTANCES.values()), lambda d, stage: knn_counts(d)[stage], "count",
                  param="stage", xs=KNN_STAGES),
        ],
    ),
    "ext-kernels": Figure(
        "Extension: the pair-batched exact stage vs the per-pair kernels (trips cut to 24 / 40 points, "
        "a-f); block-wide vs per-row cell compression (g)",
        "(not a paper figure; sets MIN_BATCH_PAIRS, DIAGONAL_OVERHEAD_CELLS and MAX_SWEEP_VOLUME in "
        "repro/kernels/pairbatch.py; bit-identity tested in tests/test_kernels.py)",
        [
            Panel(key, f"{kernel} µs a pair [{name}, n = {PAIR_LENGTHS[name]}]", name, ("loop", "batch"),
                  lambda s, pairs, kernel=kernel, name=name: pair_us(kernel, name, pairs)[s], "µs", "wall",
                  param="pairs", xs=PAIR_COUNTS)
            for key, (kernel, name) in zip("abcd", itertools.product(PAIR_KERNELS, PAIR_LENGTHS))
        ] + [
            Panel("e", "sweep cost a diagonal", None, tuple(PAIR_LENGTHS), lambda name, _: sweep_terms(name)[0],
                  "µs", "wall", param="", xs=("diagonal",)),
            Panel("f", "sweep cost a padded cell", None, tuple(PAIR_LENGTHS), lambda name, _: sweep_terms(name)[1],
                  "ns", "wall", param="", xs=("cell",)),
            Panel("g", "Lemma 5.6 cell compression µs a point (one partition of 16; long_trip: one row)", None,
                  CELL_BLOCKS, lambda name, how: cells_us(name)[how], "µs", "wall", param="", xs=("loop", "block")),
        ],
    ),
    "ext-storage": Figure(
        "Extension: cold start, CSV parse + eager build vs memory-mapped store reload + lazy build",
        "(not a paper figure; both paths end with one answered search; answers compared first)",
        [
            Panel("a", "time to first result", None, ("city_2k", "city_10k"),
                  lambda name, path: cold_start(name)[path], "s", "wall", param="path", xs=("parse", "reload")),
            Panel("b", "reload speedup over parse", None, ("city_2k", "city_10k"),
                  lambda name, x: cold_start(name)[x], "x", "wall", param="", xs=("ratio",)),
        ],
    ),
    "ext-streaming": Figure(
        "Extension: streaming ingestion, delta reads (a, c) and adaptive repartitioning (b, d)",
        "(not a paper figure; a streamed engine answers like a bulk rebuild, tested in "
        "tests/test_streaming.py)",
        [
            Panel("a", "batch search, streamed engine over bulk rebuild", None, ("city_2k", "city_10k"),
                  lambda name, x: delta_read(name)[x], "x", "wall", param="", xs=("ratio",)),
            Panel("b", "makespan of a hot-corner stream [hot_stream]", "hot_stream", ("static", "adaptive"),
                  lambda s, n: hot_streams()[s][0][n * 10 // HOT_APPENDS - 1], "s", "sim",
                  param="appended", xs=tuple(range(HOT_APPENDS // 10, HOT_APPENDS + 1, HOT_APPENDS // 10))),
            Panel("c", "batch search time a query", None, ("city_2k", "city_10k"),
                  lambda name, x: delta_read(name)[x], "ms", "wall", param="engine", xs=("streamed", "bulk")),
            Panel("d", "repartitions made [hot_stream]", "hot_stream", ("static", "adaptive"),
                  lambda s, _: hot_streams()[s][1], "count", param="", xs=("repartitions",)),
        ],
    ),
}


def point(figure: str, panel: str, series: str, x) -> float:
    """The value panel ``panel`` of ``figure`` prints for ``(series, x)``."""
    return next(p for p in FIGURES[figure].panels if p.key == panel).measure(series, x)


_FORMATS = {"ms": ".3f", "s": ".4f", "x": ".2f", "KB": ".1f", "MB": ".2f"}


def geo_mean_ratio(slow: Sequence[float], fast: Sequence[float]) -> float:
    """Geometric mean of ``slow / fast`` across a sweep."""
    ratios = [s / f for s, f in zip(slow, fast) if f > 0]
    return math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else float("nan")


def print_panel(panel: Panel, values: Dict[str, List[float]]) -> None:
    """Paper-style table: one row per series, one column per x."""
    print(f"\n({panel.key}) {panel.title}")
    header = f"{panel.param:<14}" + "".join(f"{str(x):>13}" for x in panel.xs)
    print(header)
    print("-" * len(header))
    spec = _FORMATS.get(panel.unit, ".6g")
    label = f"{panel.unit}, {panel.clock}" if panel.clock else panel.unit
    for name, row in values.items():
        print(f"{name:<14}" + "".join(f"{v:>13{spec}}" for v in row) + f"  ({label})")
    for base in panel.versus:
        ratio = geo_mean_ratio(values[base], values["dita"])
        print(f"    dita over {base}: {ratio:.1f}x (geo-mean over {panel.param}, {panel.clock})")


def git_sha() -> str:
    """The checkout's commit, ``-dirty`` when it has uncommitted changes."""
    cmd = ["git", "describe", "--always", "--dirty"]
    try:
        return subprocess.run(cmd, cwd=Path(__file__).parent, capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def write_records(sink, fid: str, panel: Panel, values: Dict[str, List[float]], host: Dict) -> None:
    """One JSON line per value; ``clock`` is left out for counts and sizes."""
    for s, row in values.items():
        name = panel.dataset or s
        for x, v in zip(panel.xs, row):
            record = dict(figure=fid, panel=panel.key, series=s, x=x, value=v, unit=panel.unit)
            if panel.clock:
                record["clock"] = panel.clock
            record.update(n=len(data(name)), seed=DATASETS[name.partition("@")[0]][2], **host)
            sink.write(json.dumps(record) + "\n")


def run(figure_ids: Sequence[str], out: Optional[Path] = None) -> None:
    """Print every panel of ``figure_ids``; with ``out``, write one JSON
    line per value."""
    host = {"cpu_count": os.cpu_count(), "git_sha": git_sha()}
    sink = out.open("w") if out else None
    try:
        for fid in figure_ids:
            fig = FIGURES[fid]
            start = wall_clock()
            print("\n" + "=" * 78 + f"\n{fid} -- {fig.title}\npaper: {fig.paper}\n" + "=" * 78)
            for panel in fig.panels:
                values: Dict[str, List[float]] = {s: [] for s in panel.series}
                for x in panel.xs:
                    for s in panel.series:
                        values[s].append(float(panel.measure(s, x)))
                print_panel(panel, values)
                if sink:
                    write_records(sink, fid, panel, values, host)
            print(f"[{fid}: {wall_clock() - start:.1f} s wall]", flush=True)
    finally:
        if sink:
            sink.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None, help="write one JSON line per value here")
    parser.add_argument("--only", nargs="*", choices=list(FIGURES), default=None, help="figure ids to run")
    args = parser.parse_args()
    run(args.only or list(FIGURES), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
