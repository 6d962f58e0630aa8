"""Shared machinery for the paper-reproduction benchmarks.

Every ``bench_*.py`` regenerates one table or figure of the paper.  All of
them share:

* **datasets** — scaled-down Beijing/Chengdu/OSM analogues (cached);
* **engines** — cached index builds per (dataset, method, params);
* **latency measurement** — a query's latency is the *simulated cluster
  makespan* (max worker busy time) of executing it, which is what produces
  the paper's scale-up/scale-out shapes from real measured per-partition
  compute;
* **reporting** — paper-style series printing, with the paper's observed
  trend noted next to the measured one (EXPERIMENTS.md records both).

The absolute numbers differ from the paper's (Python on one machine vs.
Scala on 64 nodes); the *shape* — who wins, by what rough factor, how
curves move with tau/size/cores — is the reproduction target.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import DITAConfig, DITAEngine
from repro.baselines import DFTEngine, MBEIndex, NaiveEngine, SimbaEngine, VPTree
from repro.cluster import Cluster
from repro.cluster import NetworkModel
from repro.datagen import beijing_like, chengdu_like, citywide_dataset, osm_like, sample_queries, worldwide_dataset
from repro.storage import ColumnarDataset
from repro.trajectory import Trajectory

#: the paper's tau sweep (degrees; 0.001 ~ 111 m)
TAUS = [0.001, 0.002, 0.003, 0.004, 0.005]

#: scaled dataset sizes (the paper uses 11M/15M/141M; we preserve ratios
#: of structure, not magnitude)
BEIJING_N = 3000
CHENGDU_N = 3000
OSM_N = 800
JOIN_N = 800

#: benchmark network: the datasets are ~1/10^4 of the paper's and Python
#: verification is ~50x slower per pair than the authors' Scala, so a
#: 1 Gbps model would make communication unrealistically free relative to
#: compute; scaling bandwidth by the same factor preserves the paper's
#: compute/communication ratio (DESIGN.md, substitutions).
BENCH_NETWORK = NetworkModel(bandwidth_bytes_per_s=2e6, latency_s=0.0002)

_datasets: Dict[str, ColumnarDataset] = {}
_engines: Dict[tuple, object] = {}


def dataset(name: str, n: Optional[int] = None) -> ColumnarDataset:
    """Cached scaled dataset by name: beijing | chengdu | osm | *_join."""
    key = f"{name}:{n}"
    if key not in _datasets:
        if name == "beijing":
            _datasets[key] = beijing_like(n or BEIJING_N, seed=101)
        elif name == "chengdu":
            _datasets[key] = chengdu_like(n or CHENGDU_N, seed=102)
        elif name == "osm":
            _datasets[key] = osm_like(n or OSM_N, seed=103)
        elif name == "beijing_join":
            _datasets[key] = citywide_dataset(
                n or JOIN_N, avg_len=22, seed=104, min_len=7, max_len=112, duplication=2
            )
        elif name == "chengdu_join":
            _datasets[key] = citywide_dataset(
                n or JOIN_N, avg_len=37, seed=105, min_len=10, max_len=209, duplication=2
            )
        elif name == "osm_join":
            _datasets[key] = worldwide_dataset(n or JOIN_N, avg_len=60, seed=106, min_len=9)
        elif name == "beijing_skew":
            _datasets[key] = citywide_dataset(
                n or JOIN_N, avg_len=22, seed=107, min_len=7, max_len=112,
                duplication=3, zone_skew=2.5,
            )
        elif name == "chengdu_skew":
            _datasets[key] = citywide_dataset(
                n or JOIN_N, avg_len=37, seed=108, min_len=10, max_len=209,
                duplication=3, zone_skew=2.5,
            )
        else:
            raise KeyError(f"unknown dataset {name!r}")
    return _datasets[key]


def default_config(**overrides) -> DITAConfig:
    base = dict(
        num_global_partitions=4,
        trie_fanout=8,
        num_pivots=4,
        trie_leaf_capacity=8,
        cell_size=0.004,
        # calibrate the Section 6.2 lambda to *this* environment: Python
        # verifies a candidate pair in ~0.5 ms and BENCH_NETWORK moves
        # 2e6 bytes/s, so lambda = 1 / (Delta * B) prices bytes correctly
        comp_time_per_pair=5e-4,
        network_bandwidth=BENCH_NETWORK.bandwidth_bytes_per_s,
    )
    base.update(overrides)
    return DITAConfig(**base)


def engine_for(
    method: str,
    data: ColumnarDataset,
    data_key: str,
    n_workers: int = 16,
    distance: str = "dtw",
    **config_overrides,
) -> object:
    """Cached engine construction.

    ``method`` is one of dita | naive | simba | dft; centralized baselines
    (vptree, mbe) are built directly by their benchmarks.
    """
    key = (method, data_key, len(data), n_workers, distance, tuple(sorted(config_overrides.items())))
    if key in _engines:
        return _engines[key]
    cluster = Cluster(n_workers=n_workers, network=BENCH_NETWORK)
    if method == "dita":
        engine = DITAEngine(data, default_config(**config_overrides), distance=distance, cluster=cluster)
    elif method == "naive":
        engine = NaiveEngine(data, n_partitions=16, distance=distance, cluster=cluster)
    elif method == "simba":
        engine = SimbaEngine(data, n_partitions=16, distance=distance, cluster=cluster)
    elif method == "dft":
        engine = DFTEngine(data, n_partitions=16, distance=distance, cluster=cluster)
    else:
        raise KeyError(f"unknown method {method!r}")
    _engines[key] = engine
    return engine


# --------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------- #

#: fixed driver-side overhead per query (result collection at the master);
#: keeps tiny-cluster latencies from reading as exactly zero
DRIVER_OVERHEAD_S = 1e-4


def search_latency_ms(engine, queries: Sequence[Trajectory], tau: float) -> float:
    """Average simulated per-query latency in milliseconds.

    Each query runs alone: worker clocks are reset, the query executes (its
    real per-partition compute is charged to simulated workers), and the
    latency is the cluster makespan plus a fixed driver overhead.
    """
    total = 0.0
    for q in queries:
        engine.cluster.reset_clocks()
        engine.search(q, tau)
        total += engine.cluster.report().makespan + DRIVER_OVERHEAD_S
    return total / len(queries) * 1000.0


def join_time_s(engine, other, tau: float, **kwargs) -> float:
    """Simulated wall time of a distributed join (cluster makespan)."""
    engine.cluster.reset_clocks()
    engine.join(other, tau, **kwargs)
    return engine.cluster.report().makespan + DRIVER_OVERHEAD_S


def queries_for(data: ColumnarDataset, n: int = 20, seed: int = 7) -> List[Trajectory]:
    """The paper samples queries from the dataset itself."""
    return sample_queries(data, n, seed=seed)


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #


def print_header(exp_id: str, title: str, paper_note: str) -> None:
    print()
    print("=" * 78)
    print(f"{exp_id}: {title}")
    print(f"paper: {paper_note}")
    print("=" * 78)


def print_series(
    x_label: str,
    xs: Sequence,
    series: Dict[str, Sequence[float]],
    unit: str = "ms",
    fmt: str = "{:>12.3f}",
) -> None:
    """Paper-style table: one row per method, one column per x value."""
    header = f"{x_label:<14}" + "".join(f"{str(x):>13}" for x in xs)
    print(header)
    print("-" * len(header))
    for name, values in series.items():
        row = f"{name:<14}" + "".join(fmt.format(v) for v in values)
        print(f"{row}  ({unit})")


def geometric_speedup(slow: Sequence[float], fast: Sequence[float]) -> float:
    """Geometric-mean speedup of ``fast`` over ``slow`` across a sweep."""
    ratios = [s / f for s, f in zip(slow, fast) if f > 0]
    if not ratios:
        return float("nan")
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))
