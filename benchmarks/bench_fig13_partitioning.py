"""Figure 13: DITA's first/last-point partitioning vs random partitioning.

Paper: DITA's scheme wins by orders of magnitude on joins — with random
placement every trajectory is relevant to every partition (global
transmission explodes) and local MBRs are loose (local filtering
collapses).
"""

from __future__ import annotations

import time
from typing import List

from common import (
    BENCH_NETWORK,
    TAUS,
    dataset,
    default_config,
    engine_for,
    join_time_s,
    print_header,
    print_series,
)
from repro.cluster import Cluster, RandomPartitioner
from repro.core.adapters import DTWAdapter
from repro.core.search import search_rows
from repro.core.trie import TrieIndex
from repro.core.verify import VerificationData, Verifier


def random_partition_join(data, tau: float, n_partitions: int = 16) -> float:
    """A join under random partitioning: no locality, so every trajectory
    must be checked against every partition — partition MBRs cover the
    whole city and never prune."""
    cfg = default_config()
    parts = RandomPartitioner(n_partitions, seed=3).partition(list(data))
    tries = [TrieIndex(p, cfg) for p in parts]
    cluster = Cluster(16, network=BENCH_NETWORK)
    cluster.place_partitions(list(range(len(parts))))
    adapter = DTWAdapter()
    verifier = Verifier(adapter)
    part_bytes = [sum(t.nbytes() for t in p) for p in parts]
    for src in range(len(parts)):
        # ship the whole partition to every other partition
        for dst in range(len(parts)):
            if src != dst:
                cluster.ship(src, dst, part_bytes[src])
    for dst, trie in enumerate(tries):
        start = time.perf_counter()
        for src_part in parts:
            for t in src_part:
                q_data = VerificationData.of(t, cfg.cell_size)
                search_rows(trie, adapter, verifier, [t.points], [tau], [q_data])
        cluster.charge_compute(dst, time.perf_counter() - start)
    return cluster.report().makespan


def main() -> None:
    print_header(
        "Figure 13",
        "DITA partitioning vs Random partitioning (join, DTW)",
        "random partitioning loses by orders of magnitude: all-to-all "
        "shipping + loose local MBRs",
    )
    data = dataset("beijing_join")
    engine = engine_for("dita", data, "beijing_join")
    dita = [join_time_s(engine, engine, tau) for tau in TAUS]
    rand = [random_partition_join(data, tau) for tau in TAUS]
    print_series("tau", TAUS, {"dita": dita, "random": rand}, unit="s", fmt="{:>12.4f}")
    print(f"    random/dita ratio at tau=0.003: {rand[2] / dita[2]:.1f}x")


def test_fig13_dita_partitioning_wins():
    data = dataset("beijing_join")
    engine = engine_for("dita", data, "beijing_join")
    dita = join_time_s(engine, engine, 0.003)
    rand = random_partition_join(data, 0.003)
    assert dita < rand


def test_random_join_benchmark(benchmark):
    data = dataset("beijing_join").sample(0.3, seed=1)
    benchmark.pedantic(lambda: random_partition_join(data, 0.003), rounds=1, iterations=1)


if __name__ == "__main__":
    main()
