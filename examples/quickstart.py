"""Quickstart: index a taxi-like dataset, search, and join.

Run with::

    python examples/quickstart.py
"""

from repro import DITAConfig, DITAEngine
from repro.datagen import beijing_like, sample_queries
from repro.obs import MetricsRegistry
from repro.trajectory import dataset_stats, stats_header


def main() -> None:
    # 1. generate a citywide taxi-like dataset (a scaled Beijing analogue)
    data = beijing_like(600, seed=1)
    print(stats_header())
    print(dataset_stats(data).row("beijing-like"))

    # 2. build the DITA index: first/last-point partitioning, global R-trees,
    #    one pivot trie per partition
    config = DITAConfig(num_global_partitions=4, trie_fanout=8, num_pivots=4)
    engine = DITAEngine(data, config)
    global_bytes, local_bytes = engine.index_size_bytes()
    print(
        f"\nindexed {len(engine)} trajectories into {engine.n_partitions} partitions "
        f"in {engine.build_time_s:.2f}s "
        f"(global index {global_bytes / 1024:.1f} KB, local {local_bytes / 1024:.1f} KB)"
    )

    # 3. threshold similarity search (tau = 0.003 degrees ~ 333 m of
    #    accumulated DTW deviation)
    query = sample_queries(data, 1, seed=7, perturb=0.00005)[0]
    stats = MetricsRegistry()  # receives the search's search.* counters
    matches = engine.search(query, tau=0.003, stats=stats)
    print(f"\nsearch: {len(matches)} trajectories within DTW 0.003 of the query")
    print(
        f"  pruning: {stats.value('search.relevant_partitions')}/{engine.n_partitions} partitions touched, "
        f"{stats.value('search.filter.candidates')} candidates, "
        f"{stats.value('search.verify.pruned_by_mbr')} killed by MBR coverage, "
        f"{stats.value('search.verify.pruned_by_cells')} by cells, "
        f"{stats.value('search.verify.exact_computed')} exact DTWs"
    )
    for t, dist in sorted(matches, key=lambda m: m[1])[:5]:
        print(f"  trajectory {t.traj_id:>4}  DTW = {dist:.5f}")

    # 4. similarity self-join: all pairs of near-duplicate trips
    pairs = engine.self_join(tau=0.002)
    print(f"\nself-join: {len(pairs)} similar pairs at tau = 0.002")
    for a, b, dist in sorted(pairs, key=lambda p: p[2])[:5]:
        print(f"  ({a:>4}, {b:>4})  DTW = {dist:.5f}")

    # 5. the simulated cluster's accounting for everything we just ran
    report = engine.cluster.report()
    print(
        f"\nsimulated cluster: makespan {report.makespan:.3f}s across "
        f"{engine.cluster.n_workers} workers, load ratio {report.load_ratio:.2f}, "
        f"{report.total_network_bytes / 1024:.1f} KB shipped"
    )


if __name__ == "__main__":
    main()
