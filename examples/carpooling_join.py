"""Car pooling: find rider pairs whose trips could be shared.

One of the paper's motivating applications.  Two commuters can pool when
their trips follow nearly the same route at nearly the same positions — a
trajectory similarity self-join with a small DTW threshold.  The example
also demonstrates the Section 6 machinery: the bi-graph join plan, graph
orientation and division-based load balancing, with the simulated
cluster's load ratio printed for the balanced and unbalanced plans.

Run with::

    python examples/carpooling_join.py
"""

from collections import defaultdict

from repro import DITAConfig, DITAEngine
from repro.datagen import citywide_dataset
from repro.obs import MetricsRegistry


def main() -> None:
    # morning-commute trips: heavy route reuse (duplication=6 riders/route)
    trips = citywide_dataset(500, avg_len=25, seed=20, duplication=6)
    config = DITAConfig(num_global_partitions=4, trie_fanout=8, num_pivots=4)
    engine = DITAEngine(trips, config)
    tau = 0.002  # ~222 m of accumulated deviation

    stats = MetricsRegistry()  # receives the join's join.* counters
    pairs = engine.self_join(tau, stats=stats)
    print(f"{len(pairs)} poolable rider pairs at tau = {tau}")
    print(
        f"plan: {stats.value('join.partition_pairs')} partition pairs, "
        f"{stats.value('join.trajectories_shipped')} trajectories shipped "
        f"({stats.value('join.bytes_shipped') / 1024:.1f} KB), "
        f"{stats.value('join.candidate_pairs')} candidate pairs verified down to "
        f"{len(pairs)} matches"
    )

    # pooling groups: connected riders sharing one route
    neighbours = defaultdict(set)
    for a, b, _ in pairs:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen = set()
    groups = []
    for rider in sorted(neighbours):
        if rider in seen:
            continue
        group = {rider}
        frontier = [rider]
        while frontier:
            cur = frontier.pop()
            for nxt in neighbours[cur]:
                if nxt not in group:
                    group.add(nxt)
                    frontier.append(nxt)
        seen |= group
        groups.append(sorted(group))
    groups.sort(key=len, reverse=True)
    print(f"\n{len(groups)} pooling groups; largest 5:")
    for g in groups[:5]:
        print(f"  {len(g)} riders: {g[:8]}{'...' if len(g) > 8 else ''}")

    # ablation: how much does Section 6's load balancing help?
    for label, orient, divide in (
        ("no balancing  ", False, False),
        ("orientation   ", True, False),
        ("orient+divide ", True, True),
    ):
        engine.cluster.reset_clocks()
        engine.join(engine, tau, use_orientation=orient, use_division=divide)
        report = engine.cluster.report()
        print(
            f"{label} makespan {report.makespan:.3f}s  "
            f"load ratio {report.load_ratio:6.2f}  "
            f"network {report.total_network_bytes / 1024:8.1f} KB"
        )


if __name__ == "__main__":
    main()
