"""Fleet analytics: route clustering, frequent-route mining, outliers.

Ties the analytics layer together on a simulated taxi fleet: DBSCAN
clustering over the similarity graph, frequent-route mining with medoid
representatives (the navigation use case from the paper's introduction),
and distance-based outlier detection (suspicious detours).

Run with::

    python examples/fleet_analytics.py
"""

import numpy as np

from repro import DITAConfig, DITAEngine
from repro.analytics import (
    TrajectoryDBSCAN,
    detect_outliers,
    mine_frequent_routes,
    route_for,
    top_outliers,
)
from repro.datagen import citywide_dataset, sample_queries
from repro.trajectory import Trajectory


def main() -> None:
    # a day of fleet trips: 300 trips over ~50 routes, plus two anomalies
    fleet = citywide_dataset(300, avg_len=24, seed=90, duplication=6)
    trips = list(fleet)
    rng = np.random.default_rng(1)
    trips.append(Trajectory(9000, rng.uniform(0.0, 0.2, size=(25, 2))))  # GPS garbage
    trips.append(Trajectory(9001, np.linspace((0.0, 0.0), (0.2, 0.01), 30)))  # odd detour
    engine = DITAEngine(trips, DITAConfig(num_global_partitions=4, trie_fanout=8, num_pivots=4))
    tau = 0.003

    # 1. clustering: group trips by route
    clustering = TrajectoryDBSCAN(eps=tau, min_pts=3).fit(engine)
    sizes = [len(c) for c in clustering.clusters()]
    print(
        f"clustering: {clustering.n_clusters} route clusters "
        f"(sizes {sizes[:6]}...), {len(clustering.noise())} noise trips"
    )

    # 2. frequent routes with representatives
    routes = mine_frequent_routes(engine, tau, min_support=4)
    print(f"\n{len(routes)} frequent routes (support >= 4); top 5:")
    for r in routes[:5]:
        rep = r.representative
        print(
            f"  route {r.route_id}: {r.support} trips, representative "
            f"trajectory {rep.traj_id} ({len(rep)} points)"
        )

    # 3. navigation: match a new trip to a known frequent route
    trip = sample_queries(fleet, 1, seed=4, perturb=0.0001)[0]
    hit = route_for(routes, trip, engine, tau)
    if hit is not None:
        print(f"\nnew trip matches frequent route {hit.route_id} (support {hit.support})")
    else:
        print("\nnew trip matches no frequent route")

    # 4. outliers: the injected anomalies should surface
    report = detect_outliers(engine, tau, min_neighbours=1)
    print(f"\n{len(report.outlier_ids)} trips with no tau-neighbour at all")
    worst = top_outliers(engine, k=1, top=5)
    print(f"top-5 by 1-NN outlier score: {worst}")
    assert 9000 in worst and 9001 in worst, "injected anomalies must rank top"
    print("both injected anomalies rank in the top-5 — detection works")


if __name__ == "__main__":
    main()
