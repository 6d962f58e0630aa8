"""Frequent-route mining (the paper's navigation motivation).

A *frequent route* is a group of mutually similar trajectories travelled
many times.  We mine them from the tau-similarity graph: each maximal
connected component of sufficiently-dense vertices is a route, ranked by
support (member count); the medoid (member minimizing total distance to
the others) serves as the route's representative for navigation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.engine import DITAEngine
from ..trajectory.trajectory import Trajectory
from .clustering import TrajectoryDBSCAN, trajectories


@dataclass(frozen=True)
class FrequentRoute:
    """One mined route: its members and a representative trajectory."""

    route_id: int
    member_ids: List[int]
    representative: Trajectory

    @property
    def support(self) -> int:
        return len(self.member_ids)


def mine_frequent_routes(
    engine: DITAEngine,
    tau: float,
    min_support: int = 3,
) -> List[FrequentRoute]:
    """Routes travelled at least ``min_support`` times, ranked by support.

    Runs a density clustering at ``tau`` (with ``min_pts = min_support``)
    and keeps clusters meeting the support; the representative is the
    medoid under the engine's distance function.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    result = TrajectoryDBSCAN(eps=tau, min_pts=min_support).fit(engine)
    by_id: Dict[int, Trajectory] = {t.traj_id: t for t in trajectories(engine)}
    dist = engine.adapter.distance()
    routes: List[FrequentRoute] = []
    for route_id, members in enumerate(result.clusters()):
        if len(members) < min_support:
            continue
        trajs = [by_id[m] for m in members]
        medoid = min(
            trajs,
            key=lambda c: (sum(dist.compute(c.points, o.points) for o in trajs), c.traj_id),
        )
        routes.append(
            FrequentRoute(route_id=route_id, member_ids=members, representative=medoid)
        )
    routes.sort(key=lambda r: (-r.support, r.route_id))
    return routes


def route_for(
    routes: List[FrequentRoute], query: Trajectory, engine: DITAEngine, tau: float
) -> Optional[FrequentRoute]:
    """The best frequent route for a trip: the highest-support route whose
    representative is within ``tau`` of the query (None if none qualifies).
    """
    dist = engine.adapter.distance()
    for route in routes:  # already support-ranked
        if dist.compute(route.representative.points, query.points) <= tau:
            return route
    return None
