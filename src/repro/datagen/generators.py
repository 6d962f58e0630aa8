"""Synthetic trajectory generators.

The paper evaluates on proprietary taxi GPS data (Beijing, Chengdu) and on
OSM-derived traces.  We cannot ship those, so these generators produce
datasets with the distributional properties the experiments depend on:

* **citywide** — trajectories confined to one metro area, simulated as
  road-grid-biased random walks between popular zones.  Nearby trips share
  similar first/last points, so DITA's first/last-point partitioning pays
  off and join candidate counts are high — matching Beijing/Chengdu.
* **worldwide** — trip origins scattered over a huge region (OSM-style), so
  candidate counts per trajectory are low — matching the paper's
  observation that OSM(join) is comparatively cheap.
* **random_walk** — unbiased Brownian-ish walks, for unit tests.

All generators are deterministic given ``seed``.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..storage.columnar import ColumnarDataset


def random_walk_dataset(
    n: int,
    avg_len: int = 20,
    seed: int = 0,
    extent: float = 1.0,
    step: float = 0.01,
    min_len: int = 5,
) -> ColumnarDataset:
    """``n`` unbiased random walks inside ``[0, extent]^2``."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    trajs: List[np.ndarray] = []
    for _ in range(n):
        length = max(min_len, int(rng.poisson(avg_len)))
        start = rng.uniform(0, extent, size=2)
        steps = rng.normal(0, step, size=(length - 1, 2))
        pts = np.vstack([start, start + np.cumsum(steps, axis=0)])
        np.clip(pts, 0.0, extent, out=pts)
        trajs.append(pts)
    return ColumnarDataset.from_point_arrays(np.arange(n), trajs)


def _zone_centers(n_zones: int, extent: float, rng: np.random.Generator) -> np.ndarray:
    """Popular origin/destination zones (transport hubs, districts)."""
    return rng.uniform(0.1 * extent, 0.9 * extent, size=(n_zones, 2))


def citywide_dataset(
    n: int,
    avg_len: int = 22,
    seed: int = 0,
    extent: float = 0.2,
    n_zones: int = 12,
    noise: float = 0.002,
    min_len: int = 7,
    max_len: Optional[int] = None,
    duplication: int = 4,
    jitter: float = 0.00003,
    zone_skew: float = 0.0,
) -> ColumnarDataset:
    """Taxi-like citywide trips (Beijing/Chengdu analogue).

    Each *route* picks an origin zone and a destination zone, jitters
    endpoints around the zone centers, and travels along the straight
    connecting path with per-point Gaussian noise and a mild dog-leg
    (simulating a road grid).  Real taxi fleets retrace the same roads, so
    on average ``duplication`` trips follow each route with tiny per-point
    GPS jitter — this is what makes the paper's tau range 0.001..0.005
    (111..555 m; ``extent`` defaults to 0.2 degrees ~ 22 km) produce
    non-trivial search/join results.

    ``zone_skew > 0`` draws origin/destination zones from a Zipf-like
    distribution (popularity of zone rank r proportional to 1/(r+1)^skew),
    concentrating traffic in hotspots — the workload skew that makes the
    paper's load-balancing mechanisms matter (Figure 16).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if duplication < 1:
        raise ValueError("duplication must be >= 1")
    rng = np.random.default_rng(seed)
    zones = _zone_centers(n_zones, extent, rng)
    if max_len is None:
        max_len = avg_len * 5
    if zone_skew > 0:
        weights = 1.0 / np.power(np.arange(1, n_zones + 1), zone_skew)
        zone_p = weights / weights.sum()
    else:
        zone_p = None
    n_routes = max(1, n // duplication)
    routes: List[np.ndarray] = []
    for _ in range(n_routes):
        # lognormal lengths give the long tail of Table 2 (min..max spread)
        length = int(np.clip(rng.lognormal(np.log(avg_len), 0.45), min_len, max_len))
        src_zone, dst_zone = rng.choice(n_zones, size=2, p=zone_p)
        src = zones[src_zone] + rng.normal(0, 0.01 * extent, size=2)
        dst = zones[dst_zone] + rng.normal(0, 0.01 * extent, size=2)
        # Manhattan-ish dog-leg: go via an intermediate corner point
        corner = np.array([src[0], dst[1]]) if rng.random() < 0.5 else np.array([dst[0], src[1]])
        k1 = length // 2
        k2 = length - k1
        leg1 = np.linspace(src, corner, max(k1, 2))
        leg2 = np.linspace(corner, dst, max(k2, 2))[1:]
        pts = np.vstack([leg1, leg2])[:length]
        if pts.shape[0] < length:
            pad = np.repeat(pts[-1][None, :], length - pts.shape[0], axis=0)
            pts = np.vstack([pts, pad])
        pts = pts + rng.normal(0, noise, size=pts.shape)
        routes.append(pts)
    trajs: List[np.ndarray] = []
    for traj_id in range(n):
        base = routes[traj_id % n_routes]
        pts = base + rng.normal(0, jitter, size=base.shape)
        np.clip(pts, 0.0, extent, out=pts)
        trajs.append(pts)
    return ColumnarDataset.from_point_arrays(np.arange(n), trajs)


def worldwide_dataset(
    n: int,
    avg_len: int = 40,
    seed: int = 0,
    extent: float = 100.0,
    n_clusters: int = 200,
    noise: float = 0.002,
    min_len: int = 9,
    duplication: int = 2,
    jitter: float = 0.00003,
) -> ColumnarDataset:
    """OSM-style worldwide traces: many small, far-apart activity clusters.

    Each trace lives entirely inside one tiny cluster (a city or trail area
    somewhere on the globe), so cross-trajectory similarity is rare —
    reproducing the low candidate density the paper reports for OSM.  A
    light ``duplication`` factor (people retracing popular trails) keeps
    joins non-degenerate.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if duplication < 1:
        raise ValueError("duplication must be >= 1")
    rng = np.random.default_rng(seed)
    clusters = rng.uniform(0, extent, size=(n_clusters, 2))
    n_routes = max(1, n // duplication)
    routes: List[np.ndarray] = []
    for _ in range(n_routes):
        length = max(min_len, int(rng.poisson(avg_len)))
        c = clusters[rng.integers(0, n_clusters)]
        start = c + rng.normal(0, 0.02, size=2)
        heading = rng.uniform(0, 2 * math.pi)
        speed = rng.uniform(0.0005, 0.003)
        pts = [start]
        for _ in range(length - 1):
            heading += rng.normal(0, 0.3)
            stepv = np.array([math.cos(heading), math.sin(heading)]) * speed
            pts.append(pts[-1] + stepv + rng.normal(0, noise, size=2))
        routes.append(np.asarray(pts))
    trajs: List[np.ndarray] = []
    for traj_id in range(n):
        base = routes[traj_id % n_routes]
        trajs.append(base + rng.normal(0, jitter, size=base.shape))
    return ColumnarDataset.from_point_arrays(np.arange(n), trajs)


def beijing_like(n: int = 600, seed: int = 1) -> ColumnarDataset:
    """Scaled-down Beijing analogue (Table 2: avg length ~22, 7..112)."""
    return citywide_dataset(n, avg_len=22, seed=seed, min_len=7, max_len=112)


def chengdu_like(n: int = 800, seed: int = 2) -> ColumnarDataset:
    """Scaled-down Chengdu analogue (Table 2: avg length ~37, 10..209)."""
    return citywide_dataset(n, avg_len=37, seed=seed, min_len=10, max_len=209)


def osm_like(n: int = 400, seed: int = 3) -> ColumnarDataset:
    """Scaled-down OSM analogue (Table 2: long worldwide traces)."""
    return worldwide_dataset(n, avg_len=60, seed=seed, min_len=9)
