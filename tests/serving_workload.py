"""Deterministic request streams for the serving-layer tests.

:func:`open_loop` stamps arrivals up front from seeded exponential
inter-arrival gaps, one independent stream per tenant — the backlog grows
when the server can't keep up.  A very high rate offers every request at
once, which is what a throughput comparison needs.

Request content is sampled from the served dataset with a seeded RNG
(perturbed member queries, tau drawn from a small range, occasional
mutations), so a workload is a pure function of its arguments.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving import Request
from repro.trajectory import Trajectory

#: default kind mix: mostly searches, some kNN, a pinch of everything else
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("search", 0.70),
    ("knn", 0.20),
    ("sql", 0.05),
    ("append", 0.03),
    ("remove", 0.02),
)


def _pick_kind(rng: np.random.Generator, mix: Sequence[Tuple[str, float]]) -> str:
    kinds = [k for k, _ in mix]
    weights = np.asarray([w for _, w in mix], dtype=np.float64)
    weights = weights / weights.sum()
    return kinds[int(rng.choice(len(kinds), p=weights))]


def _perturbed_query(
    rng: np.random.Generator, data: List[Trajectory], perturb: float
) -> Trajectory:
    base = data[int(rng.integers(len(data)))]
    noise = rng.normal(0.0, perturb, size=base.points.shape)
    return Trajectory(-1, base.points + noise)


class RequestSampler:
    """Seeded factory of request payloads over one dataset."""

    def __init__(
        self,
        data,
        seed: int = 0,
        mix: Sequence[Tuple[str, float]] = DEFAULT_MIX,
        tau_range: Tuple[float, float] = (0.002, 0.008),
        k_range: Tuple[int, int] = (1, 8),
        sql_table: Optional[str] = None,
        perturb: float = 0.0005,
        next_traj_id: int = 1_000_000,
    ) -> None:
        self.data = list(data)
        self.rng = np.random.default_rng(seed)
        self.mix = tuple(mix)
        self.tau_range = tau_range
        self.k_range = k_range
        self.sql_table = sql_table
        self.perturb = perturb
        self._next_id = next_traj_id
        self._appended: List[int] = []

    def sample(self) -> Tuple[str, Dict[str, Any]]:
        rng = self.rng
        kind = _pick_kind(rng, self.mix)
        if kind == "sql" and self.sql_table is None:
            kind = "search"
        if kind == "search":
            tau = float(rng.uniform(*self.tau_range))
            return "search", {"query": _perturbed_query(rng, self.data, self.perturb), "tau": tau}
        if kind == "knn":
            k = int(rng.integers(self.k_range[0], self.k_range[1] + 1))
            return "knn", {"query": _perturbed_query(rng, self.data, self.perturb), "k": k}
        if kind == "join":
            return "join", {"tau": float(rng.uniform(*self.tau_range))}
        if kind == "sql":
            q = _perturbed_query(rng, self.data, self.perturb)
            tau = float(rng.uniform(*self.tau_range))
            return "sql", {
                "text": f"SELECT traj_id FROM {self.sql_table} t "
                        f"WHERE DTW(t, :q) <= {tau!r}",
                "params": {"q": q},
            }
        if kind == "append":
            base = self.data[int(rng.integers(len(self.data)))]
            tid = self._next_id
            self._next_id += 1
            self._appended.append(tid)
            return "append", {"traj_id": tid, "points": base.points + rng.normal(0, 1e-4, base.points.shape)}
        if kind == "extend" and self._appended:
            tid = self._appended[int(rng.integers(len(self._appended)))]
            return "extend", {"traj_id": tid, "points": rng.uniform(0, 0.1, size=(2, 2))}
        if kind == "remove" and self._appended:
            tid = self._appended.pop(int(rng.integers(len(self._appended))))
            return "remove", {"traj_id": tid}
        if kind in ("merge", "repartition"):
            return kind, {}
        # extend/remove with nothing appended yet degrade to a search
        tau = float(rng.uniform(*self.tau_range))
        return "search", {"query": _perturbed_query(rng, self.data, self.perturb), "tau": tau}


def open_loop(
    data,
    tenants: Sequence[str],
    n_per_tenant: int,
    rate_per_tenant: float,
    seed: int = 0,
    **sampler_kwargs,
) -> List[Request]:
    """Pre-stamped Poisson arrivals, one independent stream per tenant."""
    requests: List[Request] = []
    req_id = 0
    for ti, tenant in enumerate(sorted(tenants)):
        kwargs = dict(sampler_kwargs)
        # disjoint per-tenant append-id ranges: two tenants must never
        # race to create the same trajectory id
        kwargs.setdefault("next_traj_id", 1_000_000 + ti * 100_000)
        sampler = RequestSampler(data, seed=seed * 1009 + ti, **kwargs)
        arrival_rng = np.random.default_rng(seed * 7919 + ti)
        t = 0.0
        for _ in range(n_per_tenant):
            t += float(arrival_rng.exponential(1.0 / rate_per_tenant))
            kind, payload = sampler.sample()
            requests.append(
                Request(req_id=req_id, tenant=tenant, kind=kind, payload=payload, arrival=t)
            )
            req_id += 1
    # re-number in global arrival order so req_id is the arrival order
    requests.sort(key=lambda r: (r.arrival, r.req_id))
    return [
        Request(req_id=i, tenant=r.tenant, kind=r.kind, payload=r.payload, arrival=r.arrival)
        for i, r in enumerate(requests)
    ]
