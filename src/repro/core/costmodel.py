"""The join cost model: weighted bi-graph, orientation, division (Section 6).

For every relevant partition pair ``(T_i, Q_j)`` DITA estimates, by
sampling, the bytes shipped and candidate pairs verified in either
direction, then:

1. **Graph orientation** — choose a direction per edge minimizing the
   maximum per-partition total cost ``TC = lambda * NC + CC`` (NP-hard,
   solved greedily per the paper);
2. **Division-based load balancing** — partitions whose TC exceeds the 98th
   cost percentile are replicated ``ceil(TC / TC_0.98)`` times and their
   edges spread across the replicas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: partition node key: ("T", i) or ("Q", j)
Node = Tuple[str, int]


@dataclass
class BiEdge:
    """One partition pair with sampled weights in both directions.

    ``trans_tq``/``comp_tq`` price sending T_i's relevant trajectories to
    Q_j and verifying there; ``trans_qt``/``comp_qt`` the reverse.
    ``direction`` is set by the planner: "tq" or "qt".
    """

    t_part: int
    q_part: int
    trans_tq: float
    comp_tq: float
    trans_qt: float
    comp_qt: float
    direction: str = "tq"

    def cost_into(self, node: Node, lam: float) -> float:
        """This edge's contribution to ``node``'s total cost under the
        current orientation: senders pay ``lambda * trans``, receivers pay
        ``comp`` (Section 6.2's NC and CC definitions)."""
        side, _ = node
        if self.direction == "tq":
            if side == "T":
                return lam * self.trans_tq
            return self.comp_tq
        if side == "Q":
            return lam * self.trans_qt
        return self.comp_qt

    @property
    def t_node(self) -> Node:
        return ("T", self.t_part)

    @property
    def q_node(self) -> Node:
        return ("Q", self.q_part)


@dataclass
class OrientationPlan:
    """The planner's output: oriented edges plus per-partition replication."""

    edges: List[BiEdge]
    total_costs: Dict[Node, float]
    replicas: Dict[Node, int] = field(default_factory=dict)

    @property
    def tc_global(self) -> float:
        return max(self.total_costs.values()) if self.total_costs else 0.0

    def replica_count(self, node: Node) -> int:
        return self.replicas.get(node, 1)


def _node_costs(edges: Sequence[BiEdge], lam: float) -> Dict[Node, float]:
    costs: Dict[Node, float] = {}
    for e in edges:
        for node in (e.t_node, e.q_node):
            costs[node] = costs.get(node, 0.0) + e.cost_into(node, lam)
    return costs


def orient_edges(edges: List[BiEdge], lam: float, max_iters: int = 1000) -> Dict[Node, float]:
    """Greedy orientation (Section 6.2).

    Initializes each edge toward the cheaper direction
    (``lambda * trans + comp`` comparison), then repeatedly flips the edge
    of the most loaded partition that best reduces ``TC_global``, stopping
    when no flip helps.  Mutates ``edges`` in place and returns the final
    per-node total costs.

    Each candidate flip needs the maximum cost over all nodes *excluding*
    the flipped edge's two endpoints.  Instead of rescanning every node per
    candidate edge (O(E_hot · V) per iteration), one O(V) pass per
    iteration keeps the three largest (cost, node) entries: at most two of
    them can be excluded, so the first non-excluded entry is exactly that
    maximum.  Flip decisions compare identical floats to the rescan, so
    plans stay byte-identical (the rescan is the oracle under
    ``tests/oracles/``).
    """
    for e in edges:
        cost_tq = lam * e.trans_tq + e.comp_tq
        cost_qt = lam * e.trans_qt + e.comp_qt
        e.direction = "tq" if cost_tq <= cost_qt else "qt"
    costs = _node_costs(edges, lam)
    if not costs:
        return costs
    edges_of: Dict[Node, List[BiEdge]] = {}
    for e in edges:
        edges_of.setdefault(e.t_node, []).append(e)
        edges_of.setdefault(e.q_node, []).append(e)
    for _ in range(max_iters):
        # one pass: the hottest node (first-seen tie-break, like max())
        # and the top three (cost, node) entries
        hot: Optional[Node] = None
        top3: List[Tuple[float, Node]] = []  # descending by cost
        for node, c in costs.items():
            if hot is None or c > costs[hot]:
                hot = node
            if len(top3) < 3 or c > top3[-1][0]:
                top3.append((c, node))
                top3.sort(key=lambda item: -item[0])
                del top3[3:]
        tc_global = costs[hot]
        best_edge: Optional[BiEdge] = None
        best_tc = tc_global
        for e in edges_of.get(hot, []):
            tn, qn = e.t_node, e.q_node
            old_t, old_q = e.cost_into(tn, lam), e.cost_into(qn, lam)
            e.direction = "qt" if e.direction == "tq" else "tq"
            new_t = costs[tn] - old_t + e.cost_into(tn, lam)
            new_q = costs[qn] - old_q + e.cost_into(qn, lam)
            e.direction = "qt" if e.direction == "tq" else "tq"
            # a flip only moves the endpoints' costs; the max over the rest
            # of the graph is the first top-3 entry not at an endpoint
            rest_max = 0.0
            for c, node in top3:
                if node != tn and node != qn:
                    rest_max = c
                    break
            new_tc = max(rest_max, new_t, new_q)
            if new_tc < best_tc:
                best_tc = new_tc
                best_edge = e
        if best_edge is None:
            break
        tn, qn = best_edge.t_node, best_edge.q_node
        costs[tn] -= best_edge.cost_into(tn, lam)
        costs[qn] -= best_edge.cost_into(qn, lam)
        best_edge.direction = "qt" if best_edge.direction == "tq" else "tq"
        costs[tn] += best_edge.cost_into(tn, lam)
        costs[qn] += best_edge.cost_into(qn, lam)
    return costs


#: the cost quantile that becomes a replica's budget (Section 6.3)
DIVISION_QUANTILE = 0.98


def divide_partitions(
    costs: Dict[Node, float], quantile: float = DIVISION_QUANTILE
) -> Dict[Node, int]:
    """Division-based load balancing (Section 6.3).

    The ``quantile`` cost over all partitions becomes the per-replica
    budget ``TC_q``; any partition with ``TC > TC_q`` is replicated
    ``ceil(TC / TC_q)`` times.
    """
    if not costs:
        return {}
    values = np.asarray(sorted(costs.values()))
    tc_q = float(np.quantile(values, quantile))
    replicas: Dict[Node, int] = {}
    if tc_q <= 0:
        return {node: 1 for node in costs}
    for node, tc in costs.items():
        replicas[node] = max(1, int(math.ceil(tc / tc_q)))
    return replicas


def plan_join(
    edges: List[BiEdge],
    lam: float,
    use_orientation: bool = True,
    use_division: bool = True,
) -> OrientationPlan:
    """Full Section 6 planning pipeline over sampled edges."""
    if use_orientation:
        costs = orient_edges(edges, lam)
    else:
        for e in edges:
            e.direction = "tq"
        costs = _node_costs(edges, lam)
    replicas = divide_partitions(costs) if use_division else {}
    return OrientationPlan(edges=edges, total_costs=costs, replicas=replicas)
