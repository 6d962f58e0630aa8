"""The rescanning greedy orientation: the equivalence oracle for
:func:`repro.core.costmodel.orient_edges`.  Moved here verbatim from
``src/repro/core/costmodel.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.costmodel import BiEdge, Node, _node_costs


def _orient_edges_reference(
    edges: List[BiEdge], lam: float, max_iters: int = 1000
) -> Dict[Node, float]:
    """The pre-optimization greedy orientation, kept verbatim as the
    equivalence oracle for :func:`orient_edges` (O(E_hot · V) rest-max
    rescan per iteration)."""
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
        tc_global = max(costs.values())
        hot = max(costs, key=lambda n: costs[n])
        best_edge: Optional[BiEdge] = None
        best_tc = tc_global
        for e in edges_of.get(hot, []):
            tn, qn = e.t_node, e.q_node
            old_t, old_q = e.cost_into(tn, lam), e.cost_into(qn, lam)
            e.direction = "qt" if e.direction == "tq" else "tq"
            new_t = costs[tn] - old_t + e.cost_into(tn, lam)
            new_q = costs[qn] - old_q + e.cost_into(qn, lam)
            e.direction = "qt" if e.direction == "tq" else "tq"
            rest_max = 0.0
            for node, c in costs.items():
                if node != tn and node != qn and c > rest_max:
                    rest_max = c
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
