"""Unit tests for the bi-graph cost model (Section 6.2-6.3)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costmodel import (
    BiEdge,
    divide_partitions,
    orient_edges,
    plan_join,
)


def _edge(t, q, ttq=1.0, ctq=1.0, tqt=1.0, cqt=1.0):
    return BiEdge(t_part=t, q_part=q, trans_tq=ttq, comp_tq=ctq, trans_qt=tqt, comp_qt=cqt)


@st.composite
def edge_lists(draw):
    n_t = draw(st.integers(1, 4))
    n_q = draw(st.integers(1, 4))
    weights = st.floats(0, 100, allow_nan=False, allow_infinity=False)
    edges = []
    for i in range(n_t):
        for j in range(n_q):
            if draw(st.booleans()):
                edges.append(
                    _edge(i, j, draw(weights), draw(weights), draw(weights), draw(weights))
                )
    return edges


class TestBiEdge:
    def test_cost_into_directions(self):
        e = _edge(0, 0, ttq=10, ctq=3, tqt=7, cqt=5)
        lam = 2.0
        e.direction = "tq"
        assert e.cost_into(("T", 0), lam) == 20  # sender pays lambda * trans
        assert e.cost_into(("Q", 0), lam) == 3   # receiver pays comp
        e.direction = "qt"
        assert e.cost_into(("Q", 0), lam) == 14
        assert e.cost_into(("T", 0), lam) == 5


class TestOrientation:
    def test_initial_direction_prefers_cheaper(self):
        e = _edge(0, 0, ttq=1, ctq=1, tqt=100, cqt=100)
        orient_edges([e], lam=1.0)
        assert e.direction == "tq"

    def test_balances_hot_node(self):
        """A node flooded by naive orientation gets relief via flips."""
        # all edges initially point into Q0 (comp_tq huge on Q side? build
        # a star where tq is slightly cheaper individually but overloads Q0)
        edges = [_edge(i, 0, ttq=1, ctq=10, tqt=1.5, cqt=10) for i in range(6)]
        costs = orient_edges(edges, lam=1.0)
        tc = max(costs.values())
        # naive all-tq would give Q0 a comp of 60; the greedy must do better
        assert tc < 60

    def test_empty_edges(self):
        assert orient_edges([], lam=1.0) == {}

    @settings(max_examples=60)
    @given(edge_lists(), st.floats(0.01, 10))
    def test_never_worse_than_initial(self, edges, lam):
        """Greedy flips only ever reduce TC_global."""
        import copy

        initial = copy.deepcopy(edges)
        for e in initial:
            cost_tq = lam * e.trans_tq + e.comp_tq
            cost_qt = lam * e.trans_qt + e.comp_qt
            e.direction = "tq" if cost_tq <= cost_qt else "qt"
        from repro.core.costmodel import _node_costs

        initial_tc = max(_node_costs(initial, lam).values()) if initial else 0.0
        costs = orient_edges(edges, lam=lam)
        final_tc = max(costs.values()) if costs else 0.0
        assert final_tc <= initial_tc + 1e-9

    @settings(max_examples=60)
    @given(edge_lists(), st.floats(0.01, 10))
    def test_costs_consistent_with_directions(self, edges, lam):
        from repro.core.costmodel import _node_costs

        costs = orient_edges(edges, lam=lam)
        fresh = _node_costs(edges, lam)
        assert set(costs) == set(fresh)
        for node in fresh:
            assert costs[node] == pytest.approx(fresh[node], abs=1e-6)


class TestDivision:
    def test_no_replication_when_balanced(self):
        costs = {("T", i): 10.0 for i in range(10)}
        replicas = divide_partitions(costs, 0.98)
        assert all(r == 1 for r in replicas.values())

    def test_heavy_partition_replicated(self):
        costs = {("T", i): 1.0 for i in range(49)}
        costs[("T", 99)] = 50.0
        replicas = divide_partitions(costs, 0.98)
        assert replicas[("T", 99)] > 1
        assert all(replicas[("T", i)] == 1 for i in range(49))

    def test_replica_count_formula(self):
        costs = {("T", 0): 1.0, ("T", 1): 1.0, ("T", 2): 10.0}
        replicas = divide_partitions(costs, 0.5)
        tc_q = 1.0  # median
        assert replicas[("T", 2)] == math.ceil(10.0 / tc_q)

    def test_empty(self):
        assert divide_partitions({}) == {}

    def test_zero_costs(self):
        replicas = divide_partitions({("T", 0): 0.0, ("Q", 0): 0.0})
        assert all(r == 1 for r in replicas.values())


class TestPlanJoin:
    def test_full_pipeline(self):
        edges = [_edge(0, 0, 5, 5, 1, 1), _edge(0, 1, 2, 2, 9, 9)]
        plan = plan_join(edges, lam=1.0)
        assert plan.tc_global > 0
        assert set(plan.replicas) == set(plan.total_costs)

    def test_orientation_toggle(self):
        edges = [_edge(0, 0, ttq=1, ctq=1, tqt=100, cqt=100)]
        plan = plan_join(edges, lam=1.0, use_orientation=False)
        assert edges[0].direction == "tq"  # forced default

    def test_division_toggle(self):
        edges = [_edge(0, 0)]
        plan = plan_join(edges, lam=1.0, use_division=False)
        assert plan.replicas == {}
        assert plan.replica_count(("T", 0)) == 1


class TestOrientationEquivalence:
    """The top-k-maintenance rewrite of ``orient_edges`` must reproduce the
    O(V)-rescan reference implementation decision for decision."""

    @settings(max_examples=120)
    @given(edge_lists(), st.floats(0.01, 10))
    def test_matches_reference_bit_for_bit(self, edges, lam):
        import copy

        from oracles.orient_reference import _orient_edges_reference

        a = copy.deepcopy(edges)
        b = copy.deepcopy(edges)
        costs_new = orient_edges(a, lam=lam)
        costs_ref = _orient_edges_reference(b, lam=lam)
        assert [e.direction for e in a] == [e.direction for e in b]
        assert costs_new == costs_ref  # float-exact, not approx

    def test_matches_reference_on_duplicate_costs(self):
        """Exact cost ties everywhere — the tie-break paths must agree."""
        import copy

        from oracles.orient_reference import _orient_edges_reference

        edges = [_edge(i, j) for i in range(3) for j in range(3)]
        a = copy.deepcopy(edges)
        b = copy.deepcopy(edges)
        assert orient_edges(a, lam=1.0) == _orient_edges_reference(b, lam=1.0)
        assert [e.direction for e in a] == [e.direction for e in b]
