"""Unit tests for the per-distance index adapters (Appendix A): each
level policy, through ``visit_batch`` on a one-row frontier and checked
against the scalar oracle (``tests/oracles/scalar_filter.py``)."""

import numpy as np
import pytest

from repro.core.adapters import (
    DTWAdapter,
    EDRAdapter,
    ERPAdapter,
    FIRST,
    LAST,
    PIVOT,
    FilterState,
    FrechetAdapter,
    LCSSAdapter,
    get_adapter,
)
from oracles.scalar_filter import visit as scalar_visit
from repro.core.verify import Verifier
from repro.geometry.mbr import MBR
from repro.kernels.frontier import BatchVisit, QueryBatch

Q = np.array([(0, 0), (1, 0), (2, 0), (3, 0)], float)


def visit(adapter, state, kind, mbr, q, node_max_len=None):
    """One trie level for one query through ``adapter.visit_batch``, checked
    against the oracle's scalar ``visit``: the child ``FilterState``, or
    None when the child is pruned.  An unknown ``node_max_len`` is an
    unbounded one."""
    want = scalar_visit(adapter, state, kind, mbr, q, node_max_len)
    unbounded = np.iinfo(np.int64).max
    step = adapter.visit_batch(
        BatchVisit(
            kind=kind,
            low=mbr.low[None, :],
            high=mbr.high[None, :],
            node_max_len=np.asarray([unbounded if node_max_len is None else node_max_len]),
            remaining=np.asarray([state.remaining], dtype=np.float64),
            q_start=np.asarray([state.q_start], dtype=np.int64),
            tau1=np.asarray([np.nan if state.tau1 is None else state.tau1]),
            q_idx=np.zeros(1, dtype=np.int64),
            batch=QueryBatch([q]),
        )
    )
    if want is None:
        assert not step.keep[0]
        return None
    assert step.keep[0]
    tau1 = float(step.tau1[0])
    got = FilterState(
        remaining=float(step.remaining[0]),
        q_start=int(step.q_start[0]),
        tau1=None if np.isnan(tau1) else tau1,
    )
    assert got == want
    return got


class TestFactory:
    def test_known_names(self):
        for name in ("dtw", "frechet", "hausdorff", "edr", "lcss", "erp"):
            adapter = get_adapter(name)
            assert adapter.distance_name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_adapter("sspd")

    def test_parameters_forwarded(self):
        a = get_adapter("edr", epsilon=0.5)
        assert a.epsilon == 0.5
        b = get_adapter("lcss", epsilon=0.2, delta=7)
        assert b.delta == 7


class TestDTWAdapter:
    def test_first_level_subtracts(self):
        a = DTWAdapter(use_suffix_pruning=False)
        state = a.initial_state(Q, 10.0)
        mbr = MBR((0, 1), (0, 1))  # dist 1 from q1=(0,0)
        out = visit(a, state, FIRST, mbr, Q)
        assert out is not None
        assert out.remaining == pytest.approx(9.0, abs=1e-6)

    def test_prunes_beyond_budget(self):
        a = DTWAdapter()
        state = a.initial_state(Q, 0.5)
        mbr = MBR((0, 1), (0, 1))
        assert visit(a, state, FIRST, mbr, Q) is None

    def test_last_level_sets_tau1(self):
        a = DTWAdapter(use_suffix_pruning=True)
        state = a.initial_state(Q, 10.0)
        mbr = MBR((3, 1), (3, 1))  # dist 1 from qn=(3,0)
        out = visit(a, state, LAST, mbr, Q)
        assert out.tau1 == pytest.approx(9.0, abs=1e-6)

    def test_pivot_suffix_drop(self):
        a = DTWAdapter(use_suffix_pruning=True)
        # tau1 small: first two query points are too far from the pivot MBR
        state = FilterState(remaining=1.5, q_start=0, tau1=1.5)
        mbr = MBR((2.5, 0), (3.5, 0.0))  # near the tail of Q only
        out = visit(a, state, PIVOT, mbr, Q)
        assert out is not None
        assert out.q_start >= 1  # prefix dropped

    def test_pivot_empty_suffix_prunes(self):
        a = DTWAdapter()
        state = FilterState(remaining=1.0, q_start=4, tau1=1.0)
        out = visit(a, state, PIVOT, MBR((0, 0), (1, 1)), Q)
        assert out is None


class TestFrechetAdapter:
    def test_never_subtracts(self):
        a = FrechetAdapter()
        state = a.initial_state(Q, 2.0)
        mbr = MBR((0, 1), (0, 1))
        out = visit(a, state, FIRST, mbr, Q)
        assert out.remaining == state.remaining

    def test_prunes_on_exceed(self):
        a = FrechetAdapter()
        state = a.initial_state(Q, 0.5)
        assert visit(a, state, FIRST, MBR((0, 1), (0, 1)), Q) is None

    def test_pivot_checks_whole_suffix(self):
        a = FrechetAdapter(use_suffix_pruning=False)
        state = a.initial_state(Q, 0.5)
        far = MBR((10, 10), (11, 11))
        assert visit(a, state, PIVOT, far, Q) is None


class TestEDRAdapter:
    def test_within_epsilon_free(self):
        a = EDRAdapter(epsilon=1.0)
        state = a.initial_state(Q, 2)
        near = MBR((0, 0.5), (1, 0.5))
        out = visit(a, state, PIVOT, near, Q)
        assert out.remaining == state.remaining

    def test_beyond_epsilon_costs_one_edit(self):
        a = EDRAdapter(epsilon=0.1)
        state = a.initial_state(Q, 2)
        far = MBR((10, 10), (10, 10))
        out = visit(a, state, PIVOT, far, Q)
        assert out.remaining == pytest.approx(state.remaining - 1)

    def test_budget_exhaustion_prunes(self):
        a = EDRAdapter(epsilon=0.1)
        state = FilterState(remaining=0)
        far = MBR((10, 10), (10, 10))
        assert visit(a, state, PIVOT, far, Q) is None

    def test_verifier_disables_geometric_filters(self):
        v = Verifier(EDRAdapter())
        assert not v.use_mbr_coverage
        assert not v.use_cell_filter


class TestLCSSAdapter:
    def test_decrement_only_when_node_short(self):
        a = LCSSAdapter(epsilon=0.1)
        far = MBR((10, 10), (10, 10))
        state = a.initial_state(Q, 2)
        # node longer than the query: cannot decrement soundly
        out = visit(a, state, PIVOT, far, Q, node_max_len=100)
        assert out.remaining == state.remaining
        # node at most as long as the query: decrement applies
        out = visit(a, state, PIVOT, far, Q, node_max_len=3)
        assert out.remaining == pytest.approx(state.remaining - 1)

    def test_unknown_length_passes_through(self):
        a = LCSSAdapter(epsilon=0.1)
        state = a.initial_state(Q, 2)
        out = visit(a, state, PIVOT, MBR((10, 10), (10, 10)), Q, node_max_len=None)
        assert out.remaining == state.remaining


class TestERPAdapter:
    def test_gap_point_caps_cost(self):
        """A point can always be gapped, so the level cost never exceeds its
        distance to the gap point."""
        a = ERPAdapter(gap=(0.0, 0.0))
        state = a.initial_state(Q, 100.0)
        far = MBR((0, 5), (0, 5))  # 5 from gap, farther from Q
        out = visit(a, state, PIVOT, far, Q)
        assert out.remaining >= 100.0 - 5 - 1e-9

    def test_suffix_pruning_forced_off(self):
        assert not ERPAdapter(use_suffix_pruning=True).use_suffix_pruning
