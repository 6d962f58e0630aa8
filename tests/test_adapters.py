"""Unit tests for the per-distance index adapters (Appendix A): each
level policy, through ``visit_batch`` on a one-row frontier and checked
against the scalar oracle (``tests/oracles/scalar_filter.py``)."""

import pickle
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_force_join, brute_force_search
from repro import DITAConfig, DITAEngine
from repro.core import adapters as adapters_module
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
    available_adapters,
    get_adapter,
)
from oracles.scalar_filter import visit as scalar_visit
from repro.core.knn import knn_search
from repro.core.verify import Verifier
from repro.datagen import beijing_like, citywide_dataset, sample_queries
from repro.distances import TrajectoryDistance, base as distances_base, dtw, get_distance
from repro.distances import register_distance
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
        assert a.distance().epsilon == 0.5
        b = get_adapter("lcss", epsilon=0.2, delta=7)
        assert b.distance().delta == 7


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


# --------------------------------------------------------------------- #
# the declaration contract: one adapter class + one distance class
# --------------------------------------------------------------------- #

#: name -> (endpoint_bound, cell_bound): what each function pins and admits
TRAITS = {
    "dtw": ("sum", "sum"),
    "frechet": ("max", "max"),
    "hausdorff": (None, "max"),
    "edr": (None, None),
    "lcss": (None, None),
    "erp": (None, None),
}


class TestDeclaration:
    def test_traits_of_the_six(self):
        assert available_adapters() == sorted(TRAITS)
        for name, traits in TRAITS.items():
            adapter = get_adapter(name)
            assert (adapter.endpoint_bound, adapter.cell_bound) == traits, name
            # one distance object, built once, under the adapter's own name
            assert adapter.distance() is adapter.distance()
            assert adapter.distance().name == name

    @pytest.mark.parametrize(
        "name,cls,params", [("edr", EDRAdapter, {"epsilon": -1.0}), ("lcss", LCSSAdapter, {"delta": -2})]
    )
    def test_bad_parameters_rejected_before_any_index(self, name, cls, params, monkeypatch):
        """The distance's own validation guards the adapter: a negative
        epsilon used to surface inside a task body on the first query, and
        a negative delta was accepted outright."""
        import repro.core.runtime as runtime_module

        built = []

        class CountingTrie(runtime_module.TrieIndex):
            def __init__(self, part, config):
                built.append(part)
                super().__init__(part, config)

        monkeypatch.setattr(runtime_module, "TrieIndex", CountingTrie)
        data = citywide_dataset(12, seed=3)
        with pytest.raises(ValueError):
            get_adapter(name, **params)
        with pytest.raises(ValueError):
            DITAEngine(data, distance=cls(**params))
        assert not built

    @pytest.mark.parametrize("name", sorted(TRAITS))
    def test_pickled_adapter_computes_the_same(self, name):
        """An adapter rides ``SideInit`` to spawned workers: the copy must
        carry its distance, and its ``exact_batch`` must equal looping the
        original's ``exact`` bit for bit on a ragged batch."""
        adapter = get_adapter(name, epsilon=0.0005) if name in ("edr", "lcss") else get_adapter(name)
        clone = pickle.loads(pickle.dumps(adapter))
        assert repr(clone) == repr(adapter)
        data = list(citywide_dataset(12, seed=71))
        ts = [t.points for t in data]
        near = [q.points for q in sample_queries(data, len(data), seed=5, perturb=0.0002)]
        qs = near[5:] + near[:5]
        assert any(t.shape[0] != q.shape[0] for t, q in zip(ts, qs))
        taus = [(2.0 if name in ("edr", "lcss") else 0.01) * (1 + i % 3) for i in range(len(ts))]
        got = np.asarray(clone.exact_batch(ts, qs, taus), dtype=np.float64)
        want = np.asarray([adapter.exact(t, q, x) for t, q, x in zip(ts, qs, taus)], dtype=np.float64)
        assert np.isfinite(want).any()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture
def dtw2x():
    """A seventh similarity function declared here and nowhere under
    ``src/``: twice DTW, on DTW's descent and traits (whatever bounds DTW
    from below bounds its double).  Two classes; the fixture unregisters
    them again."""

    @register_distance("dtw2x")
    class DTW2XDistance(TrajectoryDistance):
        lower_bound_exempt = "test-only distance"

        def compute(self, t, q):
            return 2.0 * dtw(t, q)

    class DTW2XAdapter(DTWAdapter):
        distance_name = "dtw2x"

    yield get_distance("dtw2x")
    del adapters_module._REGISTRY["dtw2x"], distances_base._REGISTRY["dtw2x"]


class TestSeventhDistance:
    def test_answers_match_brute_force_with_no_edit_under_src(self, dtw2x):
        from repro.sql import DITASession

        src = Path(adapters_module.__file__).resolve().parents[2]
        assert not [p for p in src.rglob("*.py") if "dtw2x" in p.read_text().lower()]
        data = beijing_like(120, seed=11)
        queries = sample_queries(data, 3, seed=2)
        tau, join_tau = 0.002, 0.004
        config = DITAConfig(num_global_partitions=3)
        engine = DITAEngine(data, config, distance="dtw2x")
        assert type(engine.adapter).__name__ == "DTW2XAdapter"
        session = DITASession(config)
        session.register("trips", data)
        halved = False
        for q in queries:
            want = brute_force_search(data, dtw2x, q, tau)
            halved |= want != brute_force_search(data, get_distance("dtw"), q, tau)
            assert sorted(t.traj_id for t, _ in engine.search(q, tau)) == want
            rows = session.sql(
                "SELECT * FROM trips t WHERE DTW2X(t, :q) <= :tau", params={"q": q, "tau": tau}
            )
            assert sorted(r["t.traj_id"] for r in rows) == want
            ranked = sorted((dtw2x.compute(t.points, q.points), t.traj_id) for t in data)[:5]
            assert [(d, t.traj_id) for t, d in knn_search(engine, q, 5)] == ranked
        assert halved  # the doubling decided at least one answer
        pairs = [(a, b) for a, b in brute_force_join(data, data, dtw2x, join_tau) if a < b]
        assert sorted((a, b) for a, b, _ in engine.self_join(join_tau)) == pairs and pairs
