"""End-to-end search correctness: DITA == brute force for every distance."""

import numpy as np
import pytest

from conftest import brute_force_search
from repro import DITAConfig, DITAEngine
from repro.core.adapters import EDRAdapter, LCSSAdapter, ERPAdapter
from repro.datagen import beijing_like, sample_queries
from repro.distances import get_distance
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def city():
    return beijing_like(120, seed=42)


@pytest.fixture(scope="module")
def cfg():
    return DITAConfig(num_global_partitions=3, trie_fanout=4, num_pivots=3, trie_leaf_capacity=4)


@pytest.fixture(scope="module")
def dtw_engine(city, cfg):
    return DITAEngine(city, cfg)


class TestDTWSearch:
    @pytest.mark.parametrize("tau", [0.0005, 0.001, 0.003, 0.005])
    def test_matches_brute_force(self, dtw_engine, city, cfg, tau):
        d = get_distance("dtw")
        for q in sample_queries(city, 4, seed=int(tau * 1e5)):
            got = dtw_engine.search_ids(q, tau)
            want = brute_force_search(city, d, q, tau)
            assert got == want

    def test_distances_returned_correct(self, dtw_engine, city):
        d = get_distance("dtw")
        q = sample_queries(city, 1, seed=7)[0]
        for t, dist in dtw_engine.search(q, 0.005):
            assert dist == pytest.approx(d.compute(t.points, q.points), abs=1e-9)
            assert dist <= 0.005

    def test_perturbed_queries(self, dtw_engine, city):
        d = get_distance("dtw")
        for q in sample_queries(city, 3, seed=11, perturb=0.0004):
            assert dtw_engine.search_ids(q, 0.004) == brute_force_search(city, d, q, 0.004)

    def test_tau_zero_finds_self(self, dtw_engine, city):
        q = sample_queries(city, 1, seed=1)[0]
        # the query is an exact copy of a dataset trajectory
        assert len(dtw_engine.search_ids(q, 0.0)) >= 1

    def test_negative_tau_rejected(self, dtw_engine, city):
        q = sample_queries(city, 1, seed=1)[0]
        with pytest.raises(ValueError):
            dtw_engine.search(q, -0.1)

    def test_stats_collected(self, dtw_engine, city):
        q = sample_queries(city, 1, seed=3)[0]
        stats = MetricsRegistry()
        dtw_engine.search(q, 0.003, stats=stats)
        assert stats.value("search.relevant_partitions") >= 1
        assert stats.value("search.verify.pairs") == stats.value("search.filter.candidates")

    def test_count_candidates_superset_of_answers(self, dtw_engine, city):
        d = get_distance("dtw")
        q = sample_queries(city, 1, seed=5)[0]
        tau = 0.003
        assert dtw_engine.count_candidates(q, tau) >= len(brute_force_search(city, d, q, tau))


class TestFrechetSearch:
    @pytest.mark.parametrize("tau", [0.0005, 0.002])
    def test_matches_brute_force(self, city, cfg, tau):
        engine = DITAEngine(city, cfg, distance="frechet")
        d = get_distance("frechet")
        for q in sample_queries(city, 4, seed=13):
            assert engine.search_ids(q, tau) == brute_force_search(city, d, q, tau)


class TestEDRSearch:
    @pytest.mark.parametrize("tau", [1, 3])
    def test_matches_brute_force(self, city, cfg, tau):
        eps = 0.0005
        engine = DITAEngine(city, cfg, distance=EDRAdapter(epsilon=eps))
        d = get_distance("edr", epsilon=eps)
        for q in sample_queries(city, 3, seed=17):
            assert engine.search_ids(q, tau) == brute_force_search(city, d, q, tau)


class TestLCSSSearch:
    def test_matches_brute_force(self, city, cfg):
        eps, delta, tau = 0.0005, 3, 2
        engine = DITAEngine(city, cfg, distance=LCSSAdapter(epsilon=eps, delta=delta))
        d = get_distance("lcss", epsilon=eps, delta=delta)
        for q in sample_queries(city, 3, seed=19):
            assert engine.search_ids(q, tau) == brute_force_search(city, d, q, tau)


class TestERPSearch:
    def test_matches_brute_force(self, city, cfg):
        engine = DITAEngine(city, cfg, distance=ERPAdapter(ndim=2))
        d = get_distance("erp")
        for q in sample_queries(city, 2, seed=23):
            assert engine.search_ids(q, 0.01) == brute_force_search(city, d, q, 0.01)


class TestEngineConfigVariants:
    def test_search_correct_without_optimizations(self, city):
        """Every filter disabled must not change answers (only speed): the
        adapter without Lemma 5.1's suffix pruning, the verifier without
        Lemma 5.4 and Lemma 5.6 — for each of the six distances."""
        from repro.core.adapters import get_adapter
        from repro.core.verify import Verifier

        cfg = DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=2)
        params = {"edr": {"epsilon": 0.0005}, "lcss": {"epsilon": 0.0005, "delta": 3}}
        taus = {"dtw": 0.003, "frechet": 0.002, "hausdorff": 0.002, "erp": 0.01,
                "edr": 3, "lcss": 2}
        q = sample_queries(city, 1, seed=29)[0]
        for name, tau in taus.items():
            adapter = get_adapter(name, use_suffix_pruning=False, **params.get(name, {}))
            engine = DITAEngine(city, cfg, distance=adapter)
            engine.verifier = Verifier(adapter, False, False)
            d = get_distance(name, **params.get(name, {}))
            assert engine.search_ids(q, tau) == brute_force_search(city, d, q, tau), name

    def test_single_partition(self, city):
        cfg = DITAConfig(num_global_partitions=1, trie_fanout=4, num_pivots=2)
        engine = DITAEngine(city, cfg)
        d = get_distance("dtw")
        q = sample_queries(city, 1, seed=31)[0]
        assert engine.search_ids(q, 0.003) == brute_force_search(city, d, q, 0.003)

    def test_empty_dataset_rejected(self, cfg):
        with pytest.raises(ValueError):
            DITAEngine([], cfg)

    def test_index_size_reported(self, dtw_engine):
        g, l = dtw_engine.index_size_bytes()
        assert g > 0 and l > 0

    def test_build_time_recorded(self, dtw_engine):
        assert dtw_engine.build_time_s > 0


QUERY_ENTRIES = ["search", "search_batch", "self_join", "knn_search", "knn_join", "sql"]
BAD_QUERIES = {
    "negative tau": dict(tau=-0.1),
    "nan tau": dict(tau=float("nan")),
    "nan coordinate": dict(points=[(116.3, 39.9), (float("nan"), 39.9)]),
    "infinite coordinate": dict(points=[(116.3, 39.9), (116.3, float("inf"))]),
    "three dimensions": dict(points=[(116.3, 39.9, 0.0), (116.4, 39.9, 0.0)]),
}
#: an entry point meets the bad inputs it takes: the kNN calls and the SQL
#: literal have no tau to get wrong, a self-join no query
BAD_QUERY_CASES = [
    (entry, bad)
    for entry in QUERY_ENTRIES
    for bad, case in BAD_QUERIES.items()
    if ("tau" in case and entry in ("search", "search_batch", "self_join"))
    or ("points" in case and entry != "self_join")
]


class TestQueryValidation:
    """Every query entry point rejects, with ``ValueError`` and before doing
    any work, what would otherwise come back as a wrong answer: a NaN
    fails every comparison on the way down (an empty search result, three
    arbitrary kNN neighbours) and a wrong dimensionality surfaces as a
    numpy broadcasting error from deep inside a kernel."""

    @staticmethod
    def _call(entry, engine, city, query, tau):
        from repro.core.knn import knn_join, knn_search
        from repro.sql import DITASession

        if entry == "search":
            return engine.search(query, tau)
        if entry == "search_batch":
            good = sample_queries(city, 1, seed=2)[0]
            return engine.search_batch([good, query], [0.003, tau])
        if entry == "self_join":
            return engine.self_join(tau)
        if entry == "knn_search":
            return knn_search(engine, query, 3)
        if entry == "knn_join":
            return knn_join(engine, DITAEngine([query], engine.config), 3)
        session = DITASession(engine.config)
        session.register("taxi", city)
        session.catalog.get("taxi").engine = engine
        return session.sql(
            "SELECT traj_id FROM taxi WHERE DTW(taxi, :q) <= 0.003", params={"q": query}
        )

    @pytest.mark.parametrize("entry,bad", BAD_QUERY_CASES, ids=[f"{e}-{b}" for e, b in BAD_QUERY_CASES])
    def test_rejected_at_the_boundary(self, dtw_engine, city, entry, bad):
        from repro.trajectory import Trajectory

        case = BAD_QUERIES[bad]
        query = Trajectory(-7, case.get("points", sample_queries(city, 1, seed=1)[0].points))
        generation = dtw_engine.generation
        with pytest.raises(ValueError, match="tau must be|points must be"):
            self._call(entry, dtw_engine, city, query, case.get("tau", 0.003))
        assert dtw_engine.generation == generation

    def test_infinite_tau_stays_legal(self, dtw_engine, city):
        import math

        q = sample_queries(city, 1, seed=1)[0]
        assert dtw_engine.search_ids(q, math.inf) == sorted(t.traj_id for t in city)


TAU_ENTRIES = ["search", "search_batch", "join", "self_join", "knn_search", "sql"]
#: a tau that is no real number: a bool once ran silently at 1.0, the rest
#: raised an untyped TypeError from a comparison deep in the call
BAD_TAUS = {"bool": True, "string": "abc", "none": None, "complex": 1 + 0j}


class TestTauType:
    """Each query entry point takes a real, non-bool number as ``tau``;
    anything else is a typed error naming it, before any work is done."""

    @staticmethod
    def _call(entry, engine, city, tau):
        from repro.core.knn import knn_search
        from repro.sql import DITASession

        q = sample_queries(city, 1, seed=1)[0]
        if entry == "search":
            return engine.search(q, tau)
        if entry == "search_batch":
            return engine.search_batch([q, q], [0.003, tau])
        if entry == "join":
            return engine.join(engine, tau)
        if entry == "self_join":
            return engine.self_join(tau)
        if entry == "knn_search":
            return knn_search(engine, q, 3, tau=tau)
        session = DITASession(engine.config)
        session.register("taxi", city)
        session.catalog.get("taxi").engine = engine
        return session.sql(
            "SELECT traj_id FROM taxi WHERE DTW(taxi, :q) <= :tau",
            params={"q": q, "tau": tau},
        )

    @pytest.mark.parametrize("bad", sorted(BAD_TAUS))
    @pytest.mark.parametrize("entry", TAU_ENTRIES)
    def test_rejected_naming_tau(self, dtw_engine, city, entry, bad):
        from repro.sql.tokens import SQLError

        generation = dtw_engine.generation
        with pytest.raises(SQLError if entry == "sql" else ValueError, match="tau"):
            self._call(entry, dtw_engine, city, BAD_TAUS[bad])
        assert dtw_engine.generation == generation

    @pytest.mark.parametrize("entry", TAU_ENTRIES)
    def test_numpy_float_accepted(self, dtw_engine, city, entry):
        want = self._call(entry, dtw_engine, city, 0.003)
        assert self._call(entry, dtw_engine, city, np.float64(0.003)) == want


class TestConstructorValidation:
    """What ``append_trajectory`` refuses, construction refuses too: a
    NaN coordinate poisons every MBR computed over it, so an engine or a
    store built over one would prune wrongly without complaint."""

    #: numeric DITAConfig field -> a value just below its range
    BELOW_RANGE = {
        "num_global_partitions": 0, "trie_fanout": 0, "num_pivots": -1,
        "trie_leaf_capacity": 0, "cell_size": 0.0, "comp_time_per_pair": 0.0,
        "network_bandwidth": 0.0, "num_processes": -1, "delta_max_rows": 0,
        "repartition_skew_ratio": 0.5, "max_inflight": 0, "tenant_rate": 0.0,
        "tenant_burst": 0.5, "serving_queue_depth": 0, "result_cache_bytes": -1,
        "seed": -1,
    }

    @pytest.mark.parametrize("field", sorted(BELOW_RANGE))
    @pytest.mark.parametrize("bad", ["nan", "inf", "below", "none"])
    def test_config_rejects_hostile_values(self, field, bad):
        """A NaN cell size once returned empty answers, a zero Δ divided by
        zero in the join planner and None reached the block build: each is
        a ``ValueError`` naming the field at construction."""
        value = {"nan": float("nan"), "inf": float("inf"), "none": None,
                 "below": self.BELOW_RANGE[field]}[bad]
        with pytest.raises(ValueError, match=field):
            DITAConfig(**{field: value})

    @pytest.mark.parametrize("entry", ["init", "from_partitions", "build_store"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_coordinates_rejected(self, city, cfg, tmp_path, entry, bad):
        from repro import build_store
        from repro.storage import ColumnarDataset
        from repro.trajectory import Trajectory

        data = list(city)[:50] + [Trajectory(9999, [[0, 0], [bad, 1], [1, 1]])]
        with pytest.raises(ValueError, match="points must be finite"):
            if entry == "init":
                DITAEngine(data, cfg)
            elif entry == "from_partitions":
                DITAEngine.from_partitions({0: ColumnarDataset.from_trajectories(data)}, cfg)
            else:
                build_store(data, tmp_path / "store", n_groups=2)
        assert not (tmp_path / "store").exists()  # refused before anything was written
