"""Tests for the analytics layer: clustering, frequent routes, outliers."""

import numpy as np
import pytest

from repro import DITAConfig, DITAEngine
from repro.analytics import (
    NOISE,
    KNNTrajectoryClassifier,
    TrajectoryDBSCAN,
    detect_outliers,
    knn_outlier_scores,
    mine_frequent_routes,
    route_for,
    similarity_graph,
    top_outliers,
)
from repro.datagen import citywide_dataset
from repro.distances import get_distance
from repro.storage.store import build_store
from repro.trajectory import Trajectory


@pytest.fixture(scope="module")
def engine():
    # 60 trips over 12 routes (duplication=5): clear cluster structure
    data = citywide_dataset(60, seed=81, duplication=5)
    cfg = DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3)
    return DITAEngine(data, cfg)


@pytest.fixture(scope="module")
def lonely_engine():
    """Route families plus two far-away loner trajectories."""
    data = list(citywide_dataset(40, seed=82, duplication=4))
    rng = np.random.default_rng(3)
    data.append(Trajectory(1000, rng.uniform(10, 11, size=(15, 2))))
    data.append(Trajectory(1001, rng.uniform(20, 21, size=(15, 2))))
    cfg = DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3)
    return DITAEngine(data, cfg)


TAU = 0.003


class TestSimilarityGraph:
    def test_symmetric_and_matches_brute_force(self, engine):
        adj = similarity_graph(engine, TAU)
        d = get_distance("dtw")
        trajs = [t for pid in engine.partition_pids() for t in engine.partition(pid)]
        for a in trajs[:10]:
            for b in trajs:
                if a.traj_id == b.traj_id:
                    continue
                similar = d.compute(a.points, b.points) <= TAU
                assert (b.traj_id in adj[a.traj_id]) == similar
                assert (a.traj_id in adj[b.traj_id]) == similar

    def test_every_vertex_present(self, engine):
        adj = similarity_graph(engine, 1e-9)
        assert len(adj) == len(engine)

    @pytest.mark.parametrize("fixture", ["engine", "lonely_engine"])
    def test_equals_the_full_join_graph(self, fixture, request):
        """The graph built from the self-join, each pair once with both
        ends recording it, is the one the full join minus identity pairs
        gives."""
        eng = request.getfixturevalue(fixture)
        full = {tid: set() for tid in similarity_graph(eng, 1e-9)}
        for a, b, _ in eng.join(eng, TAU):
            if a != b:
                full[a].add(b)
        adj = similarity_graph(eng, TAU)
        assert adj == full
        assert sum(len(n) for n in adj.values()) > 0


class TestDBSCAN:
    def test_recovers_route_families(self, engine):
        result = TrajectoryDBSCAN(eps=TAU, min_pts=3).fit(engine)
        # 60 trips over 12 routes of 5 members: expect ~12 clusters of ~5
        assert result.n_clusters >= 8
        sizes = [len(c) for c in result.clusters()]
        assert max(sizes) <= 12
        assert sum(sizes) + len(result.noise()) == len(engine)

    def test_min_pts_one_no_noise(self, engine):
        result = TrajectoryDBSCAN(eps=TAU, min_pts=1).fit(engine)
        assert result.noise() == []

    def test_huge_min_pts_all_noise(self, engine):
        result = TrajectoryDBSCAN(eps=TAU, min_pts=1000).fit(engine)
        assert result.n_clusters == 0
        assert len(result.noise()) == len(engine)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectoryDBSCAN(eps=-1)
        with pytest.raises(ValueError):
            TrajectoryDBSCAN(eps=1, min_pts=0)

    def test_labels_cover_everything(self, engine):
        result = TrajectoryDBSCAN(eps=TAU, min_pts=3).fit(engine)
        assert set(result.labels) == {
            t.traj_id for pid in engine.partition_pids() for t in engine.partition(pid)
        }


class TestFrequentRoutes:
    def test_mining_finds_routes(self, engine):
        routes = mine_frequent_routes(engine, TAU, min_support=3)
        assert routes
        assert all(r.support >= 3 for r in routes)
        # support-ranked
        supports = [r.support for r in routes]
        assert supports == sorted(supports, reverse=True)

    def test_representative_is_member(self, engine):
        for r in mine_frequent_routes(engine, TAU, min_support=3)[:3]:
            assert r.representative.traj_id in r.member_ids

    def test_route_for_query(self, engine):
        routes = mine_frequent_routes(engine, TAU, min_support=3)
        rep = routes[0].representative
        hit = route_for(routes, rep, engine, TAU)
        assert hit is not None
        assert rep.traj_id in hit.member_ids

    def test_route_for_far_query_none(self, engine):
        routes = mine_frequent_routes(engine, TAU, min_support=3)
        far = Trajectory(-5, np.full((10, 2), 50.0))
        assert route_for(routes, far, engine, TAU) is None

    def test_validation(self, engine):
        with pytest.raises(ValueError):
            mine_frequent_routes(engine, TAU, min_support=0)


class TestOutliers:
    def test_loners_detected(self, lonely_engine):
        report = detect_outliers(lonely_engine, TAU, min_neighbours=1)
        assert 1000 in report.outlier_ids
        assert 1001 in report.outlier_ids
        assert report.is_outlier(1000)

    def test_family_members_not_outliers(self, lonely_engine):
        report = detect_outliers(lonely_engine, TAU, min_neighbours=1)
        family_ids = [tid for tid in report.neighbour_counts if tid < 1000]
        flagged = set(report.outlier_ids)
        assert sum(1 for tid in family_ids if tid in flagged) <= len(family_ids) // 2

    def test_knn_scores_rank_loners_top(self, lonely_engine):
        top = top_outliers(lonely_engine, k=1, top=2)
        assert set(top) == {1000, 1001}

    def test_scores_cover_all(self, lonely_engine):
        scores = knn_outlier_scores(lonely_engine, k=1)
        assert len(scores) == len(lonely_engine)

    def test_validation(self, lonely_engine):
        with pytest.raises(ValueError):
            detect_outliers(lonely_engine, TAU, min_neighbours=0)
        with pytest.raises(ValueError):
            knn_outlier_scores(lonely_engine, k=0)


class TestKValidation:
    """Regression: a bad ``k`` was accepted by the classifier until its
    first ``predict``, and ``knn_outlier_scores(engine, k=1.5)`` failed
    naming ``k=2.5`` (the ``k + 1`` it asked the kNN for)."""

    @pytest.mark.parametrize("k", [2.5, True, "3", None, 0, -1])
    def test_classifier_rejects_at_construction(self, k):
        with pytest.raises(ValueError, match="k must be"):
            KNNTrajectoryClassifier(k=k)

    @pytest.mark.parametrize("k", [1.5, True, "3", None, 0])
    def test_outlier_scores_name_the_callers_k(self, lonely_engine, k):
        with pytest.raises(ValueError, match=f"got {k!r}$"):
            knn_outlier_scores(lonely_engine, k=k)

    def test_numpy_integer_k_accepted_by_both(self, lonely_engine):
        assert KNNTrajectoryClassifier(k=np.int64(3)).k == 3
        assert knn_outlier_scores(lonely_engine, k=np.int64(1)) == knn_outlier_scores(
            lonely_engine, k=1
        )


class TestClassifierBatch:
    def test_predict_many_is_predict_per_query(self, engine):
        trips = list(citywide_dataset(60, seed=81, duplication=5))
        labels = [t.traj_id % 3 for t in trips]
        clf = KNNTrajectoryClassifier(k=3).fit(trips[:45], labels[:45])
        queries = trips[45:]
        assert clf.predict_many(queries) == [clf.predict(q) for q in queries]
        hits = sum(clf.predict(q) == y for q, y in zip(queries, labels[45:]))
        assert clf.score(queries, labels[45:]) == hits / len(queries)


class TestReadContract:
    """Analytics see the engine's logical rows — pending writes and store
    blocks no query has loaded yet — not just the loaded blocks."""

    def test_appended_loner_is_reported(self):
        data = citywide_dataset(40, seed=82, duplication=4)
        cfg = DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3)
        engine = DITAEngine(data, cfg)
        engine.append_trajectory(1000, np.random.default_rng(3).uniform(10, 11, size=(15, 2)))
        report = detect_outliers(engine, TAU, min_neighbours=1)
        assert report.neighbour_counts[1000] == 0 and report.is_outlier(1000)
        assert len(report.neighbour_counts) == len(data) + 1

    def test_lazy_store_engine_is_scored_whole(self, tmp_path):
        data = citywide_dataset(120, seed=82, duplication=4)
        store = build_store(data, tmp_path / "trips.store", n_groups=2)
        engine = DITAEngine.from_store(store, DITAConfig(trie_fanout=4, num_pivots=3))
        assert not engine.runtime.loaded()  # nothing loaded yet
        scores = knn_outlier_scores(engine, k=1)
        assert sorted(scores) == sorted(int(i) for i in data.traj_ids)
