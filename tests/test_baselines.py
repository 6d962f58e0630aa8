"""Correctness and behavioural tests for every baseline."""

import pytest

from conftest import brute_force_join, brute_force_search
from oracles.envelope_reference import envelope_lower_bound
from repro.baselines import (
    DFTEngine,
    MBEIndex,
    NaiveEngine,
    SimbaEngine,
    VPTree,
    envelope,
    segment_trajectory,
)
from repro.datagen import beijing_like, sample_queries
from repro.distances import get_distance
from repro.distances.dtw import dtw
from repro.distances.frechet import frechet
from repro.trajectory import Trajectory


@pytest.fixture(scope="module")
def city():
    return beijing_like(100, seed=91)


@pytest.fixture(scope="module")
def queries(city):
    return sample_queries(city, 4, seed=17)


class TestNaive:
    def test_search_matches_brute_force(self, city, queries):
        engine = NaiveEngine(city, n_partitions=4)
        d = get_distance("dtw")
        for q in queries:
            assert engine.search_ids(q, 0.003) == brute_force_search(city, d, q, 0.003)

    def test_join_matches_brute_force(self, city):
        small = list(city)[:40]
        engine = NaiveEngine(small, n_partitions=2)
        other = NaiveEngine(small, n_partitions=2)
        d = get_distance("dtw")
        got = sorted((a, b) for a, b, _ in engine.join(other, 0.002))
        assert got == brute_force_join(small, small, d, 0.002)

    def test_candidates_is_everything(self, city, queries):
        engine = NaiveEngine(city)
        assert engine.count_candidates(queries[0], 0.001) == len(city)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NaiveEngine([])


class TestSimba:
    def test_search_matches_brute_force(self, city, queries):
        engine = SimbaEngine(city, n_partitions=4)
        d = get_distance("dtw")
        for q in queries:
            assert engine.search_ids(q, 0.003) == brute_force_search(city, d, q, 0.003)

    def test_frechet_mode(self, city, queries):
        engine = SimbaEngine(city, n_partitions=4, distance="frechet")
        d = get_distance("frechet")
        q = queries[0]
        assert engine.search_ids(q, 0.001) == brute_force_search(city, d, q, 0.001)

    def test_join_matches_brute_force(self, city):
        small = list(city)[:40]
        engine = SimbaEngine(small, n_partitions=2)
        other = SimbaEngine(small, n_partitions=2)
        d = get_distance("dtw")
        got = sorted((a, b) for a, b, _ in engine.join(other, 0.002))
        assert got == brute_force_join(small, small, d, 0.002)

    def test_candidate_count_at_least_answers(self, city, queries):
        engine = SimbaEngine(city, n_partitions=4)
        d = get_distance("dtw")
        q = queries[1]
        assert engine.count_candidates(q, 0.003) >= len(
            brute_force_search(city, d, q, 0.003)
        )

    def test_index_size(self, city):
        g, l = SimbaEngine(city).index_size_bytes()
        assert g > 0 and l > 0


class TestDFT:
    def test_search_matches_brute_force(self, city, queries):
        engine = DFTEngine(city, n_partitions=4)
        d = get_distance("dtw")
        for q in queries:
            assert engine.search_ids(q, 0.003) == brute_force_search(city, d, q, 0.003)

    def test_bitmap_accounting(self, city, queries):
        engine = DFTEngine(city, n_partitions=4)
        engine.search(queries[0], 0.003)
        assert engine.last_bitmap_bytes > 0

    def test_join_bitmap_estimate_scales(self, city):
        engine = DFTEngine(city, n_partitions=4)
        assert engine.estimated_join_bitmap_bytes(1000) == 1000 * engine.estimated_join_bitmap_bytes(1)

    def test_segmenting(self):
        t = Trajectory(1, [(i, i) for i in range(20)])
        segs = segment_trajectory(t, max_segment_points=8)
        assert len(segs) == 3
        assert segs[0].contains_point((0, 0))
        assert segs[-1].contains_point((19, 19))

    def test_local_index_bigger_than_dita_style(self, city):
        """DFT's per-segment entries dominate a per-trajectory index."""
        engine = DFTEngine(city, n_partitions=4)
        _, local = engine.index_size_bytes()
        simba_local = SimbaEngine(city, n_partitions=4).index_size_bytes()[1]
        assert local > simba_local


class TestSoundnessTraits:
    """A baseline's filter runs only where the adapter's traits say it is
    sound: DFT and Simba *are* the endpoint test (``endpoint_bound``), MBE
    is the per-point argument of the cell bound (``cell_bound``)."""

    @pytest.fixture(scope="class")
    def town(self):
        data = beijing_like(300, seed=5)
        return data, sample_queries(data, 20, seed=1)

    @pytest.mark.parametrize("baseline", [DFTEngine, SimbaEngine])
    @pytest.mark.parametrize("name", ["hausdorff", "edr", "lcss", "erp"])
    def test_endpoint_filters_refuse_unpinned_distances(self, town, baseline, name):
        """Hausdorff aligns no endpoints: over these 20 queries at tau =
        0.01 the endpoint filter used to drop 8 (DFT) and 12 (Simba) of its
        104 answers.  Refused at construction, like MBE's edit distances."""
        with pytest.raises(ValueError, match="does not pin"):
            baseline(town[0], n_partitions=4, distance=name)

    @pytest.mark.parametrize("name", ["dtw", "frechet"])
    def test_endpoint_filters_agree_with_naive(self, town, name):
        data, queries = town
        naive = NaiveEngine(data, n_partitions=4, distance=name)
        filtered = [
            DFTEngine(data, n_partitions=4, distance=name),
            SimbaEngine(data, n_partitions=4, distance=name),
        ]
        for q in queries:
            want = naive.search_ids(q, 0.01)
            assert all(engine.search_ids(q, 0.01) == want for engine in filtered)

    def test_mbe_serves_what_the_cell_bound_licenses(self, town):
        data, queries = town
        naive = NaiveEngine(data, n_partitions=4, distance="hausdorff")
        idx = MBEIndex(data, "hausdorff")
        answers = 0
        for q in queries:
            want = naive.search_ids(q, 0.01)
            assert idx.search_ids(q, 0.01) == want
            answers += len(want)
        assert answers > len(queries)  # more than each query's own source


class TestVPTree:
    def test_search_matches_brute_force(self, city, queries):
        tree = VPTree(city)
        d = get_distance("frechet")
        for q in queries:
            assert tree.search_ids(q, 0.001) == brute_force_search(city, d, q, 0.001)

    def test_triangle_pruning_beats_linear(self, city, queries):
        """With a small threshold the VP-tree computes fewer distances than
        a full scan."""
        tree = VPTree(city)
        assert tree.count_candidates(queries[0], 1e-6) < len(city)

    def test_node_count(self, city):
        tree = VPTree(city)
        assert tree.node_count() == len(city)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VPTree([])


class TestMBE:
    def test_search_matches_brute_force_dtw(self, city, queries):
        idx = MBEIndex(city, "dtw")
        d = get_distance("dtw")
        for q in queries:
            assert idx.search_ids(q, 0.003) == brute_force_search(city, d, q, 0.003)

    def test_search_matches_brute_force_frechet(self, city, queries):
        idx = MBEIndex(city, "frechet")
        d = get_distance("frechet")
        q = queries[0]
        assert idx.search_ids(q, 0.001) == brute_force_search(city, d, q, 0.001)

    def test_envelope_bound_sound(self, city):
        trajs = list(city)[:20]
        by_sum, by_max = MBEIndex(trajs[:5], "dtw"), MBEIndex(trajs[:5], "frechet")
        for q in trajs[5:10]:
            for t, lb, lbm in zip(trajs[:5], by_sum.lower_bounds(q.points), by_max.lower_bounds(q.points)):
                assert lb <= dtw(t.points, q.points) + 1e-9
                assert lbm <= frechet(t.points, q.points) + 1e-9

    def test_join(self, city):
        small = list(city)[:30]
        idx = MBEIndex(small, "dtw")
        other = MBEIndex(small, "dtw")
        d = get_distance("dtw")
        got = sorted((a, b) for a, b, _ in idx.join(other, 0.002))
        assert got == brute_force_join(small, small, d, 0.002)

    def test_rejects_edit_distances(self, city):
        with pytest.raises(ValueError):
            MBEIndex(city, "edr")

    def test_invalid_aggregate(self, city):
        t = list(city)[0]
        with pytest.raises(ValueError):
            envelope_lower_bound(envelope(t), t.points, "median")
