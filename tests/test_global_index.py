"""Tests for partitioning and the global index (Sections 4.2.1-4.2.2)."""

import numpy as np
import pytest

from repro.core.adapters import DTWAdapter, EDRAdapter, FrechetAdapter
from repro.core.config import DITAConfig
from repro.core.global_index import (
    GlobalIndex,
    PartitionInfo,
    min_dist_boxes,
    min_dist_rows,
    partition_trajectories,
)
from repro.core.join import relevant_pairs
from repro.core.numerics import slack
from repro.datagen import citywide_dataset, random_walk_dataset
from repro.distances.dtw import dtw
from repro.geometry.mbr import MBR
from repro.trajectory import Trajectory

from oracles.global_prune_reference import (
    RTreeGlobalIndex,
    partition_pair_relevant,
    route_by_enlargement,
)


@pytest.fixture(scope="module")
def city():
    return citywide_dataset(150, seed=21)


@pytest.fixture(scope="module")
def partitions(city):
    return partition_trajectories(list(city), 3)


@pytest.fixture(scope="module")
def gindex(partitions):
    return GlobalIndex(partitions, DITAConfig(num_global_partitions=3))


class TestPartitioning:
    def test_every_trajectory_once(self, city, partitions):
        ids = sorted(t.traj_id for p in partitions for t in p)
        assert ids == sorted(t.traj_id for t in city)

    def test_partition_count(self, partitions):
        assert len(partitions) <= 9  # NG * NG

    def test_roughly_balanced(self, partitions):
        sizes = [len(p) for p in partitions if p]
        assert max(sizes) <= 3 * min(sizes) + 3

    def test_empty_dataset(self):
        assert partition_trajectories([], 4) == []

    def test_single_trajectory(self):
        parts = partition_trajectories([Trajectory(1, [(0, 0), (1, 1)])], 4)
        assert sum(len(p) for p in parts) == 1

    def test_locality(self, partitions):
        """Trajectories in one partition share nearby first points."""
        for part in partitions:
            if len(part) < 2:
                continue
            firsts = np.asarray([t.first for t in part])
            spread = np.max(firsts, axis=0) - np.min(firsts, axis=0)
            assert np.all(spread <= 0.25)  # city extent is 0.2


class TestGlobalIndex:
    def test_partition_meta(self, gindex, partitions):
        assert len(gindex) == sum(1 for p in partitions if p)
        for meta in gindex.partitions_meta:
            part = partitions[meta.partition_id]
            assert meta.size == len(part)
            for t in part:
                assert meta.mbr_first.contains_point(t.first)
                assert meta.mbr_last.contains_point(t.last)

    def test_relevant_partitions_sound_for_dtw(self, gindex, partitions, city):
        """Any partition holding a true answer must be reported relevant."""
        adapter = DTWAdapter()
        tau = 0.005
        for q in list(city)[:8]:
            relevant = set(gindex.relevant_partitions(q.points, tau, adapter))
            for pid, part in enumerate(partitions):
                if any(dtw(t.points, q.points) <= tau for t in part):
                    assert pid in relevant

    def test_relevant_prunes_far_queries(self, gindex):
        q = np.array([(99.0, 99.0), (99.5, 99.5)])
        assert gindex.relevant_partitions(q, 0.001, DTWAdapter()) == []

    def test_frechet_mode_individual_thresholds(self, gindex, city):
        q = list(city)[0]
        rel = gindex.relevant_partitions(q.points, 0.01, FrechetAdapter())
        assert isinstance(rel, list)

    def test_edit_distances_keep_all(self, gindex, city):
        q = list(city)[0]
        rel = gindex.relevant_partitions(q.points, 2, EDRAdapter(epsilon=0.001))
        assert len(rel) == len(gindex)

    def test_meta_lookup(self, gindex):
        pid = gindex.partitions_meta[0].partition_id
        assert gindex.meta(pid).partition_id == pid

    def test_size_bytes(self, gindex):
        assert gindex.size_bytes() > 0


# --------------------------------------------------------------------- #
# the partition table against the R-trees it replaced
# --------------------------------------------------------------------- #

#: one adapter per endpoint-bound kind ("sum", "max", none), and no adapter
ADAPTERS = [DTWAdapter(), FrechetAdapter(), EDRAdapter(epsilon=0.001), None]


def random_infos(rng, n_parts, ndim):
    """Partition metadata, half of it on a coarse grid, so boxes share
    corners and edges, some are zero-width on an axis or everywhere, and
    some hold one-point trajectories; ids are ascending with gaps."""
    pids = np.sort(rng.choice(4 * n_parts, size=n_parts, replace=False))
    infos = []
    for pid in pids.tolist():
        boxes = []
        for _ in range(2):
            # off the grid, sums of squared gaps round
            a = rng.integers(0, 6, ndim) / 8.0 + rng.random(ndim) * 0.1 * (rng.random() < 0.5)
            b = a + rng.integers(0, 3, ndim) * (rng.random(ndim) < 0.7) / 8.0
            boxes.append(MBR(a, b))
        infos.append(
            PartitionInfo(pid, boxes[0], boxes[1], size=1, nbytes=0, min_len=int(rng.integers(1, 3)))
        )
    return infos


def random_queries(rng, infos, ndim, n):
    """Query point sequences: random, on table corners, and one point long."""
    corners = [c for m in infos for mbr in (m.mbr_first, m.mbr_last) for c in (mbr.low, mbr.high)]
    out = []
    for k in range(n):
        length = 1 if k % 3 == 0 else int(rng.integers(2, 5))
        pts = rng.random((length, ndim)) * 0.9
        if k % 2:
            pts[0] = corners[int(rng.integers(len(corners)))]
            pts[-1] = corners[int(rng.integers(len(corners)))]
        out.append(pts)
    return out


def bits(pairs):
    """``(bound, pid)`` pairs with each bound as its float bits."""
    return [(np.float64(b).view(np.uint64).item(), pid) for b, pid in pairs]


def at_slack(bound):
    """The two taus whose ``slack(tau)`` straddle ``bound`` most tightly:
    the largest with ``slack(tau) <= bound`` and the next float up, so a
    bound one ULP off flips the decision wherever slack can reach it."""
    tau = (bound - 1e-12) / (1 + 1e-9)
    while slack(tau) > bound:
        tau = float(np.nextafter(tau, -np.inf))
    while slack(float(np.nextafter(tau, np.inf))) <= bound:
        tau = float(np.nextafter(tau, np.inf))
    return [t for t in (tau, float(np.nextafter(tau, np.inf))) if t >= 0]


def adversarial_taus(gaps):
    """0, inf, and for each ``(df, dl)`` its ``df + dl`` and
    ``max(df, dl)``: as tau, and where ``slack(tau)`` meets them."""
    taus = [0.0, float("inf")]
    for df, dl in gaps:
        for t in (df + dl, max(df, dl)):
            taus += [t] + at_slack(t)
    return taus


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("n_parts", [1, 7, 40])
class TestTableMatchesRTrees:
    def test_relevant_and_nearest_partitions(self, ndim, n_parts):
        rng = np.random.default_rng(100 * ndim + n_parts)
        infos = random_infos(rng, n_parts, ndim)
        table, trees = GlobalIndex.from_infos(infos), RTreeGlobalIndex(infos)
        for q in random_queries(rng, infos, ndim, 12):
            for adapter in ADAPTERS:
                if adapter is not None:
                    assert bits(table.nearest_partitions(q, adapter)) == bits(
                        trees.nearest_partitions(q, adapter)
                    )
                gaps = [
                    (m.mbr_first.min_dist_point(q[0]), m.mbr_last.min_dist_point(q[-1]))
                    for m in infos[:8]
                ]
                for tau in adversarial_taus(gaps):
                    assert table.relevant_partitions(q, tau, adapter) == trees.relevant_partitions(
                        q, tau, adapter
                    ), (adapter, tau)

    def test_join_pair_relevance(self, ndim, n_parts):
        rng = np.random.default_rng(200 * ndim + n_parts)
        left, right = random_infos(rng, n_parts, ndim), random_infos(rng, 5, ndim)
        gl, gr = GlobalIndex.from_infos(left), GlobalIndex.from_infos(right)
        gaps = [
            (mt.mbr_first.min_dist_mbr(mq.mbr_first), mt.mbr_last.min_dist_mbr(mq.mbr_last))
            for mt in left[:8]
            for mq in right[:2]
        ]
        for adapter in ADAPTERS[:3]:
            for tau in adversarial_taus(gaps):
                want = [[partition_pair_relevant(mt, mq, tau, adapter) for mq in right] for mt in left]
                assert relevant_pairs(gl, gr, tau, adapter).tolist() == want, (adapter, tau)

    def test_routing(self, ndim, n_parts):
        rng = np.random.default_rng(300 * ndim + n_parts)
        infos = random_infos(rng, n_parts, ndim)
        # constructed ties: a twin of the first partition under a higher
        # id, and points inside (or on the corners of) existing boxes
        twin = infos[0]
        infos.append(PartitionInfo(infos[-1].partition_id + 1, twin.mbr_first, twin.mbr_last, 1, 0))
        table = GlobalIndex.from_infos(infos)
        for pts in random_queries(rng, infos, ndim, 30) + [
            np.stack([twin.mbr_first.low, twin.mbr_last.high]),
            np.stack([twin.mbr_first.center, twin.mbr_last.center]),
        ]:
            assert table.route(pts[0], pts[-1]) == route_by_enlargement(infos, pts)


@pytest.mark.parametrize("ndim", [2, 3])
def test_table_distances_are_mbr_distances_bit_for_bit(ndim):
    rng = np.random.default_rng(ndim)
    a, b = random_infos(rng, 40, ndim), random_infos(rng, 40, ndim)
    ga, gb = GlobalIndex.from_infos(a), GlobalIndex.from_infos(b)
    got = min_dist_boxes(ga.first_low, ga.first_high, gb.first_low, gb.first_high)
    want = np.array([[ma.mbr_first.min_dist_mbr(mb.mbr_first) for mb in b] for ma in a])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    for p in rng.random((50, ndim)):
        got = min_dist_rows(p, ga.last_low, ga.last_high)
        want = np.array([m.mbr_last.min_dist_point(p) for m in a])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_routing_near_tie_follows_mbr_area():
    """Two one-point last-point boxes that a new endpoint grows into boxes
    with the same 3-d extents in reverse axis order: the enlargements are
    one product taken in two orders, a rounding apart, and routing must
    pick the partition ``MBR.area``'s order picks."""
    rng = np.random.default_rng(5)
    x, y, z = rng.random(3)
    while (x * y) * z == (z * y) * x:
        x, y, z = rng.random(3)
    home = MBR(np.full(3, -1.0), np.full(3, 1.0))
    infos = [
        PartitionInfo(pid, home, MBR.of_point(-corner), size=1, nbytes=0)
        for pid, corner in enumerate([np.array([x, y, z]), np.array([z, y, x])])
    ]
    pts = np.zeros((2, 3))
    assert GlobalIndex.from_infos(infos).route(pts[0], pts[-1]) == route_by_enlargement(infos, pts)


class TestEmptyTable:
    def test_prunes_to_nothing_and_routes_to_zero(self):
        table = GlobalIndex.from_infos([])
        q = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert table.relevant_partitions(q, 1.0, DTWAdapter()) == []
        assert table.nearest_partitions(q, FrechetAdapter()) == []
        assert table.route(q[0], q[-1]) == 0
        other = GlobalIndex.from_infos(random_infos(np.random.default_rng(1), 3, 2))
        assert relevant_pairs(table, other, 1.0, DTWAdapter()).shape == (0, 3)
        assert relevant_pairs(other, table, 1.0, DTWAdapter()).shape == (3, 0)
