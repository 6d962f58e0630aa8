"""Unit and property tests for repro.geometry.mbr."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles.per_pair import mbr_coverage_ok as coverage_filter
from repro.geometry.mbr import MBR

coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


@st.composite
def mbrs(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return MBR((x1, y1), (x2, y2))


@st.composite
def point_sets(draw):
    n = draw(st.integers(1, 12))
    return np.asarray([[draw(coords), draw(coords)] for _ in range(n)])


class TestConstruction:
    def test_invalid_corners(self):
        with pytest.raises(ValueError):
            MBR((1, 1), (0, 0))

    def test_of_points(self):
        m = MBR.of_points(np.array([(1, 5), (3, 2)], float))
        assert m.low.tolist() == [1, 2]
        assert m.high.tolist() == [3, 5]

    def test_of_point_degenerate(self):
        m = MBR.of_point((2, 3))
        assert m.area() == 0.0
        assert m.contains_point((2, 3))

    def test_of_points_rejects_empty(self):
        with pytest.raises(ValueError):
            MBR.of_points(np.empty((0, 2)))

    def test_union_all(self):
        m = MBR.union_all([MBR.of_point((0, 0)), MBR.of_point((4, -2))])
        assert m.low.tolist() == [0, -2]
        assert m.high.tolist() == [4, 0]

    def test_union_all_empty_raises(self):
        with pytest.raises(ValueError):
            MBR.union_all([])

    @given(point_sets())
    def test_of_points_covers_all(self, pts):
        m = MBR.of_points(pts)
        for p in pts:
            assert m.contains_point(p)


class TestGeometry:
    def test_area_margin(self):
        m = MBR((0, 0), (2, 3))
        assert m.area() == 6.0
        assert m.margin() == 5.0

    def test_center(self):
        assert MBR((0, 0), (2, 4)).center.tolist() == [1, 2]

    def test_contains_mbr(self):
        outer = MBR((0, 0), (10, 10))
        inner = MBR((1, 1), (2, 2))
        assert outer.contains_mbr(inner)
        assert not inner.contains_mbr(outer)

    def test_intersects(self):
        a = MBR((0, 0), (2, 2))
        b = MBR((1, 1), (3, 3))
        c = MBR((5, 5), (6, 6))
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_intersects_touching_edge(self):
        a = MBR((0, 0), (1, 1))
        b = MBR((1, 0), (2, 1))
        assert a.intersects(b)

    def test_expand(self):
        m = MBR((0, 0), (1, 1)).expand(0.5)
        assert m.low.tolist() == [-0.5, -0.5]
        assert m.high.tolist() == [1.5, 1.5]

    def test_expand_negative_raises(self):
        with pytest.raises(ValueError):
            MBR((0, 0), (1, 1)).expand(-0.1)

    def test_equality_and_hash(self):
        a = MBR((0, 0), (1, 1))
        b = MBR((0, 0), (1, 1))
        assert a == b
        assert hash(a) == hash(b)
        assert a != MBR((0, 0), (1, 2))


class TestMinDist:
    def test_inside_is_zero(self):
        m = MBR((0, 0), (2, 2))
        assert m.min_dist_point((1, 1)) == 0.0

    def test_side(self):
        m = MBR((0, 0), (2, 2))
        assert m.min_dist_point((3, 1)) == pytest.approx(1.0)

    def test_corner(self):
        m = MBR((0, 0), (2, 2))
        assert m.min_dist_point((3, 3)) == pytest.approx(np.sqrt(2))

    def test_min_dist_points_vectorized(self):
        m = MBR((0, 0), (2, 2))
        pts = np.array([(1, 1), (3, 1), (3, 3)], float)
        d = m.min_dist_points(pts)
        assert d[0] == 0.0
        assert d[1] == pytest.approx(1.0)
        assert d[2] == pytest.approx(np.sqrt(2))

    def test_min_dist_trajectory(self):
        m = MBR((0, 0), (1, 1))
        pts = np.array([(5, 5), (2, 1)], float)
        assert m.min_dist_trajectory(pts) == pytest.approx(1.0)

    def test_min_dist_mbr_overlapping_zero(self):
        a = MBR((0, 0), (2, 2))
        b = MBR((1, 1), (3, 3))
        assert a.min_dist_mbr(b) == 0.0

    def test_min_dist_mbr_gap(self):
        a = MBR((0, 0), (1, 1))
        b = MBR((4, 1), (5, 2))
        assert a.min_dist_mbr(b) == pytest.approx(3.0)

    def test_max_dist_point(self):
        m = MBR((0, 0), (2, 2))
        assert m.max_dist_point((0, 0)) == pytest.approx(np.sqrt(8))

    @given(mbrs(), st.tuples(coords, coords))
    def test_min_dist_lower_bounds_contents(self, m, p):
        """MinDist(q, MBR) <= dist(q, x) for every x in the MBR — sampled at
        corners and center."""
        q = np.asarray(p, float)
        md = m.min_dist_point(q)
        for x in (m.low, m.high, m.center):
            assert md <= float(np.linalg.norm(q - x)) + 1e-9

    @given(mbrs(), mbrs())
    def test_min_dist_mbr_symmetric(self, a, b):
        assert a.min_dist_mbr(b) == pytest.approx(b.min_dist_mbr(a))


class TestCoverageFilter:
    """Lemma 5.4 on hand-made boxes, through the per-pair form the batched
    ``batch_mbr_coverage`` is compared against."""

    def test_identical_pass(self):
        m = MBR((0, 0), (1, 1))
        assert coverage_filter(m, m, 0.0)

    def test_far_apart_fails(self):
        a = MBR((0, 0), (1, 1))
        b = MBR((10, 10), (11, 11))
        assert not coverage_filter(a, b, 1.0)

    def test_tau_makes_it_pass(self):
        a = MBR((0, 0), (1, 1))
        b = MBR((2, 2), (3, 3))
        assert coverage_filter(a, b, 5.0)

    def test_asymmetric_extent(self):
        # T spans far beyond Q: EMBR(Q, tau) cannot cover MBR(T)
        t = MBR((0, 0), (100, 100))
        q = MBR((0, 0), (1, 1))
        assert not coverage_filter(t, q, 1.0)

    def test_mbr_of_trajectory(self):
        m = MBR.of_points(np.array([(0, 5), (2, 1)], float))
        assert m.low.tolist() == [0, 1]
        assert m.high.tolist() == [2, 5]
