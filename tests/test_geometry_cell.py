"""Unit and property tests for cell compression (Lemma 5.6).

The bounds are the scalar forms in :mod:`oracles.per_pair`, the reference
the batched ``batch_cell_bounds`` is compared against; ``Cell(T, Q)`` alone
is one direction of :func:`cell_bound_dtw`'s matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances.dtw import dtw
from repro.distances.frechet import frechet
from oracles.per_pair import cell_bound_dtw, cell_bound_frechet
from repro.geometry.cell import CellSet

coords = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def compress(points, side):
    """``(center, count)`` per cell, in the order the paper's greedy pass
    opens them."""
    cs = CellSet.from_points(points, side)
    return [(tuple(c.tolist()), int(n)) for c, n in zip(cs.centers, cs.counts)]


def directed_cell_bound(ct, cq):
    """``Cell(T, Q)``: each cell of T to its nearest cell of Q, weighted by
    the cell's point count."""
    return float(np.dot(ct.min_dist_matrix(cq).min(axis=1), ct.counts))


@st.composite
def trajectories(draw, max_len=10):
    n = draw(st.integers(1, max_len))
    return np.asarray([[draw(coords), draw(coords)] for _ in range(n)])


class TestCompress:
    def test_single_point(self):
        cells = compress(np.array([(1.0, 1.0)]), side=2.0)
        assert cells == [((1.0, 1.0), 1)]

    def test_paper_example_5_7(self):
        """Example 5.7: T1 compresses to [t1,2; t3,1; t4,3] with D=2."""
        t1 = np.array([(1, 1), (1, 2), (3, 2), (4, 4), (4, 5), (5, 5)], float)
        cells = compress(t1, side=2.0)
        assert cells == [
            ((1.0, 1.0), 2),
            ((3.0, 2.0), 1),
            ((4.0, 4.0), 3),
        ]

    def test_counts_sum_to_points(self):
        pts = np.random.default_rng(0).uniform(0, 10, size=(30, 2))
        cells = compress(pts, side=1.5)
        assert sum(n for _, n in cells) == 30

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            compress(np.array([(0.0, 0.0)]), side=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compress(np.empty((0, 2)), side=1.0)

    @given(trajectories())
    def test_every_point_in_some_cell(self, pts):
        cs = CellSet.from_points(pts, side=1.0)
        for p in pts:
            assert np.all(np.abs(cs.centers - p) <= cs.side / 2.0, axis=1).any()


class TestCellSet:
    def test_from_points_roundtrip(self):
        pts = np.array([(0, 0), (0.1, 0.1), (5, 5)], float)
        cs = CellSet.from_points(pts, side=1.0)
        assert len(cs) == 2
        assert cs.n_points == 3

    def test_min_dist_matrix_shape_and_overlap(self):
        a = CellSet.from_points(np.array([(0, 0)], float), 1.0)
        b = CellSet.from_points(np.array([(0.2, 0.2), (10, 10)], float), 1.0)
        m = a.min_dist_matrix(b)
        assert m.shape == (1, 2)
        assert m[0, 0] == 0.0
        assert m[0, 1] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CellSet(np.zeros((0, 2)), np.zeros(0), 1.0)
        with pytest.raises(ValueError):
            CellSet(np.zeros((1, 2)), np.zeros(1), -1.0)

    def test_cells_view_matches(self):
        pts = np.array([(0, 0), (3, 3)], float)
        cs = CellSet.from_points(pts, 1.0)
        assert cs.centers.tolist() == pts.tolist()
        assert cs.counts.tolist() == [1, 1]


class TestCellBound:
    def test_paper_example_5_7_value(self):
        """Example 5.7: Cell(Q, T1) = 4 with D=2."""
        t1 = np.array([(1, 1), (1, 2), (3, 2), (4, 4), (4, 5), (5, 5)], float)
        q = np.array(
            [(1, 1), (1, 5), (1, 4), (2, 4), (2, 5), (4, 4), (5, 6), (5, 5)], float
        )
        ct = CellSet.from_points(t1, 2.0)
        cq = CellSet.from_points(q, 2.0)
        assert directed_cell_bound(cq, ct) == pytest.approx(4.0)

    @settings(max_examples=60)
    @given(trajectories(), trajectories())
    def test_lower_bounds_dtw(self, t, q):
        """Lemma 5.6: Cell(T, Q) <= DTW(T, Q) in both directions."""
        ct = CellSet.from_points(t, 1.0)
        cq = CellSet.from_points(q, 1.0)
        d = dtw(t, q)
        assert directed_cell_bound(ct, cq) <= d + 1e-6
        assert directed_cell_bound(cq, ct) <= d + 1e-6
        assert cell_bound_dtw(ct, cq) <= d + 1e-6

    @settings(max_examples=60)
    @given(trajectories(), trajectories())
    def test_max_variant_lower_bounds_frechet(self, t, q):
        ct = CellSet.from_points(t, 1.0)
        cq = CellSet.from_points(q, 1.0)
        f = frechet(t, q)
        assert cell_bound_frechet(ct, cq) <= f + 1e-6
        assert cell_bound_frechet(cq, ct) <= f + 1e-6

    def test_identical_trajectories_zero(self):
        pts = np.array([(0, 0), (1, 1), (2, 2)], float)
        cs = CellSet.from_points(pts, 1.0)
        assert cell_bound_dtw(cs, cs) == 0.0
