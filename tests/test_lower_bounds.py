"""The lower-bound contract: every registered bound really is a lower bound.

Each distance class must *declare* a bound or opt out with a justification
(the base ``lower_bound`` raises otherwise); this suite pins admissibility —
``lower_bound(t, q) <= compute(t, q)`` — on random data and on a
ULP-adversarial pair, because the trie's pruning is only exact when that
inequality holds.  The top-k scan's box bound
(:func:`repro.kernels.batch.batch_box_bounds`) is held to the same
inequality against DTW, Fréchet and Hausdorff, on geometry built to sit on
the boxes' faces, and to its per-pair loop form bit for bit.
"""

import numpy as np
import pytest

from oracles.box_bounds_reference import box_bound_reference
from repro.distances import get_distance
from repro.distances.base import TrajectoryDistance
from repro.geometry.cell import CellSet
from repro.geometry.mbr import MBR
from repro.kernels import TrajectoryBlock, batch_box_bounds
from repro.storage import ColumnarDataset

BOUNDED = ["dtw", "frechet", "hausdorff", "edr", "erp"]
_TOL = 1e-9


def random_pair(rng):
    m = int(rng.integers(2, 24))
    n = int(rng.integers(2, 24))
    t = rng.random((m, 2)).cumsum(axis=0) * 0.01
    q = rng.random((n, 2)).cumsum(axis=0) * 0.01
    return t, q


class TestAdmissibility:
    @pytest.mark.parametrize("name", BOUNDED)
    def test_lower_bound_never_exceeds_distance(self, name):
        dist = get_distance(name)
        rng = np.random.default_rng(20260805)
        for _ in range(50):
            t, q = random_pair(rng)
            lb = dist.lower_bound(t, q)
            exact = dist.compute(t, q)
            assert lb <= exact + _TOL, f"{name}: lb {lb} > exact {exact}"

    def test_erp_mass_bound_on_a_ulp_adversarial_pair(self):
        """Exactly, not within ``_TOL``: ERP is 1.0 here while the two gap
        masses, summed apart, differ by 1.0000000000000036 — a bound a few
        ULPs above the distance dismisses an answer at ``tau == distance``."""
        t = np.array([(0, 4), (20, 0), (7.008, 0), (0, 0), (0, 0)], float)
        q = np.array([(0, 5), (20, 0), (7.008, 0), (0, 0), (0, 0)], float)
        dist = get_distance("erp")
        assert dist.compute(t, q) == 1.0
        assert dist.lower_bound(t, q) <= 1.0
        assert dist.lower_bound(q, t) <= 1.0

    @pytest.mark.parametrize("name", BOUNDED)
    def test_lower_bound_is_nonnegative(self, name):
        dist = get_distance(name)
        rng = np.random.default_rng(5)
        t, q = random_pair(rng)
        assert dist.lower_bound(t, q) >= 0.0

    def test_identical_trajectories_bound_zero(self):
        rng = np.random.default_rng(11)
        t, _ = random_pair(rng)
        for name in BOUNDED:
            assert get_distance(name).lower_bound(t, t) <= _TOL


class TestExemption:
    def test_lcss_opts_out_with_justification(self):
        dist = get_distance("lcss")
        assert dist.lower_bound_exempt
        rng = np.random.default_rng(3)
        t, q = random_pair(rng)
        # the exempt default is the trivial (still admissible) bound
        assert dist.lower_bound(t, q) == 0.0

    def test_unexempt_subclass_must_implement(self):
        class Incomplete(TrajectoryDistance):
            def compute(self, t, q):
                return 0.0

        with pytest.raises(NotImplementedError, match="must implement lower_bound"):
            Incomplete().lower_bound(np.zeros((2, 2)), np.zeros((2, 2)))


# --------------------------------------------------------------------- #
# the box bound: each side's cells against the other side's MBR
# --------------------------------------------------------------------- #

#: distance -> the kind its adapter's ``cell_bound`` names
BOX_KINDS = {"dtw": "sum", "frechet": "max", "hausdorff": "max"}
CELL = 2e-3


def box_bounds(rows, q, kind, cell=CELL):
    """``batch_box_bounds`` of every trajectory of ``rows`` against ``q``."""
    block = TrajectoryBlock.from_columnar(
        ColumnarDataset.from_point_arrays(list(range(len(rows))), rows), cell
    )
    mbr = MBR.of_points(q)
    picked = np.arange(len(rows), dtype=np.int64)
    return batch_box_bounds(block, picked, CellSet.from_points(q, cell), mbr.low, mbr.high, kind)


def assert_box_sound(rows, q):
    """The bound never exceeds the exact distance, for every distance."""
    rows = [np.asarray(t, dtype=np.float64) for t in rows]
    q = np.asarray(q, dtype=np.float64)
    for name, kind in BOX_KINDS.items():
        dist = get_distance(name)
        for t, bound in zip(rows, box_bounds(rows, q, kind).tolist()):
            exact = dist.compute(t, q)
            assert 0.0 <= bound <= exact, f"{name}: box bound {bound} > exact {exact}"


def _nudged(x):
    """``x`` and its two float neighbours."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


class TestBoxBoundSoundness:
    def test_random_pairs(self):
        rng = np.random.default_rng(20261017)
        for _ in range(30):
            pairs = [random_pair(rng) for _ in range(4)]
            assert_box_sound([t for t, _ in pairs], pairs[0][1])

    def test_one_point_trajectories(self):
        rng = np.random.default_rng(3)
        rows = [rng.random((1, 2)) * 0.01 for _ in range(5)] + [rng.random((6, 2)) * 0.01]
        for q in (rng.random((1, 2)) * 0.01, rng.random((5, 2)) * 0.01, rows[0]):
            assert_box_sound(rows, q)

    def test_coincident_points(self):
        p = np.array([[116.4, 39.9]])
        same = np.repeat(p, 4, axis=0)
        assert_box_sound([same, p, same[:2]], same)
        # identical trajectories: nothing separates them
        for kind in ("sum", "max"):
            assert box_bounds([same], same, kind).tolist() == [0.0]

    def test_query_inside_outside_and_straddling_the_mbr(self):
        t = np.array([[0.0, 0.0], [0.01, 0.002], [0.02, 0.01], [0.012, 0.02]])
        inside = np.array([[0.005, 0.005], [0.01, 0.01], [0.015, 0.012]])
        outside = inside + 0.05
        straddling = np.array([[-0.004, 0.01], [0.01, 0.01], [0.026, 0.01]])
        for q in (inside, outside, straddling, t):
            assert_box_sound([t], q)
        # far apart, the bound is not vacuous
        assert box_bounds([t], outside, "sum")[0] > 0.0

    def test_points_on_mbr_faces_and_cell_edges(self):
        """A second point exactly on its first point's cell edge (it joins
        that cell) and a float step either side of it; query points on the
        row's MBR faces and a float step either side."""
        base = np.array([116.3, 39.9])
        half = CELL / 2.0
        rows = []
        for x in _nudged(base[0] + half):
            for y in _nudged(base[1] - half):
                rows.append(np.array([base, [x, y], base + [3 * half, 0.0]]))
        lo, hi = rows[0].min(axis=0), rows[0].max(axis=0)
        for qx in _nudged(hi[0]):
            for qy in _nudged(lo[1]):
                q = np.array([[qx, qy], [qx + CELL, qy - 0.5 * CELL]])
                assert_box_sound(rows, q)
                assert_box_sound(rows, np.array([[qx, qy]]))


class TestBoxBoundBitIdentity:
    """The batched kernel against its per-pair loop form on a ragged fuzz:
    every float identical, whatever rows share a call."""

    @staticmethod
    def _trip(rng, d):
        steps = rng.normal(scale=1.5e-3, size=(int(rng.integers(1, 48)), d))
        return rng.uniform(0.0, 0.05, size=d) + np.cumsum(steps, axis=0)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 9, 300])
    def test_matches_the_loop_form(self, n, d):
        rng = np.random.default_rng(10 * d + n)
        block = TrajectoryBlock.from_columnar(
            ColumnarDataset.from_point_arrays(list(range(n)), [self._trip(rng, d) for _ in range(n)]),
            CELL,
        )
        for _ in range(3):
            q = self._trip(rng, d)
            q_cells, mbr = CellSet.from_points(q, CELL), MBR.of_points(q)
            for rows in (np.arange(n, dtype=np.int64), rng.permutation(n)[: n // 2 + 1].astype(np.int64)):
                for kind in ("sum", "max"):
                    got = batch_box_bounds(block, rows, q_cells, mbr.low, mbr.high, kind)
                    want = [box_bound_reference(block, r, q_cells, mbr.low, mbr.high, kind) for r in rows.tolist()]
                    assert got.dtype == np.float64 and got.shape == rows.shape
                    assert got.view(np.uint64).tolist() == np.asarray(want).view(np.uint64).tolist()

    def test_empty_rows_and_an_unknown_kind(self):
        rows = [np.zeros((2, 2))]
        block = TrajectoryBlock.from_columnar(ColumnarDataset.from_point_arrays([0], rows), CELL)
        q_cells = CellSet.from_points(np.zeros((1, 2)), CELL)
        none = np.empty(0, dtype=np.int64)
        assert batch_box_bounds(block, none, q_cells, np.zeros(2), np.zeros(2), "sum").shape == (0,)
        with pytest.raises(ValueError):
            batch_box_bounds(block, np.zeros(1, dtype=np.int64), q_cells, np.zeros(2), np.zeros(2), "min")
