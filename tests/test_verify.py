"""Tests for the verification pipeline (Section 5.3.3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nonzero_counts
from oracles.per_pair import cell_bound_dtw, cell_bound_frechet, mbr_coverage_ok, verify
from repro.core.adapters import DTWAdapter, FrechetAdapter
from repro.core.verify import VerificationData, Verifier
from repro.distances.dtw import dtw
from repro.distances.frechet import frechet
from repro.geometry.cell import CellSet
from repro.kernels import TrajectoryBlock
from repro.obs import MetricsRegistry
from repro.storage.columnar import ColumnarDataset
from repro.trajectory import Trajectory

coords = st.floats(-20, 20, allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw, min_len=1, max_len=10):
    n = draw(st.integers(min_len, max_len))
    return np.asarray([[draw(coords), draw(coords)] for _ in range(n)])


class TestMBRCoverage:
    @settings(max_examples=80)
    @given(trajectories(), trajectories(), st.floats(0.1, 30))
    def test_lemma_5_4_no_false_negatives(self, t, q, tau):
        """Similar pairs always survive the coverage filter."""
        if dtw(t, q) <= tau:
            tt = Trajectory(0, t)
            qq = Trajectory(1, q)
            assert mbr_coverage_ok(tt.mbr, qq.mbr, tau)

    @settings(max_examples=80)
    @given(trajectories(), trajectories(), st.floats(0.1, 30))
    def test_lemma_5_4_frechet(self, t, q, tau):
        if frechet(t, q) <= tau:
            assert mbr_coverage_ok(Trajectory(0, t).mbr, Trajectory(1, q).mbr, tau)

    def test_example_5_5(self):
        """Example 5.5: T5 and its Q fail coverage at tau = 3 even though
        OPAMD alone would not prune them."""
        t5 = Trajectory(5, [(0, 4), (0, 5), (3, 7), (3, 3), (7, 5)])
        q = Trajectory(0, [(0, 4), (0, 5), (3, 7), (3, 9), (3, 11), (3, 3), (7, 5)])
        assert not mbr_coverage_ok(t5.mbr, q.mbr, 3.0)


class TestCellBounds:
    @settings(max_examples=60)
    @given(trajectories(), trajectories())
    def test_dtw_bound_sound(self, t, q):
        ct = CellSet.from_points(t, 1.0)
        cq = CellSet.from_points(q, 1.0)
        assert cell_bound_dtw(ct, cq) <= dtw(t, q) + 1e-6

    @settings(max_examples=60)
    @given(trajectories(), trajectories())
    def test_frechet_bound_sound(self, t, q):
        ct = CellSet.from_points(t, 1.0)
        cq = CellSet.from_points(q, 1.0)
        assert cell_bound_frechet(ct, cq) <= frechet(t, q) + 1e-6


class TestVerifier:
    def _verify(self, v, t, q, tau, stats=None, cell=1.0):
        """One pair through ``src``'s batched stages (a one-row block) and
        through the per-pair oracle: same verdict, same counts, which are
        added to ``stats`` when given."""
        dataset = ColumnarDataset.from_trajectories([t])
        block = TrajectoryBlock.from_columnar(dataset, cell)
        q_data = VerificationData.of(q, cell)
        counts, oracle_counts = MetricsRegistry(), MetricsRegistry()
        rows = v.filter_rows(block, dataset.alive_rows(), tau, q_data, counts)
        matches = v.exact_rows(dataset, [rows], [q.points], [tau], counts)[0]
        got = matches[0][1] if matches else math.inf
        want = verify(v, t, q, tau, VerificationData.of(t, cell), q_data, oracle_counts)
        assert got == want
        assert nonzero_counts(counts) == nonzero_counts(oracle_counts)
        if stats is not None:
            stats.merge(counts)
        return got

    def test_exact_path(self):
        t = Trajectory(0, [(0, 0), (1, 1)])
        q = Trajectory(1, [(0, 0), (1, 1)])
        v = Verifier(DTWAdapter())
        assert self._verify(v, t, q, 0.5) == 0.0

    def test_mbr_prune_path(self):
        t = Trajectory(0, [(0, 0), (1, 1)])
        q = Trajectory(1, [(50, 50), (51, 51)])
        stats = MetricsRegistry()
        v = Verifier(DTWAdapter())
        assert self._verify(v, t, q, 1.0, stats) == math.inf
        assert stats.value("verify.pruned_by_mbr") == 1
        assert stats.value("verify.exact_computed") == 0

    def test_cell_prune_path(self):
        # overlapping MBRs but points consistently ~2 apart: MBR coverage
        # passes with tau big enough, cells catch the accumulated cost
        t = Trajectory(0, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)])
        q = Trajectory(1, [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2)])
        stats = MetricsRegistry()
        v = Verifier(DTWAdapter(), use_mbr_coverage=True)
        d = self._verify(v, t, q, 3.0, stats, cell=0.5)
        assert d == math.inf
        assert stats.value("verify.pruned_by_cells") == 1

    def test_stats_accept(self):
        t = Trajectory(0, [(0, 0), (1, 1)])
        stats = MetricsRegistry()
        v = Verifier(DTWAdapter())
        self._verify(v, t, t, 0.1, stats)
        assert stats.value("verify.accepted") == 1

    def test_stats_merge(self):
        """Counts of several verifier calls into one registry add up."""
        t = Trajectory(0, [(0, 0), (1, 1)])
        far = Trajectory(1, [(50, 50), (51, 51)])
        v = Verifier(DTWAdapter())
        dataset = ColumnarDataset.from_trajectories([t])
        block = TrajectoryBlock.from_columnar(dataset, 1.0)
        counts = MetricsRegistry()
        for q in (t, far, far):
            q_data = VerificationData.of(q, 1.0)
            rows = v.filter_rows(block, dataset.alive_rows(), 1.0, q_data, counts)
            v.exact_rows(dataset, [rows], [q.points], [1.0], counts)
        assert counts.value("verify.pairs") == 3
        assert counts.value("verify.pruned_by_mbr") == 2
        assert counts.value("verify.accepted") == 1

    def test_filters_can_be_disabled(self):
        t = Trajectory(0, [(0, 0), (1, 1)])
        q = Trajectory(1, [(50, 50), (51, 51)])
        stats = MetricsRegistry()
        v = Verifier(DTWAdapter(), use_mbr_coverage=False, use_cell_filter=False)
        assert self._verify(v, t, q, 1.0, stats) == math.inf
        assert stats.value("verify.exact_computed") == 1

    @settings(max_examples=80)
    @given(trajectories(), trajectories(), st.floats(0.1, 40))
    def test_pipeline_equals_exact(self, t_pts, q_pts, tau):
        """The staged pipeline never changes the verdict (DTW)."""
        t = Trajectory(0, t_pts)
        q = Trajectory(1, q_pts)
        v = Verifier(DTWAdapter())
        got = self._verify(v, t, q, tau)
        d = dtw(t_pts, q_pts)
        if d <= tau:
            assert got == pytest.approx(d, rel=1e-9, abs=1e-9)
        else:
            assert got == math.inf

    @settings(max_examples=60)
    @given(trajectories(), trajectories(), st.floats(0.1, 20))
    def test_pipeline_equals_exact_frechet(self, t_pts, q_pts, tau):
        t = Trajectory(0, t_pts)
        q = Trajectory(1, q_pts)
        v = Verifier(FrechetAdapter())
        got = self._verify(v, t, q, tau)
        f = frechet(t_pts, q_pts)
        if f <= tau:
            assert got == pytest.approx(f, rel=1e-9, abs=1e-9)
        else:
            assert got == math.inf
