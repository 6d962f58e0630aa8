"""Tests for Fréchet, EDR, LCSS and ERP (Appendix A functions)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distances import (
    available_distances,
    edr,
    edr_threshold,
    erp,
    erp_threshold,
    frechet,
    frechet_threshold,
    get_distance,
    hausdorff_threshold,
    lcss,
    lcss_dissimilarity,
)
from repro.distances.dtw import dtw

coords = st.floats(-20, 20, allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw, min_len=1, max_len=9):
    n = draw(st.integers(min_len, max_len))
    return np.asarray([[draw(coords), draw(coords)] for _ in range(n)])


T1 = np.array([(1, 1), (1, 2), (3, 2), (4, 4), (4, 5), (5, 5)], float)
T3 = np.array([(1, 1), (4, 1), (4, 3), (4, 5), (4, 6), (5, 6)], float)

#: a pair whose ERP (gap = origin) is exactly 1.0 while the two gap masses,
#: summed apart, differ by 1.0000000000000036 — at tau = 1.0 an unrounded
#: mass pre-check dismisses a true answer at the closed boundary
ERP_BOUNDARY_T = np.array([(0, 4), (20, 0), (7.008, 0), (0, 0), (0, 0)], float)
ERP_BOUNDARY_Q = np.array([(0, 5), (20, 0), (7.008, 0), (0, 0), (0, 0)], float)


class TestFrechet:
    def test_paper_value(self):
        """Frechet(T1, T3) = 1.41 per Appendix A."""
        assert frechet(T1, T3) == pytest.approx(1.41, abs=0.01)

    def test_identity_and_symmetry(self):
        assert frechet(T1, T1) == 0.0
        assert frechet(T1, T3) == pytest.approx(frechet(T3, T1))

    def test_single_point(self):
        t = np.array([(0, 0)], float)
        q = np.array([(3, 4), (0, 1)], float)
        assert frechet(t, q) == pytest.approx(5.0)

    def test_at_most_dtw(self):
        """max-accumulation never exceeds sum-accumulation."""
        assert frechet(T1, T3) <= dtw(T1, T3)

    @settings(max_examples=60)
    @given(trajectories(), trajectories(), trajectories())
    def test_triangle_inequality(self, a, b, c):
        """Fréchet is a metric — the property VP-trees rely on."""
        assert frechet(a, c) <= frechet(a, b) + frechet(b, c) + 1e-9

    @settings(max_examples=60)
    @given(trajectories(), trajectories(), st.floats(0.1, 40))
    def test_threshold_agrees(self, t, q, tau):
        f = frechet(t, q)
        ft = frechet_threshold(t, q, tau)
        if f <= tau:
            assert ft == pytest.approx(f, rel=1e-9, abs=1e-9)
        else:
            assert ft == math.inf

    def test_threshold_prunes(self):
        assert frechet_threshold(T1, T3, 1.0) == math.inf


class TestEDR:
    def test_paper_value(self):
        """EDR(T1, T3) = 2 with epsilon = 1 per Appendix A."""
        assert edr(T1, T3, 1.0) == 2

    def test_identity(self):
        assert edr(T1, T1, 0.5) == 0

    def test_disjoint_equals_max_len(self):
        t = np.zeros((3, 2))
        q = np.full((5, 2), 100.0)
        assert edr(t, q, 1.0) == 5

    def test_length_lower_bound(self):
        t = np.zeros((2, 2))
        q = np.zeros((7, 2))
        assert edr(t, q, 1.0) >= 5

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            edr(T1, T3, -1.0)

    @settings(max_examples=60)
    @given(trajectories(), trajectories())
    def test_bounds(self, t, q):
        d = edr(t, q, 1.0)
        m, n = t.shape[0], q.shape[0]
        assert abs(m - n) <= d <= max(m, n)

    @settings(max_examples=60)
    @given(trajectories(), trajectories())
    def test_symmetry(self, t, q):
        assert edr(t, q, 1.0) == edr(q, t, 1.0)

    @settings(max_examples=60)
    @given(trajectories(), trajectories(), st.integers(0, 8))
    def test_threshold_agrees(self, t, q, tau):
        d = edr(t, q, 1.0)
        dt = edr_threshold(t, q, 1.0, tau)
        if d <= tau:
            assert dt == d
        else:
            assert dt == math.inf


class TestLCSS:
    def test_standard_definition_value(self):
        """Standard (Vlachos) LCSS with delta=1, eps=1 gives 4 for T1/T3.

        The paper's Example value (2) is inconsistent with its own
        recursion — see EXPERIMENTS.md — so we pin the standard semantics.
        """
        assert lcss(T1, T3, 1.0, 1) == 4

    def test_identity_full_match(self):
        assert lcss(T1, T1, 0.1, 0) == T1.shape[0]
        assert lcss_dissimilarity(T1, T1, 0.1, 0) == 0

    def test_disjoint_zero(self):
        t = np.zeros((3, 2))
        q = np.full((3, 2), 100.0)
        assert lcss(t, q, 1.0, 3) == 0

    def test_delta_constraint(self):
        """delta = 0 forces diagonal matching."""
        t = np.array([(0, 0), (1, 1)], float)
        q = np.array([(1, 1), (0, 0)], float)
        assert lcss(t, q, 0.1, 0) == 0
        assert lcss(t, q, 0.1, 1) == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            lcss(T1, T3, -1.0, 1)
        with pytest.raises(ValueError):
            lcss(T1, T3, 1.0, -1)

    @settings(max_examples=60)
    @given(trajectories(), trajectories())
    def test_bounds(self, t, q):
        v = lcss(t, q, 1.0, 3)
        assert 0 <= v <= min(t.shape[0], q.shape[0])

    @settings(max_examples=60)
    @given(trajectories(), trajectories())
    def test_dissimilarity_non_negative(self, t, q):
        assert lcss_dissimilarity(t, q, 1.0, 3) >= 0


class TestERP:
    GAP = np.zeros(2)

    def test_identity(self):
        assert erp(T1, T1, self.GAP) == pytest.approx(0.0)

    def test_symmetry(self):
        assert erp(T1, T3, self.GAP) == pytest.approx(erp(T3, T1, self.GAP))

    def test_gap_shape_validation(self):
        with pytest.raises(ValueError):
            erp(T1, T3, np.zeros(3))

    def test_single_vs_empty_cost(self):
        """Deleting everything costs the summed distance to the gap point."""
        t = np.array([(3, 4)], float)
        q = np.array([(0, 0)], float)
        # match costs 5; delete-both costs 5 + 0 = 5: equal here
        assert erp(t, q, self.GAP) == pytest.approx(5.0)

    @settings(max_examples=40)
    @given(trajectories(max_len=6), trajectories(max_len=6), trajectories(max_len=6))
    def test_triangle_inequality(self, a, b, c):
        g = self.GAP
        assert erp(a, c, g) <= erp(a, b, g) + erp(b, c, g) + 1e-6

    @settings(max_examples=40)
    @given(trajectories(), trajectories(), st.floats(0.1, 60))
    @example(ERP_BOUNDARY_T, ERP_BOUNDARY_Q, 1.0)
    def test_threshold_agrees(self, t, q, tau):
        d = erp(t, q, self.GAP)
        dt = erp_threshold(t, q, self.GAP, tau)
        if d <= tau:
            assert dt == pytest.approx(d, rel=1e-9, abs=1e-9)
        else:
            assert dt == math.inf

    def test_closed_boundary_survives_every_threshold_path(self):
        """The same pair through the kernel, the loop oracle and an engine
        search: distance == tau is an answer."""
        from oracles.dp_reference import erp_threshold_reference
        from repro import DITAConfig, DITAEngine
        from repro.core.adapters import ERPAdapter
        from repro.trajectory import Trajectory

        t, q = ERP_BOUNDARY_T, ERP_BOUNDARY_Q
        assert erp(t, q, self.GAP) == 1.0
        assert erp_threshold(t, q, self.GAP, 1.0) == 1.0
        assert erp_threshold_reference(t, q, self.GAP, 1.0) == 1.0
        engine = DITAEngine(
            [Trajectory(1, t)], DITAConfig(num_global_partitions=1), ERPAdapter()
        )
        assert [(m.traj_id, d) for m, d in engine.search(Trajectory(2, q), 1.0)] == [(1, 1.0)]


class TestRegistry:
    def test_all_registered(self):
        assert set(available_distances()) >= {"dtw", "frechet", "edr", "lcss", "erp"}

    def test_get_with_params(self):
        d = get_distance("edr", epsilon=0.5)
        assert d.epsilon == 0.5

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_distance("nope")

    def test_metric_flags(self):
        assert get_distance("frechet").is_metric
        assert get_distance("erp").is_metric
        assert not get_distance("dtw").is_metric
        assert not get_distance("edr").is_metric

    def test_lcss_compute_is_dissimilarity(self):
        d = get_distance("lcss", epsilon=1.0, delta=1)
        assert d.compute(T1, T1) == 0.0
        assert d.compute(T1, T3) == min(6, 6) - 4


#: the name each distance's error message carries
DISPLAY_NAMES = {
    "dtw": "DTW", "frechet": "Frechet", "edr": "EDR",
    "lcss": "LCSS", "erp": "ERP", "hausdorff": "Hausdorff",
}


class TestEmptyTrajectories:
    """An empty trajectory matches nothing: every entry point raises a
    ``ValueError`` naming the distance, whichever side is empty."""

    EMPTY = np.empty((0, 2))

    @pytest.mark.parametrize("name", sorted(DISPLAY_NAMES))
    def test_every_distance_rejects_an_empty_side(self, name):
        f = get_distance(name)
        message = f"{DISPLAY_NAMES[name]} is undefined for empty trajectories"
        for t, q in ((self.EMPTY, T1), (T1, self.EMPTY)):
            with pytest.raises(ValueError, match=message):
                f.compute(t, q)
            with pytest.raises(ValueError, match=message):
                f.compute_threshold(t, q, 1.0)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda t, q: lcss(t, q, 1.0, 1),
            lambda t, q: lcss_dissimilarity(t, q, 1.0, 1),
            lambda t, q: hausdorff_threshold(t, q, 1.0),
        ],
        ids=["lcss", "lcss_dissimilarity", "hausdorff_threshold"],
    )
    def test_module_functions_reject_an_empty_side(self, fn):
        for t, q in ((self.EMPTY, T1), (T1, self.EMPTY)):
            with pytest.raises(ValueError, match="(LCSS|Hausdorff) is undefined for empty"):
                fn(t, q)
