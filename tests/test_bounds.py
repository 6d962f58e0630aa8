"""Property tests for the DTW lower bounds (Lemmas 4.1, 4.3 and 5.1).

AMD is PAMD over every interior row.  The MBR form of Section 5.3.1 and
Lemma 5.1's ordered (suffix) form exist only batched, inside the trie
filter, so they are checked there: a trie over the trajectories prunes a
query exactly when its node MBRs' accumulated distance exceeds ``tau``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adapters import DTWAdapter
from repro.core.bounds import pamd
from repro.core.config import DITAConfig
from repro.core.pivots import pivot_indices
from repro.core.trie import TrieIndex
from repro.distances.dtw import dtw
from repro.trajectory import Trajectory

coords = st.floats(-20, 20, allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw, min_len=1, max_len=12):
    n = draw(st.integers(min_len, max_len))
    return np.asarray([[draw(coords), draw(coords)] for _ in range(n)])


T1 = np.array([(1, 1), (1, 2), (3, 2), (4, 4), (4, 5), (5, 5)], float)
T3 = np.array([(1, 1), (4, 1), (4, 3), (4, 5), (4, 6), (5, 6)], float)


def amd(t, q):
    """Accumulated Minimum Distance (Lemma 4.1): PAMD over every interior row."""
    return pamd(t, q, range(1, len(t) - 1))


def kept(trajs, q, tau, k, suffix):
    """Whether the trie filter keeps each of ``trajs`` for query ``q``: one
    node per level (fanout 1), so every node MBR covers all of them and
    neighbour pivots are chosen as :func:`pivot_indices` chooses them.  A
    copy of the first trajectory rides along, so that even one trajectory
    fills more than a leaf and is filtered level by level."""
    cfg = DITAConfig(trie_fanout=1, num_pivots=k, pivot_strategy="neighbor", trie_leaf_capacity=1)
    rows = [*trajs, trajs[0]]
    trie = TrieIndex([Trajectory(i, t) for i, t in enumerate(rows)], cfg)
    rows = trie.filter_candidates(q, tau, DTWAdapter(use_suffix_pruning=suffix))
    found = {int(i) for i in trie.dataset.ids_of(rows)}
    return [i in found for i in range(len(trajs))]


class TestAMD:
    def test_lemma_4_1(self):
        """AMD <= DTW so AMD > tau proves dissimilarity."""
        assert amd(T1, T3) <= dtw(T1, T3) + 1e-9

    @settings(max_examples=100)
    @given(trajectories(), trajectories())
    def test_amd_lower_bounds_dtw(self, t, q):
        assert amd(t, q) <= dtw(t, q) + 1e-6

    def test_single_point(self):
        t = np.array([(0, 0)], float)
        q = np.array([(3, 4)], float)
        assert amd(t, q) == pytest.approx(5.0)


class TestPAMD:
    def test_paper_example_4_4(self):
        """PAMD(T1, T3) = 3.41 with neighbor pivots (3,2), (4,4)."""
        idx = pivot_indices(T1, 2, "neighbor")
        assert pamd(T1, T3, idx) == pytest.approx(3.41, abs=0.01)

    def test_pamd_prunes_example(self):
        """Example 4.4: PAMD = 3.41 > tau = 3 so T1, T3 dissimilar."""
        idx = pivot_indices(T1, 2, "neighbor")
        assert pamd(T1, T3, idx) > 3.0

    @settings(max_examples=100)
    @given(trajectories(min_len=3), trajectories(), st.integers(1, 4))
    def test_chain_pamd_amd_dtw(self, t, q, k):
        """Lemma 4.3 chain: PAMD <= AMD <= DTW."""
        idx = pivot_indices(t, k, "neighbor")
        p = pamd(t, q, idx)
        a = amd(t, q)
        assert p <= a + 1e-6
        assert a <= dtw(t, q) + 1e-6

    def test_no_pivots_endpoint_bound(self):
        assert pamd(T1, T3, []) == pytest.approx(
            float(np.linalg.norm(T1[0] - T3[0])) + float(np.linalg.norm(T1[-1] - T3[-1]))
        )

    def test_non_interior_pivot_rejected(self):
        with pytest.raises(ValueError):
            pamd(T1, T3, [0])
        with pytest.raises(ValueError):
            pamd(T1, T3, [5])


class TestOPAMD:
    @settings(max_examples=120)
    @given(trajectories(min_len=3), trajectories(), st.integers(1, 4), st.floats(0.1, 60))
    def test_conditional_soundness(self, t, q, k, tau):
        """Lemma 5.1: whenever DTW <= tau the suffix-pruned filter keeps T —
        OPAMD > tau never prunes a true answer."""
        if dtw(t, q) <= tau:
            assert kept([t], q, tau, k, suffix=True) == [True]

    @settings(max_examples=80)
    @given(trajectories(min_len=3), trajectories(), st.integers(1, 4), st.floats(0.1, 60))
    def test_at_least_pamd(self, t, q, k, tau):
        """Suffix restriction can only tighten: OPAMD >= PAMD, so what the
        suffix-pruned filter keeps the plain one keeps too."""
        if kept([t], q, tau, k, suffix=True) == [True]:
            assert kept([t], q, tau, k, suffix=False) == [True]

    def test_inf_when_pivot_unreachable(self):
        t = np.array([(0, 0), (100, 100), (0.1, 0.1)], float)
        q = np.array([(0, 0), (0.1, 0.1)], float)
        # endpoints align closely but the pivot (100,100) is far from all
        # of Q, so similarity within tau = 1 is impossible
        assert kept([t], q, 1.0, 1, suffix=True) == [False]


class TestMBRAccumulated:
    def test_basic(self):
        """First-point MBR (0,0)-(1,1), last-point MBR (4,4)-(6,6), pivot MBR
        (10,10)-(11,11): the bound is MinDist((5,5), pivot MBR) = sqrt(50)."""
        trajs = [np.array([(0, 0), (10, 10), (4, 4)], float), np.array([(1, 1), (11, 11), (6, 6)], float)]
        q = np.array([(0, 0), (5, 5)], float)
        bound = math.sqrt(50)
        assert kept(trajs, q, bound * (1 + 1e-6), 1, suffix=False) == [True, True]
        assert kept(trajs, q, bound * (1 - 1e-6), 1, suffix=False) == [False, False]

    @settings(max_examples=60)
    @given(
        trajectories(min_len=3, max_len=8),
        trajectories(min_len=3, max_len=8),
        trajectories(min_len=1, max_len=8),
    )
    def test_mbr_version_no_tighter_than_point_version(self, t, u, q):
        """Grouping by MBRs only loosens the bound: MBR-AMD <= PAMD, so a
        trajectory sharing its nodes with another is kept at tau = PAMD."""
        tau = pamd(t, q, pivot_indices(t, 2, "neighbor"))
        assert kept([t, u], q, tau * (1 + 1e-9) + 1e-9, 2, suffix=False)[0]
