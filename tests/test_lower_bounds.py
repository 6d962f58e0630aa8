"""The lower-bound contract: every registered bound really is a lower bound.

Each distance class must *declare* a bound or opt out with a justification
(the base ``lower_bound`` raises otherwise); this suite pins admissibility —
``lower_bound(t, q) <= compute(t, q)`` — on random data and on a
ULP-adversarial pair, because the trie's pruning is only exact when that
inequality holds.
"""

import numpy as np
import pytest

from repro.distances import get_distance
from repro.distances.base import TrajectoryDistance

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
