"""Shared fixtures: the paper's worked example trajectories and small
synthetic datasets."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.config import DITAConfig
from repro.datagen import beijing_like, citywide_dataset, random_walk_dataset
from repro.storage import ColumnarDataset
from repro.trajectory import Trajectory

# Tier-1 is a gate, so it must be green or red by code, not by which
# examples a random search happened to draw: the default profile derives
# every property test's examples from the test itself and ignores the local
# example database.  Randomised exploration is a separate, non-gating CI
# job: the same suites under ``--hypothesis-profile=explore``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", settings.get_profile("default"))
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def paper_trajectories():
    """The five example trajectories of the paper's Figure 1."""
    return {
        1: Trajectory(1, [(1, 1), (1, 2), (3, 2), (4, 4), (4, 5), (5, 5)]),
        2: Trajectory(2, [(0, 1), (0, 2), (4, 2), (4, 4), (4, 5), (5, 5)]),
        3: Trajectory(3, [(1, 1), (4, 1), (4, 3), (4, 5), (4, 6), (5, 6)]),
        4: Trajectory(4, [(0, 4), (0, 5), (3, 3), (3, 7), (7, 5)]),
        5: Trajectory(5, [(0, 4), (0, 5), (3, 7), (3, 3), (7, 5)]),
    }


@pytest.fixture(scope="session")
def paper_dataset(paper_trajectories):
    return ColumnarDataset.from_trajectories(paper_trajectories.values())


@pytest.fixture(scope="session")
def small_city():
    """A small citywide dataset with route families (matches exist at the
    paper's tau range)."""
    return beijing_like(120, seed=42)


@pytest.fixture(scope="session")
def tiny_walks():
    """Tiny random walks for index structural tests."""
    return random_walk_dataset(40, avg_len=12, seed=3)


@pytest.fixture(scope="session")
def small_config():
    """Index parameters scaled for ~100-trajectory fixtures."""
    return DITAConfig(num_global_partitions=3, trie_fanout=4, num_pivots=3, trie_leaf_capacity=4)


def brute_force_search(dataset, distance, query, tau):
    """Reference implementation shared by correctness tests."""
    return sorted(
        t.traj_id for t in dataset if distance.compute(t.points, query.points) <= tau
    )


def brute_force_join(left, right, distance, tau):
    return sorted(
        (a.traj_id, b.traj_id)
        for a in left
        for b in right
        if distance.compute(a.points, b.points) <= tau
    )


def nonzero_counts(registry, prefix=""):
    """A registry's counters under ``prefix`` that are not zero: two runs
    count the same when these agree, whether or not a stage that never ran
    wrote its zeros."""
    return {k: v for k, v in registry.counters(prefix).items() if v}
