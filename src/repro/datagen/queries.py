"""Query workload sampling.

Section 7.2 samples 1,000 queries from each dataset and reports average
latency; :func:`sample_queries` reproduces that protocol (optionally with a
small perturbation so queries are near-duplicates rather than exact members,
exercising the non-self-match path).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..storage.columnar import ColumnarDataset
from ..trajectory.trajectory import Trajectory


def sample_queries(
    dataset: ColumnarDataset,
    n_queries: int,
    seed: int = 0,
    perturb: float = 0.0,
) -> List[Trajectory]:
    """Draw ``n_queries`` query trajectories from ``dataset``.

    With ``perturb > 0`` each query point receives Gaussian noise of that
    scale; query ids are negative so they never collide with dataset ids.
    """
    if len(dataset) == 0:
        raise ValueError("cannot sample queries from an empty dataset")
    if n_queries <= 0:
        raise ValueError("n_queries must be positive")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(dataset), size=n_queries)
    queries: List[Trajectory] = []
    for qi, i in enumerate(idx):
        pts = dataset[int(i)].points
        if perturb > 0:
            pts = pts + rng.normal(0, perturb, size=pts.shape)
        queries.append(Trajectory(-(qi + 1), pts))
    return queries
