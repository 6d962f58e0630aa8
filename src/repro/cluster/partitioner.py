"""The random partitioning strawman (Appendix B, Figure 13).

DITA's own first/last-point STR scheme (Section 4.2.1) is
:func:`repro.core.global_index.partition_trajectories`;
``RandomPartitioner`` is what the paper compares it against in Figure 13
(random assignment, so similar trajectories scatter and every partition
is relevant to every query).  It returns one compact
:class:`~repro.storage.columnar.ColumnarDataset` per partition.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..storage.columnar import ColumnarDataset


class RandomPartitioner:
    """Uniform random assignment into ``n_partitions`` partitions."""

    def __init__(self, n_partitions: int, seed: int = 0) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.n_partitions = n_partitions
        self.seed = seed

    def partition(self, trajectories: Iterable) -> List[ColumnarDataset]:
        data = ColumnarDataset.from_trajectories(trajectories)
        rng = np.random.default_rng(self.seed)
        assign = rng.integers(0, self.n_partitions, size=data.n_rows)
        parts = [data.subset(np.flatnonzero(assign == p)) for p in range(self.n_partitions)]
        return [p for p in parts if len(p)]
