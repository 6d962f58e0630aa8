"""Dataset statistics (the analogue of the paper's Table 2)."""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.columnar import ColumnarDataset


@dataclass(frozen=True)
class DatasetStats:
    """Cardinality and length statistics of a trajectory dataset."""

    cardinality: int
    avg_len: float
    min_len: int
    max_len: int
    total_points: int
    size_bytes: int

    def row(self, name: str) -> str:
        """One formatted row in the style of the paper's Table 2."""
        return (
            f"{name:<16} {self.cardinality:>10} {self.avg_len:>8.1f} "
            f"{self.min_len:>7} {self.max_len:>7} {self.size_bytes / 1e6:>9.2f}MB"
        )


def dataset_stats(dataset: ColumnarDataset) -> DatasetStats:
    """Compute Table-2-style statistics for ``dataset``."""
    lengths = dataset.lengths
    if not len(dataset):
        return DatasetStats(0, 0.0, 0, 0, 0, 0)
    return DatasetStats(
        cardinality=len(dataset),
        avg_len=float(lengths.mean()),
        min_len=int(lengths.min()),
        max_len=int(lengths.max()),
        total_points=dataset.n_points,
        size_bytes=dataset.nbytes(),
    )


def stats_header() -> str:
    """Header line matching :meth:`DatasetStats.row`."""
    return (
        f"{'Dataset':<16} {'Cardinality':>10} {'AvgLen':>8} "
        f"{'MinLen':>7} {'MaxLen':>7} {'Size':>11}"
    )
