"""Columnar trajectory storage tier.

* :class:`~repro.storage.columnar.ColumnarDataset` — the in-memory CSR
  container (flat coordinates + offsets + ids, vectorized summaries,
  zero-copy row views).
* :class:`~repro.storage.store.TrajectoryStore` / :func:`build_store` —
  the persisted partitioned form: memory-mapped ``.npy`` blocks under a
  ``catalog.json`` with partition MBRs, counts and checksums, supporting
  catalog-level partition pruning and lazy loading.
"""

# repro.trajectory's loaders build ColumnarDatasets and columnar.py views
# rows as Trajectory objects: the cycle resolves only when entered from the
# trajectory package, so enter it there whichever a caller imports first
from .. import trajectory as _trajectory  # noqa: F401
from .columnar import ColumnarDataset, concat_datasets, partition_rows
from .delta import DeltaPartition
from .generations import CURRENT_NAME, GenerationalStore
from .store import (
    CATALOG_NAME,
    STORAGE_FORMAT_VERSION,
    ChecksumError,
    CorruptBlockError,
    SchemaVersionError,
    StorageError,
    TrajectoryStore,
    build_store,
    snapshot_partitions,
    write_catalog,
    write_partition_block,
)

__all__ = [
    "CATALOG_NAME",
    "CURRENT_NAME",
    "STORAGE_FORMAT_VERSION",
    "ChecksumError",
    "ColumnarDataset",
    "CorruptBlockError",
    "DeltaPartition",
    "GenerationalStore",
    "SchemaVersionError",
    "StorageError",
    "TrajectoryStore",
    "build_store",
    "concat_datasets",
    "partition_rows",
    "snapshot_partitions",
    "write_catalog",
    "write_partition_block",
]
