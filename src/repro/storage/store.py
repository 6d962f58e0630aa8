"""The persisted, partitioned trajectory store.

Directory layout (governed by ``catalog.json``)::

    store/
      catalog.json            # schema version, dtypes, partition metadata
      part-00000/
        ids.npy               # (n,) int64 trajectory ids
        starts.npy            # (n+1,) int64 CSR offsets
        coords.npy            # (total_points, ndim) float64 points
        firsts.npy lasts.npy  # (n, ndim) float64 align-point summaries
        mbr_low.npy mbr_high.npy  # (n, ndim) float64 per-trajectory MBRs
      part-00001/
        ...

Each partition is one contiguous CSR block written with
``np.lib.format`` and read back as a lazy ``np.memmap``
(``np.lib.format.open_memmap`` — the arrays self-describe their dtype, and
nothing is paged in until a consumer touches it).  The catalog carries
every partition's first/last/coverage MBRs, counts, dtypes and CRC32
checksums, so

* **global pruning** needs only the catalog: an engine opened on the
  store builds its global index from the first/last MBRs and never reads
  a pruned partition's block;
* **cold start** skips parsing, partitioning and summary computation
  entirely — a partition opens as ready-made
  :class:`~repro.storage.columnar.ColumnarDataset` arrays;
* corruption surfaces as typed errors (:class:`CorruptBlockError` /
  :class:`ChecksumError`) instead of downstream garbage, and a schema
  bump raises :class:`SchemaVersionError` instead of misreading bytes.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..geometry.mbr import MBR
from .columnar import ColumnarDataset, check_finite, partition_rows

PathLike = Union[str, Path]

#: bump when the on-disk layout changes incompatibly
STORAGE_FORMAT_VERSION = 1

CATALOG_NAME = "catalog.json"

#: the block arrays every partition directory must hold, with pinned dtypes
BLOCK_ARRAYS: Dict[str, str] = {
    "ids.npy": "<i8",
    "starts.npy": "<i8",
    "coords.npy": "<f8",
    "firsts.npy": "<f8",
    "lasts.npy": "<f8",
    "mbr_low.npy": "<f8",
    "mbr_high.npy": "<f8",
}


class StorageError(RuntimeError):
    """Base error for the persisted trajectory store."""


class SchemaVersionError(StorageError):
    """The catalog was written by an incompatible format version."""


class CorruptBlockError(StorageError):
    """A partition block is missing, truncated or otherwise unreadable."""


class ChecksumError(CorruptBlockError):
    """A block file's bytes do not match the catalog's CRC32."""


@dataclass
class PartitionMeta:
    """Catalog metadata for one partition (everything pruning needs)."""

    partition_id: int
    directory: str
    n_trajectories: int
    n_points: int
    nbytes: int
    min_len: int
    mbr_first: MBR
    mbr_last: MBR
    mbr: MBR  #: coverage MBR over every point of the partition
    checksums: Dict[str, int]

    def to_json(self) -> dict:
        return {
            "partition_id": self.partition_id,
            "directory": self.directory,
            "n_trajectories": self.n_trajectories,
            "n_points": self.n_points,
            "nbytes": self.nbytes,
            "min_len": self.min_len,
            "mbr_first": [self.mbr_first.low.tolist(), self.mbr_first.high.tolist()],
            "mbr_last": [self.mbr_last.low.tolist(), self.mbr_last.high.tolist()],
            "mbr": [self.mbr.low.tolist(), self.mbr.high.tolist()],
            "checksums": self.checksums,
        }

    @classmethod
    def from_json(cls, d: dict) -> "PartitionMeta":
        return cls(
            partition_id=int(d["partition_id"]),
            directory=str(d["directory"]),
            n_trajectories=int(d["n_trajectories"]),
            n_points=int(d["n_points"]),
            nbytes=int(d["nbytes"]),
            min_len=int(d["min_len"]),
            mbr_first=MBR(d["mbr_first"][0], d["mbr_first"][1]),
            mbr_last=MBR(d["mbr_last"][0], d["mbr_last"][1]),
            mbr=MBR(d["mbr"][0], d["mbr"][1]),
            checksums={str(k): int(v) for k, v in d["checksums"].items()},
        )


def _crc32(path: Path) -> int:
    crc = 0
    with path.open("rb") as f:
        while True:
            chunk = f.read(1 << 20)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc


def _write_block(part_dir: Path, part: ColumnarDataset) -> Dict[str, int]:
    """Write one partition's arrays with ``np.lib.format``; returns CRC32s."""
    part_dir.mkdir(parents=True, exist_ok=True)
    arrays = {
        "ids.npy": part.traj_ids,
        "starts.npy": part.point_starts,
        "coords.npy": part.point_coords,
        "firsts.npy": part.firsts,
        "lasts.npy": part.lasts,
        "mbr_low.npy": part.mbr_lows,
        "mbr_high.npy": part.mbr_highs,
    }
    checksums: Dict[str, int] = {}
    for name, arr in arrays.items():
        target = part_dir / name
        with target.open("wb") as f:
            pinned = np.ascontiguousarray(arr, dtype=np.dtype(BLOCK_ARRAYS[name]))
            np.lib.format.write_array(f, pinned, allow_pickle=False)
        checksums[name] = _crc32(target)
    return checksums


def write_partition_block(path: PathLike, pid: int, part: ColumnarDataset) -> PartitionMeta:
    """Write one partition's block directory under ``path`` and return its
    catalog metadata.  Idempotent (a retried writer task overwrites its own
    partial output), so fault-tolerant builders can re-run it safely."""
    path = Path(path)
    directory = f"part-{pid:05d}"
    checksums = _write_block(path / directory, part)
    return PartitionMeta(
        partition_id=pid,
        directory=directory,
        n_trajectories=part.n_rows,
        n_points=part.n_points,
        nbytes=part.nbytes(),
        min_len=int(part.lengths.min()),
        mbr_first=MBR(part.firsts.min(axis=0), part.firsts.max(axis=0)),
        mbr_last=MBR(part.lasts.min(axis=0), part.lasts.max(axis=0)),
        mbr=MBR(part.mbr_lows.min(axis=0), part.mbr_highs.max(axis=0)),
        checksums=checksums,
    )


def write_catalog(
    path: PathLike, metas: Sequence[PartitionMeta], ndim: int, n_groups: int
) -> None:
    """Write ``catalog.json`` over already-written partition blocks — the
    last step of any store build; a directory without it is never a store."""
    catalog = {
        "format_version": STORAGE_FORMAT_VERSION,
        "ndim": int(ndim),
        "n_groups": int(n_groups),
        "n_trajectories": sum(m.n_trajectories for m in metas),
        "n_points": sum(m.n_points for m in metas),
        "dtypes": dict(BLOCK_ARRAYS),
        "partitions": [m.to_json() for m in metas],
    }
    (Path(path) / CATALOG_NAME).write_text(json.dumps(catalog, indent=1, sort_keys=True))


def build_store(
    dataset,
    path: PathLike,
    n_groups: int = 8,
) -> "TrajectoryStore":
    """Partition ``dataset`` (first/last-point STR, the Section 4.2.1
    scheme) and persist it under ``path``; returns the opened store.

    ``dataset`` is a :class:`ColumnarDataset` or anything
    :meth:`ColumnarDataset.from_trajectories` accepts.  The partitioning is
    identical to :func:`repro.core.global_index.partition_trajectories`
    with the same ``n_groups``, so an engine built from the store adopts
    the blocks as its partitions unchanged.
    """
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    data = ColumnarDataset.from_trajectories(dataset)
    check_finite(data.point_coords)
    path = Path(path)
    if (path / CATALOG_NAME).exists():
        raise StorageError(f"store already exists at {path}")
    path.mkdir(parents=True, exist_ok=True)
    groups = [rows for rows in partition_rows(data, n_groups) if rows.shape[0]]
    # one partition in memory at a time
    metas = [
        write_partition_block(path, pid, data.subset(rows)) for pid, rows in enumerate(groups)
    ]
    write_catalog(path, metas, data.ndim, n_groups)
    return TrajectoryStore.open(path)


def snapshot_partitions(
    parts: Dict[int, ColumnarDataset],
    path: PathLike,
    ndim: int,
    n_groups: int,
) -> "TrajectoryStore":
    """Persist an engine's live partitions *verbatim* under ``path``.

    Unlike :func:`build_store`, nothing is repartitioned, reordered or
    compacted: each dataset is written row-for-row under its given
    partition id, so row indices in the written blocks are exactly the
    coordinator's row indices.  This is the spill path the process
    backend uses to hand worker processes a mappable view of an engine
    that was built from objects (or mutated since its store was written)
    — result rows resolved by a worker must mean the same thing to the
    coordinator.
    """
    path = Path(path)
    if (path / CATALOG_NAME).exists():
        raise StorageError(f"store already exists at {path}")
    path.mkdir(parents=True, exist_ok=True)
    metas = [write_partition_block(path, pid, parts[pid]) for pid in sorted(parts)]
    write_catalog(path, metas, ndim, n_groups)
    return TrajectoryStore.open(path)


class TrajectoryStore:
    """A read view over a persisted store directory.

    Opening parses only ``catalog.json``; partition blocks load lazily as
    memory-mapped arrays the first time :meth:`partition` is called.
    """

    def __init__(self, path: Path, catalog: dict) -> None:
        self.path = path
        self.catalog = catalog
        self.metas: Dict[int, PartitionMeta] = {
            m["partition_id"]: PartitionMeta.from_json(m) for m in catalog["partitions"]
        }
        self._parts: Dict[int, ColumnarDataset] = {}

    # ------------------------------------------------------------------ #

    @classmethod
    def open(cls, path: PathLike, *, verify: bool = False) -> "TrajectoryStore":
        """Open a store; ``verify=True`` additionally checks every block's
        CRC32 up front (reads all bytes — defeats laziness, catches rot)."""
        path = Path(path)
        catalog_path = path / CATALOG_NAME
        if not catalog_path.is_file():
            raise StorageError(f"no {CATALOG_NAME} under {path}")
        try:
            catalog = json.loads(catalog_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptBlockError(f"unreadable catalog at {catalog_path}: {exc}") from exc
        version = catalog.get("format_version")
        if version != STORAGE_FORMAT_VERSION:
            raise SchemaVersionError(
                f"store format version {version!r} is not supported "
                f"(expected {STORAGE_FORMAT_VERSION})"
            )
        dtypes = catalog.get("dtypes", {})
        for name, dt in BLOCK_ARRAYS.items():
            if dtypes.get(name) != dt:
                raise SchemaVersionError(
                    f"catalog pins dtype {dtypes.get(name)!r} for {name}, expected {dt!r}"
                )
        store = cls(path, catalog)
        if verify:
            store.verify()
        return store

    @property
    def ndim(self) -> int:
        return int(self.catalog["ndim"])

    @property
    def n_trajectories(self) -> int:
        return int(self.catalog["n_trajectories"])

    @property
    def n_points(self) -> int:
        return int(self.catalog["n_points"])

    @property
    def n_groups(self) -> int:
        return int(self.catalog["n_groups"])

    def __len__(self) -> int:
        return len(self.metas)

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #

    def partition_ids(self) -> List[int]:
        """Every partition id, ascending (from the catalog alone)."""
        return sorted(self.metas)

    def partition(self, pid: int) -> ColumnarDataset:
        """The partition's block as a (cached) lazy memory-mapped dataset."""
        if pid not in self._parts:
            meta = self.metas[pid]
            part_dir = self.path / meta.directory
            arrays = {}
            for name, dt in BLOCK_ARRAYS.items():
                target = part_dir / name
                try:
                    arr = np.lib.format.open_memmap(target, mode="r")
                except (OSError, ValueError) as exc:
                    raise CorruptBlockError(
                        f"partition {pid}: cannot read {target}: {exc}"
                    ) from exc
                if arr.dtype.str != dt:
                    raise CorruptBlockError(
                        f"partition {pid}: {name} has dtype {arr.dtype.str}, expected {dt}"
                    )
                arrays[name] = arr
            n = int(arrays["ids.npy"].shape[0])
            if n != meta.n_trajectories or arrays["starts.npy"].shape != (n + 1,):
                raise CorruptBlockError(
                    f"partition {pid}: block shapes disagree with the catalog"
                )
            if int(arrays["coords.npy"].shape[0]) != meta.n_points:
                raise CorruptBlockError(
                    f"partition {pid}: coords.npy holds {arrays['coords.npy'].shape[0]} "
                    f"points, catalog says {meta.n_points}"
                )
            self._parts[pid] = ColumnarDataset(
                arrays["ids.npy"],
                arrays["starts.npy"],
                arrays["coords.npy"],
                firsts=arrays["firsts.npy"],
                lasts=arrays["lasts.npy"],
                mbr_lows=arrays["mbr_low.npy"],
                mbr_highs=arrays["mbr_high.npy"],
            )
        return self._parts[pid]

    def to_columnar(self) -> ColumnarDataset:
        """Concatenate every partition into one in-memory dataset."""
        parts = [self.partition(pid) for pid in sorted(self.metas)]
        if not parts:
            return ColumnarDataset.empty(self.ndim)
        ids = np.concatenate([p.traj_ids for p in parts])
        lens = np.concatenate([p.lengths for p in parts])
        starts = np.zeros(ids.shape[0] + 1, dtype=np.int64)
        np.cumsum(lens, out=starts[1:])
        coords = np.concatenate([p.point_coords for p in parts], axis=0)
        return ColumnarDataset(ids, starts, coords)

    # ------------------------------------------------------------------ #
    # integrity
    # ------------------------------------------------------------------ #

    def verify(self, pids: Optional[Sequence[int]] = None) -> None:
        """Check block CRC32s against the catalog; raises
        :class:`ChecksumError` on the first mismatch and
        :class:`CorruptBlockError` for missing files."""
        for pid in sorted(self.metas) if pids is None else pids:
            meta = self.metas[pid]
            part_dir = self.path / meta.directory
            for name, expected in meta.checksums.items():
                target = part_dir / name
                if not target.is_file():
                    raise CorruptBlockError(f"partition {pid}: missing block file {target}")
                actual = _crc32(target)
                if actual != expected:
                    raise ChecksumError(
                        f"partition {pid}: {name} CRC32 {actual:#010x} != "
                        f"catalog {expected:#010x}"
                    )

    def describe(self) -> dict:
        """A JSON-friendly summary (the ``repro store inspect`` payload)."""
        return {
            "path": str(self.path),
            "format_version": self.catalog["format_version"],
            "ndim": self.ndim,
            "n_groups": self.n_groups,
            "n_partitions": len(self.metas),
            "n_trajectories": self.n_trajectories,
            "n_points": self.n_points,
            "partitions": [self.metas[pid].to_json() for pid in sorted(self.metas)],
        }

    def __repr__(self) -> str:
        return (
            f"TrajectoryStore(path={str(self.path)!r}, partitions={len(self.metas)}, "
            f"n={self.n_trajectories})"
        )
