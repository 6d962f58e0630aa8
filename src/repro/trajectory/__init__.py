"""Trajectory data model, IO, statistics and simplification."""

from ..storage.columnar import ColumnarDataset
from .geolife import load_plt, load_plt_directory
from .io import load_csv, load_jsonl, save_csv, save_jsonl
from .simplify import douglas_peucker, simplify
from .stats import dataset_stats, stats_header
from .temporal import attach_time, attach_uniform_time, strip_time, temporal_dataset
from .transforms import dataset_bounds, normalize_unit_box, resample, scale, translate
from .trajectory import Trajectory

#: the pre-PR-22 container's name, kept only because the frozen harness
#: ``benchmarks/e2e/workloads.py`` still spells it (ROADMAP item 1)
TrajectoryDataset = ColumnarDataset.from_trajectories

__all__ = [
    "Trajectory",
    "TrajectoryDataset",
    "dataset_bounds",
    "dataset_stats",
    "douglas_peucker",
    "load_csv",
    "load_jsonl",
    "load_plt",
    "load_plt_directory",
    "save_csv",
    "save_jsonl",
    "normalize_unit_box",
    "resample",
    "scale",
    "attach_time",
    "attach_uniform_time",
    "simplify",
    "strip_time",
    "temporal_dataset",
    "translate",
    "stats_header",
]
