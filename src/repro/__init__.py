"""repro — a from-scratch Python reproduction of DITA (SIGMOD 2018).

DITA is a distributed in-memory trajectory analytics system: pivot-based
trie indexing, two-level (global/local) distributed indexes, a
filter-verification search/join framework, a bi-graph join cost model with
graph orientation and division-based load balancing, and a SQL/DataFrame
front end — all supporting DTW, Fréchet, EDR, LCSS and ERP similarity.

Quick start::

    from repro import DITAEngine, DITAConfig
    from repro.datagen import beijing_like, sample_queries

    data = beijing_like(1000)
    engine = DITAEngine(data)
    query = sample_queries(data, 1)[0]
    print(engine.search(query, tau=0.005))
"""

from .cluster.faults import FaultPlan, FaultReport, RecoveryPolicy, TaskAbandonedError
from .core.config import DITAConfig
from .core.engine import DITAEngine
from .distances import available_distances, get_distance
from .obs import MetricsRegistry, Tracer
from .storage import (
    ColumnarDataset,
    DeltaPartition,
    GenerationalStore,
    TrajectoryStore,
    build_store,
)
from .trajectory import Trajectory

__version__ = "1.0.0"

__all__ = [
    "ColumnarDataset",
    "DITAConfig",
    "DITAEngine",
    "DeltaPartition",
    "FaultPlan",
    "FaultReport",
    "GenerationalStore",
    "MetricsRegistry",
    "RecoveryPolicy",
    "TaskAbandonedError",
    "Tracer",
    "Trajectory",
    "TrajectoryStore",
    "available_distances",
    "build_store",
    "get_distance",
]
