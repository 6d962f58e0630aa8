"""Simulated Spark-like cluster: workers, network model, partitioners,
deterministic fault injection and recovery."""

from .clock import (
    Stopwatch,
    make_fixed_cost_measure,
    unit_cost_measure,
    wall_clock,
    wall_clock_measure,
)
from .faults import (
    FaultPlan,
    FaultReport,
    FaultSession,
    PartitionLostError,
    RecoveryPolicy,
    TaskAbandonedError,
)
from .metrics import ExecutionReport
from .network import NetworkModel
from .parallel import (
    ExecutorError,
    ParallelExecutor,
    SideInit,
    WorkerInit,
)
from .partitioner import RandomPartitioner
from .simulator import Cluster, Worker
from .tasks import TaskSpec, pickle_budget, run_task_body

__all__ = [
    "Cluster",
    "ExecutionReport",
    "ExecutorError",
    "FaultPlan",
    "FaultReport",
    "FaultSession",
    "NetworkModel",
    "ParallelExecutor",
    "PartitionLostError",
    "RandomPartitioner",
    "RecoveryPolicy",
    "SideInit",
    "Stopwatch",
    "TaskAbandonedError",
    "TaskSpec",
    "Worker",
    "WorkerInit",
    "make_fixed_cost_measure",
    "pickle_budget",
    "run_task_body",
    "unit_cost_measure",
    "wall_clock",
    "wall_clock_measure",
]
