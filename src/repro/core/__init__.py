"""DITA core: pivots, bounds, trie index, global index, search and join."""

from .adapters import (
    DTWAdapter,
    EDRAdapter,
    ERPAdapter,
    FilterState,
    FrechetAdapter,
    IndexAdapter,
    LCSSAdapter,
    get_adapter,
)
from .bounds import pamd
from .config import DITAConfig
from .costmodel import BiEdge, OrientationPlan, divide_partitions, orient_edges, plan_join
from .engine import DITAEngine
from .global_index import GlobalIndex, PartitionInfo, partition_info, partition_trajectories
from .join import JoinExecutor, JoinPair
from .knn import knn_join, knn_search, knn_search_batch
from .pivots import available_strategies, indexing_points, pivot_indices
from .search import search_rows
from .trie import FilterStats, TrieIndex
from .verify import VerificationData, Verifier

__all__ = [
    "BiEdge",
    "DITAConfig",
    "DITAEngine",
    "DTWAdapter",
    "EDRAdapter",
    "ERPAdapter",
    "FilterState",
    "FilterStats",
    "FrechetAdapter",
    "GlobalIndex",
    "IndexAdapter",
    "JoinExecutor",
    "JoinPair",
    "LCSSAdapter",
    "OrientationPlan",
    "PartitionInfo",
    "TrieIndex",
    "VerificationData",
    "Verifier",
    "available_strategies",
    "divide_partitions",
    "get_adapter",
    "indexing_points",
    "knn_join",
    "knn_search",
    "knn_search_batch",
    "orient_edges",
    "pamd",
    "partition_info",
    "partition_trajectories",
    "pivot_indices",
    "plan_join",
    "search_rows",
]
