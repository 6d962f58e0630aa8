"""repro.serving — deterministic multi-tenant serving over the engine.

Admission control (token buckets + shedding), weighted fair queuing,
cost-based scheduling fed by EXPLAIN ANALYZE spans, and mutation-safe
result/candidate caches keyed on the engine's generation counter.
See docs/SERVING.md.
"""

from .admission import (
    AdmissionController,
    AdmissionError,
    QueueFullError,
    RateLimitedError,
    TokenBucket,
)
from .cache import CandidateCache, ResultCache, snapshot_footprint
from .scheduler import CostScheduler, FairQueue
from .server import Outcome, Request, ServingLayer, canonical_result

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "CandidateCache",
    "CostScheduler",
    "FairQueue",
    "Outcome",
    "QueueFullError",
    "RateLimitedError",
    "Request",
    "ResultCache",
    "ServingLayer",
    "TokenBucket",
    "canonical_result",
    "snapshot_footprint",
]
