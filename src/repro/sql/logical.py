"""Logical query plans.

The planner turns parsed statements into a small algebra; the optimizer
rewrites it (constant folding, predicate pushdown, similarity-predicate
extraction) and the physical planner picks index-backed operators when the
catalog has a trie index for the table — mirroring how DITA extends
Catalyst with its own rules and physical strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .ast import Expr, OrderItem


@dataclass(frozen=True)
class LogicalPlan:
    """Base class; concrete nodes below."""

    def children(self) -> Tuple["LogicalPlan", ...]:
        return ()


@dataclass(frozen=True)
class Scan(LogicalPlan):
    """Read a registered trajectory table."""

    table: str
    binding: str  # alias used in expressions


@dataclass(frozen=True)
class Filter(LogicalPlan):
    child: LogicalPlan
    predicate: Expr

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass(frozen=True)
class SimilaritySearch(LogicalPlan):
    """``f(T, <query>) <= tau`` over one table — the index-accelerated
    form.  With ``k`` set it is the nearest ``k`` of those rows ranked by
    ``(distance, id)``: ``ORDER BY f(T, <query>) LIMIT k`` (``tau`` is
    ``inf``) and the capped select ``... <= tau ORDER BY distance LIMIT
    k``."""

    table: str
    binding: str
    function: str            # distance registry name
    query: object            # Trajectory (resolved at planning time)
    tau: float
    residual: Optional[Expr] = None  # remaining non-similarity predicate
    k: Optional[int] = None

    def children(self) -> Tuple[LogicalPlan, ...]:
        return ()


@dataclass(frozen=True)
class SimilarityJoin(LogicalPlan):
    """``T TRA-JOIN Q ON f(T, Q) <= tau``."""

    left: LogicalPlan
    right: LogicalPlan
    function: str
    tau: float
    residual: Optional[Expr] = None

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Project(LogicalPlan):
    child: LogicalPlan
    items: Tuple[Expr, ...]  # empty means SELECT *

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass(frozen=True)
class OrderLimit(LogicalPlan):
    child: LogicalPlan
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)


def explain(plan: LogicalPlan, indent: int = 0) -> str:
    """Human-readable plan tree (the ``EXPLAIN`` output)."""
    pad = "  " * indent
    name = type(plan).__name__
    detail = ""
    if isinstance(plan, Scan):
        detail = f" table={plan.table} as {plan.binding}"
    elif isinstance(plan, SimilaritySearch):
        detail = f" table={plan.table} f={plan.function} tau={plan.tau}"
        if plan.k is not None:
            detail += f" k={plan.k}"
    elif isinstance(plan, SimilarityJoin):
        detail = f" f={plan.function} tau={plan.tau}"
    elif isinstance(plan, Filter):
        detail = f" predicate={plan.predicate}"
    elif isinstance(plan, OrderLimit):
        detail = f" order={len(plan.order_by)} limit={plan.limit}"
    lines = [f"{pad}{name}{detail}"]
    for child in plan.children():
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)
