"""Physical operators.

Rows are plain dicts.  A search over table ``t`` yields rows with keys
``{binding}.traj_id``, ``{binding}.trajectory``, ``distance``; a TRA-JOIN
yields both sides' keys plus ``distance``.  Expression evaluation resolves
``ColumnRef`` against those keys (``t.traj_id`` or bare ``traj_id`` when
unambiguous; a bare binding ``t`` is ``t.trajectory``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster.faults import TaskAbandonedError
from ..core.adapters import available_adapters
from ..core.engine import DITAEngine
from ..core.knn import knn_search
from ..distances.base import get_distance
from ..trajectory.trajectory import Trajectory
from .ast import (
    BinaryOp,
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    FunctionCall,
    Literal,
    NotOp,
    Param,
    TrajectoryLiteral,
)
from .catalog import Table
from .tokens import SQLError

Row = Dict[str, object]


# --------------------------------------------------------------------- #
# expression evaluation over rows
# --------------------------------------------------------------------- #


def eval_expr(expr: Expr, row: Row, params: Dict[str, object]) -> object:
    """Evaluate an expression against one row."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Param):
        if expr.name not in params:
            raise SQLError(f"unbound parameter :{expr.name}")
        return params[expr.name]
    if isinstance(expr, TrajectoryLiteral):
        import numpy as np

        return Trajectory(-1, np.asarray(expr.points, dtype=np.float64))
    if isinstance(expr, ColumnRef):
        key = f"{expr.table}.{expr.name}" if expr.table else expr.name
        if key in row:
            return row[key]
        if expr.table is None:
            # a bare table binding (``DTW(t, :q)``) denotes its trajectory
            binding = f"{expr.name}.trajectory"
            if binding in row:
                return row[binding]
            # bare column: unique suffix match
            hits = [k for k in row if k == expr.name or k.endswith("." + expr.name)]
            if len(hits) == 1:
                return row[hits[0]]
            if len(hits) > 1:
                raise SQLError(f"ambiguous column {expr.name!r}: {sorted(hits)}")
        raise SQLError(f"unknown column {key!r}; row has {sorted(row)}")
    if isinstance(expr, BinaryOp):
        left = eval_expr(expr.left, row, params)
        right = eval_expr(expr.right, row, params)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right
        raise SQLError(f"unknown operator {expr.op!r}")
    if isinstance(expr, Comparison):
        left = eval_expr(expr.left, row, params)
        right = eval_expr(expr.right, row, params)
        return {
            "<=": lambda: left <= right,
            "<": lambda: left < right,
            ">=": lambda: left >= right,
            ">": lambda: left > right,
            "=": lambda: left == right,
            "!=": lambda: left != right,
        }[expr.op]()
    if isinstance(expr, BoolOp):
        left = bool(eval_expr(expr.left, row, params))
        if expr.op == "and":
            return left and bool(eval_expr(expr.right, row, params))
        return left or bool(eval_expr(expr.right, row, params))
    if isinstance(expr, NotOp):
        return not bool(eval_expr(expr.operand, row, params))
    if isinstance(expr, FunctionCall):
        args = [eval_expr(a, row, params) for a in expr.args]
        return _eval_function(expr.name, args)
    raise SQLError(f"cannot evaluate expression {expr!r}")


def _eval_function(name: str, args: List[object]) -> object:
    """Scalar functions usable in residual predicates and projections."""
    if name in available_adapters():
        if len(args) != 2:
            raise SQLError(f"{name} takes two trajectories")
        t, q = args
        t_pts = t.points if isinstance(t, Trajectory) else t
        q_pts = q.points if isinstance(q, Trajectory) else q
        return get_distance(name).compute(t_pts, q_pts)
    if name == "length":
        (t,) = args
        return len(t) if isinstance(t, Trajectory) else len(t)
    if name == "abs":
        (x,) = args
        return abs(x)
    raise SQLError(f"unknown function {name!r}")


def expr_name(expr: Expr, index: int) -> str:
    """Output column name for a projection item."""
    if isinstance(expr, ColumnRef):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, FunctionCall):
        return expr.name
    return f"col{index}"


# --------------------------------------------------------------------- #
# physical operators
# --------------------------------------------------------------------- #


class PhysicalOperator:
    """Base operator: ``execute`` yields a list of rows."""

    def execute(self, params: Dict[str, object]) -> List[Row]:
        raise NotImplementedError


def _distributed(call):
    """Run one engine-backed call, translating a distributed task that
    exhausted its retries (fault injection) into a typed SQL error instead
    of leaking the cluster exception through the SQL surface."""
    try:
        return call()
    except TaskAbandonedError as exc:
        raise SQLError(f"distributed execution failed: {exc}") from exc


class FullScan(PhysicalOperator):
    """Unindexed scan of a table's rows as they stand at execution."""

    def __init__(self, table: Table, binding: str) -> None:
        self.table = table
        self.binding = binding

    def execute(self, params: Dict[str, object]) -> List[Row]:
        b = self.binding
        return [
            {f"{b}.traj_id": t.traj_id, f"{b}.trajectory": t}
            for t in self.table.scan()
        ]


class IndexSearch(PhysicalOperator):
    """Trie-index-backed similarity search (the DITA fast path): every row
    within ``tau`` or, with ``k`` set, the nearest ``k`` of them ranked by
    ``(distance, id)``."""

    def __init__(
        self,
        engine: DITAEngine,
        binding: str,
        query: Trajectory,
        tau: float,
        k: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.binding = binding
        self.query = query
        self.tau = tau
        self.k = k

    def _matches(self):
        if self.k is None:
            return self.engine.search_batch([self.query], [self.tau])[0]
        return knn_search(self.engine, self.query, self.k, self.tau)

    def execute(self, params: Dict[str, object]) -> List[Row]:
        b = self.binding
        return [
            {f"{b}.traj_id": t.traj_id, f"{b}.trajectory": t, "distance": d}
            for t, d in _distributed(self._matches)
        ]


class IndexJoin(PhysicalOperator):
    """Trie-index-backed TRA-JOIN."""

    def __init__(
        self,
        left_engine: DITAEngine,
        right_engine: DITAEngine,
        left_binding: str,
        right_binding: str,
        tau: float,
    ) -> None:
        self.left_engine = left_engine
        self.right_engine = right_engine
        self.left_binding = left_binding
        self.right_binding = right_binding
        self.tau = tau

    def execute(self, params: Dict[str, object]) -> List[Row]:
        lb, rb = self.left_binding, self.right_binding
        rows: List[Row] = []
        pairs = _distributed(lambda: self.left_engine.join(self.right_engine, self.tau))
        # materialize row views only for the ids that actually joined
        left_ds = {a: self.left_engine.trajectory(a) for a, _, _ in pairs}
        right_ds = {b: self.right_engine.trajectory(b) for _, b, _ in pairs}
        for a, b, d in pairs:
            rows.append(
                {
                    f"{lb}.traj_id": a,
                    f"{lb}.trajectory": left_ds[a],
                    f"{rb}.traj_id": b,
                    f"{rb}.trajectory": right_ds[b],
                    "distance": d,
                }
            )
        return rows


class FilterOp(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate

    def execute(self, params: Dict[str, object]) -> List[Row]:
        return [
            row for row in self.child.execute(params)
            if bool(eval_expr(self.predicate, row, params))
        ]


def _is_count_star(expr: Expr) -> bool:
    return (
        isinstance(expr, FunctionCall)
        and expr.name == "count"
        and len(expr.args) == 1
        and isinstance(expr.args[0], ColumnRef)
        and expr.args[0].name == "*"
    )


class ProjectOp(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, items) -> None:
        self.child = child
        self.items = tuple(items)

    def execute(self, params: Dict[str, object]) -> List[Row]:
        rows = self.child.execute(params)
        if not self.items:
            return rows
        if any(_is_count_star(e) for e in self.items):
            if not all(_is_count_star(e) for e in self.items):
                raise SQLError("COUNT(*) cannot mix with non-aggregate columns")
            return [{"count": len(rows)}]
        out: List[Row] = []
        for row in rows:
            out.append(
                {
                    expr_name(e, i): eval_expr(e, row, params)
                    for i, e in enumerate(self.items)
                }
            )
        return out


class OrderLimitOp(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, order_by, limit: Optional[int]) -> None:
        self.child = child
        self.order_by = tuple(order_by)
        self.limit = limit

    def execute(self, params: Dict[str, object]) -> List[Row]:
        rows = self.child.execute(params)
        for item in reversed(self.order_by):
            rows.sort(
                key=lambda r, e=item.expr: eval_expr(e, r, params),
                reverse=not item.ascending,
            )
        if self.limit is not None:
            rows = rows[: self.limit]
        return rows
