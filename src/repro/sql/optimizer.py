"""Rule-based optimizations (the Catalyst-extension analogue).

Three rewrite passes run in order:

1. **constant folding** — arithmetic over literals collapses, so
   ``DTW(T, :q) <= 0.001 + 0.004`` plans with ``tau = 0.005``;
2. **similarity extraction** — a WHERE / ON conjunct of the shape
   ``f(<table>, <trajectory>) <= <literal>`` with a registered similarity
   function becomes a :class:`SimilaritySearch` / :class:`SimilarityJoin`
   node; anything else stays as a residual filter;
3. **predicate pushdown** — residual conjuncts referencing a single side of
   a join are pushed below it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.adapters import available_adapters
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
from .tokens import SQLError

# --------------------------------------------------------------------- #
# constant folding
# --------------------------------------------------------------------- #


def fold_constants(expr: Expr) -> Expr:
    """Bottom-up arithmetic folding over literals."""
    if isinstance(expr, BinaryOp):
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        if isinstance(left, Literal) and isinstance(right, Literal):
            a, b = left.value, right.value
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                if expr.op == "+":
                    return Literal(a + b)
                if expr.op == "-":
                    return Literal(a - b)
                if expr.op == "*":
                    return Literal(a * b)
                if expr.op == "/":
                    if b == 0:
                        raise SQLError("division by zero in constant expression")
                    return Literal(a / b)
        return BinaryOp(expr.op, left, right)
    if isinstance(expr, Comparison):
        return Comparison(expr.op, fold_constants(expr.left), fold_constants(expr.right))
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, fold_constants(expr.left), fold_constants(expr.right))
    if isinstance(expr, NotOp):
        return NotOp(fold_constants(expr.operand))
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(fold_constants(a) for a in expr.args))
    return expr


# --------------------------------------------------------------------- #
# conjunct handling
# --------------------------------------------------------------------- #


def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten a predicate into AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BoolOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def join_conjuncts(conjuncts: List[Expr]) -> Optional[Expr]:
    """Re-assemble conjuncts into one predicate (None when empty)."""
    if not conjuncts:
        return None
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = BoolOp("and", out, c)
    return out


def referenced_tables(expr: Expr) -> set:
    """Table bindings mentioned anywhere in ``expr``."""
    out: set = set()
    if isinstance(expr, ColumnRef):
        if expr.table:
            out.add(expr.table)
        else:
            out.add(expr.name)  # a bare identifier may be a table binding
    elif isinstance(expr, (BinaryOp, Comparison, BoolOp)):
        out |= referenced_tables(expr.left)
        out |= referenced_tables(expr.right)
    elif isinstance(expr, NotOp):
        out |= referenced_tables(expr.operand)
    elif isinstance(expr, FunctionCall):
        for a in expr.args:
            out |= referenced_tables(a)
    return out


# --------------------------------------------------------------------- #
# similarity predicate extraction
# --------------------------------------------------------------------- #


def _resolve_trajectory(expr: Expr, params: Dict[str, object]) -> Optional[Trajectory]:
    """Turn a trajectory literal or bound parameter into a Trajectory."""
    if isinstance(expr, TrajectoryLiteral):
        return Trajectory(-1, np.asarray(expr.points, dtype=np.float64))
    if isinstance(expr, Param):
        if expr.name not in params:
            raise SQLError(f"unbound parameter :{expr.name}")
        value = params[expr.name]
        if isinstance(value, Trajectory):
            return value
        return Trajectory(-1, np.asarray(value, dtype=np.float64))
    return None


def _resolve_number(expr: Expr, params: Dict[str, object]) -> Optional[float]:
    if isinstance(expr, Literal) and isinstance(expr.value, (int, float)):
        return float(expr.value)
    if isinstance(expr, Param):
        value = params.get(expr.name)
        if isinstance(value, (int, float)):
            return float(value)
    return None


def extract_search_predicate(
    conjunct: Expr, binding: str, params: Dict[str, object]
) -> Optional[Tuple[str, Trajectory, float]]:
    """Match ``f(<binding>, <traj>) <= tau`` (either argument order).

    Returns ``(function, query, tau)`` or None when the conjunct is not a
    similarity-search predicate for this table.
    """
    if not isinstance(conjunct, Comparison) or conjunct.op not in ("<=", "<"):
        return None
    call = conjunct.left
    tau = _resolve_number(conjunct.right, params)
    if not isinstance(call, FunctionCall) or tau is None:
        return None
    if call.name not in available_adapters() or len(call.args) != 2:
        return None
    a, b = call.args
    table_arg: Optional[Expr] = None
    query_arg: Optional[Expr] = None
    for x, y in ((a, b), (b, a)):
        if isinstance(x, ColumnRef) and x.table is None and x.name == binding:
            table_arg, query_arg = x, y
            break
    if table_arg is None or query_arg is None:
        return None
    query = _resolve_trajectory(query_arg, params)
    if query is None:
        return None
    return call.name, query, tau


def extract_knn_order(
    order_by, limit, binding: str, params: Dict[str, object]
) -> Optional[Tuple[str, Trajectory, int]]:
    """Match ``ORDER BY f(<binding>, <traj>) ASC LIMIT k`` (a single order
    key).  Returns ``(function, query, k)`` when the whole ORDER BY/LIMIT
    can be served by an index kNN scan."""
    if limit is None or limit <= 0 or len(order_by) != 1:
        return None
    item = order_by[0]
    if not item.ascending:
        return None
    call = item.expr
    if not isinstance(call, FunctionCall) or call.name not in available_adapters():
        return None
    if len(call.args) != 2:
        return None
    a, b = call.args
    table_arg = query_arg = None
    for x, y in ((a, b), (b, a)):
        if isinstance(x, ColumnRef) and x.table is None and x.name == binding:
            table_arg, query_arg = x, y
            break
    if table_arg is None:
        return None
    query = _resolve_trajectory(query_arg, params)
    if query is None:
        return None
    return call.name, query, int(limit)


def extract_join_predicate(
    conjunct: Expr, left_binding: str, right_binding: str, params: Dict[str, object]
) -> Optional[Tuple[str, float, bool]]:
    """Match ``f(left, right) <= tau``; returns (function, tau, swapped)."""
    if not isinstance(conjunct, Comparison) or conjunct.op not in ("<=", "<"):
        return None
    call = conjunct.left
    tau = _resolve_number(conjunct.right, params)
    if not isinstance(call, FunctionCall) or tau is None:
        return None
    if call.name not in available_adapters() or len(call.args) != 2:
        return None
    a, b = call.args
    if not (isinstance(a, ColumnRef) and isinstance(b, ColumnRef)):
        return None
    names = (a.name, b.name)
    if names == (left_binding, right_binding):
        return call.name, tau, False
    if names == (right_binding, left_binding):
        return call.name, tau, True
    return None
