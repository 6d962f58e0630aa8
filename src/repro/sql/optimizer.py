"""Rule-based optimizations (the Catalyst-extension analogue).

Three rewrite passes run in order:

1. **constant folding** — arithmetic over literals collapses, so
   ``DTW(T, :q) <= 0.001 + 0.004`` plans with ``tau = 0.005``;
2. **similarity extraction** — a WHERE / ON conjunct of the shape
   ``f(<table>, <trajectory>) <= <literal>`` (or a strict ``<``) with a
   registered similarity function becomes a :class:`SimilaritySearch` /
   :class:`SimilarityJoin` node, which also absorbs an ``ORDER BY`` the
   distance ``LIMIT k`` over an otherwise unfiltered table; anything else
   stays as a residual filter;
3. **predicate pushdown** — residual conjuncts referencing a single side of
   a join are pushed below it.
"""

from __future__ import annotations

import math
import numbers
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


def _is_number(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _resolve_number(expr: Expr, params: Dict[str, object]) -> Optional[float]:
    """A threshold literal or bound parameter as a float; None for any
    other expression.  A parameter bound to a ``bool`` or to no real
    number is an ``SQLError`` naming it."""
    if isinstance(expr, Literal) and _is_number(expr.value):
        return float(expr.value)
    if isinstance(expr, Param):
        if expr.name not in params:
            raise SQLError(f"unbound parameter :{expr.name}")
        value = params[expr.name]
        if not _is_number(value):
            raise SQLError(f"parameter :{expr.name} must be a real number, got {value!r}")
        return float(value)
    return None


def _similarity_call(
    expr: Expr, binding: str, params: Dict[str, object]
) -> Optional[Tuple[str, Trajectory]]:
    """Match ``f(<binding>, <traj>)`` (either argument order) for a
    registered similarity function; returns ``(function, query)``."""
    if not isinstance(expr, FunctionCall) or expr.name not in available_adapters():
        return None
    if len(expr.args) != 2:
        return None
    a, b = expr.args
    for x, y in ((a, b), (b, a)):
        if isinstance(x, ColumnRef) and x.table is None and x.name == binding:
            query = _resolve_trajectory(y, params)
            return None if query is None else (expr.name, query)
    return None


def _bound(conjunct: Expr, params: Dict[str, object]) -> Optional[Tuple[Expr, float, bool]]:
    """Split a similarity predicate ``f(a, b) <= tau`` or ``f(a, b) < tau``
    (``f`` a registered distance) into ``(call, tau, strict)``."""
    if not isinstance(conjunct, Comparison) or conjunct.op not in ("<=", "<"):
        return None
    call = conjunct.left
    if not (isinstance(call, FunctionCall) and call.name in available_adapters()):
        return None  # not a similarity predicate: its right side is no tau
    tau = _resolve_number(conjunct.right, params)
    return None if tau is None else (call, tau, conjunct.op == "<")


def strictly_below(tau: float) -> Expr:
    """``distance < tau`` over a similarity operator's own ``distance``
    column: a strict predicate runs the index at ``tau`` and this filter
    drops the rows at exactly ``tau``, recomputing no distance."""
    return Comparison("<", ColumnRef("distance"), Literal(tau))


def extract_similarity_search(
    conjuncts: List[Expr], order_by, limit, binding: str, params: Dict[str, object]
) -> Optional[Tuple[str, Trajectory, float, Optional[int], List[Expr]]]:
    """The index-served part of a single-table SELECT.

    The first conjunct ``f(<binding>, <traj>) <= tau`` (or ``<``) is the
    search.  With no other conjunct, an ``ORDER BY`` of ``distance`` or
    that same call ``ASC LIMIT k`` is served by the search too; with no
    such conjunct, ``ORDER BY f(<binding>, <traj>) ASC LIMIT k`` is the
    search at ``tau = inf``.  Returns ``(function, query, tau, k,
    residual)`` — ``k`` None when a sort stays, ``residual`` the other
    conjuncts plus :func:`strictly_below` for a ``<`` — or None.
    """
    search: Optional[Tuple[str, Trajectory, float, bool]] = None
    call: Optional[Expr] = None  # the expression the search ranks by
    residual: List[Expr] = []
    for c in conjuncts:
        bound = None if search is not None else _bound(c, params)
        match = None if bound is None else _similarity_call(bound[0], binding, params)
        if match is None:
            residual.append(c)
        else:
            call, search = bound[0], match + bound[1:]
    k = None
    if not residual and limit is not None and limit > 0 and len(order_by) == 1 and order_by[0].ascending:
        key = order_by[0].expr
        if search is None:
            match = _similarity_call(key, binding, params)
            if match is not None:
                search, k = match + (math.inf, False), int(limit)
        elif key in (call, ColumnRef("distance")):
            k = int(limit)
    if search is None:
        return None
    function, query, tau, strict = search
    if strict:
        residual.append(strictly_below(tau))
    return function, query, tau, k, residual


def extract_join_predicate(
    conjunct: Expr, left_binding: str, right_binding: str, params: Dict[str, object]
) -> Optional[Tuple[str, float, bool, bool]]:
    """Match ``f(left, right) <= tau`` (or ``< tau``); returns (function,
    tau, swapped, strict)."""
    bound = _bound(conjunct, params)
    if bound is None:
        return None
    call, tau, strict = bound
    if not isinstance(call, FunctionCall):
        return None
    if call.name not in available_adapters() or len(call.args) != 2:
        return None
    a, b = call.args
    if not (isinstance(a, ColumnRef) and isinstance(b, ColumnRef)):
        return None
    names = (a.name, b.name)
    if names == (left_binding, right_binding):
        return call.name, tau, False, strict
    if names == (right_binding, left_binding):
        return call.name, tau, True, strict
    return None
