"""Unit tests for SQL expression evaluation and physical operators."""

import numpy as np
import pytest

from repro.sql.ast import (
    BinaryOp,
    BoolOp,
    ColumnRef,
    Comparison,
    FunctionCall,
    Literal,
    NotOp,
    Param,
    TrajectoryLiteral,
)
from repro.sql.physical import FullScan, eval_expr, expr_name
from repro.sql.tokens import SQLError
from repro.sql.catalog import Table
from repro.storage import ColumnarDataset
from repro.trajectory import Trajectory


ROW = {"t.traj_id": 7, "t.trajectory": Trajectory(7, [(0, 0), (3, 4)]), "distance": 0.5}


class TestEvalExpr:
    def test_literal_and_param(self):
        assert eval_expr(Literal(3.5), ROW, {}) == 3.5
        assert eval_expr(Param("x"), ROW, {"x": 9}) == 9

    def test_unbound_param(self):
        with pytest.raises(SQLError):
            eval_expr(Param("missing"), ROW, {})

    def test_column_qualified(self):
        assert eval_expr(ColumnRef("traj_id", table="t"), ROW, {}) == 7

    def test_column_bare_suffix_match(self):
        assert eval_expr(ColumnRef("traj_id"), ROW, {}) == 7
        assert eval_expr(ColumnRef("distance"), ROW, {}) == 0.5

    def test_column_ambiguous(self):
        row = {"a.x": 1, "b.x": 2}
        with pytest.raises(SQLError):
            eval_expr(ColumnRef("x"), row, {})

    def test_column_unknown(self):
        with pytest.raises(SQLError):
            eval_expr(ColumnRef("nope"), ROW, {})

    def test_arithmetic(self):
        expr = BinaryOp("+", Literal(1.0), BinaryOp("*", Literal(2.0), Literal(3.0)))
        assert eval_expr(expr, ROW, {}) == 7.0
        assert eval_expr(BinaryOp("-", Literal(5.0), Literal(3.0)), ROW, {}) == 2.0
        assert eval_expr(BinaryOp("/", Literal(6.0), Literal(3.0)), ROW, {}) == 2.0

    def test_comparisons(self):
        for op, expected in (("<=", True), ("<", True), (">=", False), (">", False), ("=", False), ("!=", True)):
            assert eval_expr(Comparison(op, Literal(1), Literal(2)), ROW, {}) is expected

    def test_bool_ops(self):
        t = Comparison("<", Literal(1), Literal(2))
        f = Comparison(">", Literal(1), Literal(2))
        assert eval_expr(BoolOp("and", t, t), ROW, {})
        assert not eval_expr(BoolOp("and", t, f), ROW, {})
        assert eval_expr(BoolOp("or", f, t), ROW, {})
        assert eval_expr(NotOp(f), ROW, {})

    def test_distance_function_on_columns(self):
        expr = FunctionCall(
            "dtw",
            (ColumnRef("trajectory", table="t"), TrajectoryLiteral(((0.0, 0.0), (3.0, 4.0)))),
        )
        assert eval_expr(expr, ROW, {}) == pytest.approx(0.0)

    def test_length_function(self):
        expr = FunctionCall("length", (ColumnRef("trajectory", table="t"),))
        assert eval_expr(expr, ROW, {}) == 2

    def test_abs_function(self):
        assert eval_expr(FunctionCall("abs", (Literal(-3.0),)), ROW, {}) == 3.0

    def test_unknown_function(self):
        with pytest.raises(SQLError):
            eval_expr(FunctionCall("median", (Literal(1.0),)), ROW, {})


class TestExprName:
    def test_column(self):
        assert expr_name(ColumnRef("traj_id", table="t"), 0) == "t.traj_id"
        assert expr_name(ColumnRef("distance"), 0) == "distance"

    def test_function(self):
        assert expr_name(FunctionCall("dtw", ()), 0) == "dtw"

    def test_fallback(self):
        assert expr_name(Literal(1.0), 3) == "col3"


class TestFullScan:
    def test_rows(self):
        ds = ColumnarDataset.from_trajectories([Trajectory(1, [(0, 0)]), Trajectory(2, [(1, 1)])])
        rows = FullScan(Table("x", ds), "x").execute({})
        assert [r["x.traj_id"] for r in rows] == [1, 2]
        assert isinstance(rows[0]["x.trajectory"], Trajectory)
