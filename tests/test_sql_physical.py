"""Unit tests for SQL expression evaluation and physical operators."""

import numpy as np
import pytest

from repro.core.config import DITAConfig
from repro.datagen import beijing_like, sample_queries
from repro.distances import get_distance
from repro.sql import DITASession
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

    def test_bare_binding_resolves_to_its_trajectory(self):
        assert eval_expr(ColumnRef("t"), ROW, {}) is ROW["t.trajectory"]

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


# --------------------------------------------------------------------- #
# a similarity function over a bare table binding, outside the two shapes
# the optimizer extracts (WHERE f(t, :q) <= tau and ORDER BY ... ASC LIMIT k)
# --------------------------------------------------------------------- #

TAU = 0.01


@pytest.fixture(scope="module")
def bound_table():
    data = beijing_like(60, seed=21)
    session = DITASession(DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3))
    session.register("t", data)
    query = sample_queries(data, 1, seed=2)[0]
    dtw = get_distance("dtw")
    dist = {t.traj_id: dtw.compute(t.points, query.points) for t in data}
    return session, query, dist


def _ranked(dist, descending=False):
    """Ids by distance, ties by id (the scan's row order)."""
    sign = -1.0 if descending else 1.0
    return [i for i, _ in sorted(dist.items(), key=lambda kv: (sign * kv[1], kv[0]))]


class TestBareBindingInExpressions:
    def test_projected_distance(self, bound_table):
        s, q, dist = bound_table
        rows = s.sql(
            "SELECT traj_id, DTW(t, :q) FROM t WHERE DTW(t, :q) <= 0.01", params={"q": q}
        )
        want = {i: d for i, d in dist.items() if d <= TAU}
        assert want
        assert {r["traj_id"]: r["dtw"] for r in rows} == want

    def test_residual_conjunct(self, bound_table):
        s, q, dist = bound_table
        rows = s.sql(
            "SELECT traj_id FROM t WHERE DTW(t, :q) <= 0.01 AND DTW(t, :q) >= 0",
            params={"q": q},
        )
        assert sorted(r["traj_id"] for r in rows) == sorted(i for i, d in dist.items() if d <= TAU)

    def test_order_desc_limit(self, bound_table):
        s, q, dist = bound_table
        rows = s.sql("SELECT traj_id FROM t ORDER BY DTW(t, :q) DESC LIMIT 3", params={"q": q})
        assert [r["traj_id"] for r in rows] == _ranked(dist, descending=True)[:3]

    def test_order_without_limit(self, bound_table):
        s, q, dist = bound_table
        rows = s.sql("SELECT traj_id FROM t ORDER BY DTW(t, :q)", params={"q": q})
        assert [r["traj_id"] for r in rows] == _ranked(dist)

    def test_order_limit_zero(self, bound_table):
        s, q, _ = bound_table
        assert s.sql("SELECT traj_id FROM t ORDER BY DTW(t, :q) LIMIT 0", params={"q": q}) == []

    def test_search_ordered_by_function_matches_order_by_distance(self, bound_table):
        s, q, dist = bound_table
        by_function = s.sql(
            "SELECT traj_id FROM t WHERE DTW(t, :q) <= 0.01 ORDER BY DTW(t, :q) LIMIT 3",
            params={"q": q},
        )
        by_distance = s.sql(
            "SELECT traj_id FROM t WHERE DTW(t, :q) <= 0.01 ORDER BY distance LIMIT 3",
            params={"q": q},
        )
        assert [r["traj_id"] for r in by_function] == [r["traj_id"] for r in by_distance]
        assert [r["traj_id"] for r in by_function] == [
            i for i in _ranked(dist) if dist[i] <= TAU
        ][:3]

    def test_join_projection(self, bound_table):
        s, _, _ = bound_table
        data = list(s.catalog.get("t").scan())
        dtw = get_distance("dtw")
        want = {
            (a.traj_id, b.traj_id): d
            for a in data
            for b in data
            if (d := dtw.compute(a.points, b.points)) <= 0.002
        }
        rows = s.sql("SELECT a.traj_id, b.traj_id, DTW(a, b) FROM t a TRA-JOIN t b ON DTW(a, b) <= 0.002")
        assert {(r["a.traj_id"], r["b.traj_id"]): r["dtw"] for r in rows} == want
