"""Tests for the SQL front end: lexer, parser, optimizer, execution."""

import numpy as np
import pytest

from conftest import brute_force_join, brute_force_search
from repro.core.config import DITAConfig
from repro.datagen import beijing_like, sample_queries
from repro.distances import get_distance
from repro.sql import DITASession, SQLError, parse, tokenize
from repro.sql.ast import (
    BinaryOp,
    Comparison,
    CreateIndex,
    FunctionCall,
    Literal,
    Select,
    TrajectoryLiteral,
)
from repro.sql.optimizer import fold_constants, split_conjuncts
from repro.sql.tokens import TokenType
from repro.trajectory import Trajectory


class TestLexer:
    def test_basic_tokens(self):
        toks = tokenize("SELECT * FROM t WHERE x <= 0.5")
        types = [t.type for t in toks]
        assert types[:4] == [TokenType.SELECT, TokenType.STAR, TokenType.FROM, TokenType.IDENT]
        assert TokenType.LE in types
        assert types[-1] == TokenType.EOF

    def test_tra_join_keyword(self):
        toks = tokenize("a TRA-JOIN b")
        assert [t.type for t in toks[:3]] == [TokenType.IDENT, TokenType.TRA_JOIN, TokenType.IDENT]

    def test_tra_join_case_insensitive(self):
        assert tokenize("tra-join")[0].type == TokenType.TRA_JOIN

    def test_scientific_number(self):
        tok = tokenize("1.5e-3")[0]
        assert tok.type == TokenType.NUMBER
        assert float(tok.value) == 1.5e-3

    def test_param(self):
        tok = tokenize(":query")[0]
        assert tok.type == TokenType.PARAM
        assert tok.value == "query"

    def test_string_literal(self):
        tok = tokenize("'hello'")[0]
        assert tok.type == TokenType.STRING and tok.value == "hello"

    def test_unterminated_string(self):
        with pytest.raises(SQLError):
            tokenize("'abc")

    def test_empty_param(self):
        with pytest.raises(SQLError):
            tokenize(":")

    def test_unexpected_character(self):
        with pytest.raises(SQLError):
            tokenize("SELECT #")

    def test_comparison_operators(self):
        toks = tokenize("<= < >= > = != <>")
        types = [t.type for t in toks[:-1]]
        assert types == [
            TokenType.LE,
            TokenType.LT,
            TokenType.GE,
            TokenType.GT,
            TokenType.EQ,
            TokenType.NE,
            TokenType.NE,
        ]


class TestParser:
    def test_create_index(self):
        stmt = parse("CREATE INDEX myidx ON taxi USE TRIE")
        assert isinstance(stmt, CreateIndex)
        assert stmt.index_name == "myidx"
        assert stmt.table == "taxi"

    def test_select_star_where(self):
        stmt = parse("SELECT * FROM t WHERE DTW(t, :q) <= 0.005")
        assert isinstance(stmt, Select)
        assert stmt.items == ()
        assert isinstance(stmt.where, Comparison)
        assert isinstance(stmt.where.left, FunctionCall)
        assert stmt.where.left.name == "dtw"

    def test_tra_join(self):
        stmt = parse("SELECT * FROM a TRA-JOIN b ON DTW(a, b) <= 0.1")
        assert stmt.join_table.name == "b"
        assert isinstance(stmt.join_condition, Comparison)

    def test_aliases(self):
        stmt = parse("SELECT * FROM taxi AS x TRA-JOIN taxi y ON DTW(x, y) <= 0.1")
        assert stmt.table.binding == "x"
        assert stmt.join_table.binding == "y"

    def test_trajectory_literal(self):
        stmt = parse("SELECT * FROM t WHERE DTW(t, [(1, 2), (3, 4)]) <= 1")
        lit = stmt.where.left.args[1]
        assert isinstance(lit, TrajectoryLiteral)
        assert lit.points == ((1.0, 2.0), (3.0, 4.0))

    def test_negative_coordinates(self):
        stmt = parse("SELECT * FROM t WHERE DTW(t, [(-1, -2.5)]) <= 1")
        assert stmt.where.left.args[1].points == ((-1.0, -2.5),)

    def test_order_by_limit(self):
        stmt = parse("SELECT * FROM t WHERE DTW(t, :q) <= 1 ORDER BY distance DESC LIMIT 3")
        assert stmt.limit == 3
        assert not stmt.order_by[0].ascending

    @pytest.mark.parametrize("count", ["2.5", "1e3"])
    def test_limit_rejects_a_non_integer(self, count):
        with pytest.raises(SQLError, match="LIMIT"):
            parse(f"SELECT * FROM t LIMIT {count}")

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT * FROM t WHERE x <= 1 + 2 * 3")
        rhs = stmt.where.right
        assert isinstance(rhs, BinaryOp) and rhs.op == "+"

    def test_garbage_rejected(self):
        with pytest.raises(SQLError):
            parse("DELETE FROM t")
        with pytest.raises(SQLError):
            parse("SELECT * FROM")
        with pytest.raises(SQLError):
            parse("SELECT * FROM t extra tokens (")


class TestOptimizer:
    def test_fold_constants(self):
        stmt = parse("SELECT * FROM t WHERE DTW(t, :q) <= 0.001 + 0.004")
        folded = fold_constants(stmt.where)
        assert isinstance(folded.right, Literal)
        assert folded.right.value == pytest.approx(0.005)

    def test_fold_nested(self):
        stmt = parse("SELECT * FROM t WHERE x <= (2 + 3) * 4 - 10 / 2")
        folded = fold_constants(stmt.where)
        assert folded.right.value == pytest.approx(15.0)

    def test_division_by_zero(self):
        stmt = parse("SELECT * FROM t WHERE x <= 1 / 0")
        with pytest.raises(SQLError):
            fold_constants(stmt.where)

    def test_split_conjuncts(self):
        stmt = parse("SELECT * FROM t WHERE a <= 1 AND b <= 2 AND c <= 3")
        assert len(split_conjuncts(stmt.where)) == 3


@pytest.fixture(scope="module")
def session():
    data = beijing_like(100, seed=77)
    s = DITASession(DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3))
    s.register("taxi", data)
    return s, data


class TestExecution:
    def test_create_index_and_search(self, session):
        s, data = session
        s.sql("CREATE INDEX idx ON taxi USE TRIE")
        assert s.catalog.get("taxi").is_indexed
        q = sample_queries(data, 1, seed=3)[0]
        rows = s.sql("SELECT * FROM taxi WHERE DTW(taxi, :q) <= 0.003", params={"q": q})
        d = get_distance("dtw")
        want = brute_force_search(data, d, q, 0.003)
        assert sorted(r["taxi.traj_id"] for r in rows) == want

    def test_search_without_explicit_index(self, session):
        """The planner builds the index lazily when missing."""
        s, data = session
        q = sample_queries(data, 1, seed=5)[0]
        rows = s.sql("SELECT * FROM taxi WHERE frechet(taxi, :q) <= 0.001", params={"q": q})
        d = get_distance("frechet")
        assert sorted(r["taxi.traj_id"] for r in rows) == brute_force_search(data, d, q, 0.001)

    def test_join_matches_brute_force(self, session):
        s, data = session
        rows = s.sql(
            "SELECT a.traj_id, b.traj_id FROM taxi a TRA-JOIN taxi b ON DTW(a, b) <= 0.002"
        )
        d = get_distance("dtw")
        got = sorted((r["a.traj_id"], r["b.traj_id"]) for r in rows)
        assert got == brute_force_join(data, data, d, 0.002)

    def test_projection_and_residual_filter(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=3)[0]
        rows = s.sql(
            "SELECT traj_id, distance FROM taxi "
            "WHERE DTW(taxi, :q) <= 0.005 AND traj_id != :self_id",
            params={"q": q, "self_id": -999},
        )
        for r in rows:
            assert set(r) == {"traj_id", "distance"}

    def test_order_by_limit(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=3)[0]
        rows = s.sql(
            "SELECT traj_id, distance FROM taxi WHERE DTW(taxi, :q) <= 0.005 "
            "ORDER BY distance LIMIT 2",
            params={"q": q},
        )
        assert len(rows) <= 2
        dists = [r["distance"] for r in rows]
        assert dists == sorted(dists)

    def test_unbound_param(self, session):
        s, _ = session
        with pytest.raises(SQLError):
            s.sql("SELECT * FROM taxi WHERE DTW(taxi, :missing) <= 0.001")

    def test_unknown_table(self, session):
        s, _ = session
        q = Trajectory(-1, [(0, 0), (1, 1)])
        with pytest.raises(SQLError):
            s.sql("SELECT * FROM nope WHERE DTW(nope, :q) <= 1", params={"q": q})

    def test_join_requires_similarity_predicate(self, session):
        s, _ = session
        with pytest.raises(SQLError):
            s.sql("SELECT * FROM taxi a TRA-JOIN taxi b ON a.traj_id = b.traj_id")

    def test_explain_shows_index_plan(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=3)[0]
        text = s.explain("SELECT * FROM taxi WHERE DTW(taxi, :q) <= 0.005", params={"q": q})
        assert "SimilaritySearch" in text

    def test_full_scan_fallback(self, session):
        s, data = session
        rows = s.sql("SELECT traj_id FROM taxi WHERE traj_id < 5")
        assert sorted(r["traj_id"] for r in rows) == [0, 1, 2, 3, 4]

    def test_duplicate_registration_rejected(self, session):
        s, data = session
        with pytest.raises(SQLError):
            s.register("taxi", data)


class TestDataFrame:
    def test_similarity_search(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=9)[0]
        rows = s.table("taxi").similarity_search(q, 0.003).collect()
        d = get_distance("dtw")
        assert sorted(r["taxi.traj_id"] for r in rows) == brute_force_search(data, d, q, 0.003)

    def test_chained_pipeline(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=9)[0]
        rows = (
            s.table("taxi")
            .similarity_search(q, 0.005)
            .where(lambda r: r["distance"] >= 0)
            .select("traj_id", "distance")
            .order_by("distance")
            .limit(3)
            .collect()
        )
        assert len(rows) <= 3
        assert all(set(r) == {"traj_id", "distance"} for r in rows)

    @pytest.mark.parametrize("n", [-1, 2.5, True, "3", None])
    def test_limit_rejects_what_is_not_a_count(self, session, n):
        """Regression: limit(-1) sliced rows[:-1] and answered all but one
        row; limit(2.5) escaped as a bare TypeError from slicing."""
        s, _ = session
        with pytest.raises(ValueError, match="n must be an int >= 0"):
            s.table("taxi").limit(n)

    def test_limit_takes_any_integral_count(self, session):
        s, data = session
        assert s.table("taxi").limit(0).collect() == []
        assert len(s.table("taxi").limit(np.int64(3)).collect()) == 3
        assert len(s.table("taxi").limit(len(data) + 5).collect()) == len(data)

    def test_sql_limit_rejects_a_non_integer(self, session):
        s, _ = session
        with pytest.raises(SQLError, match="LIMIT"):
            s.sql("SELECT * FROM taxi LIMIT 2.5")

    def test_tra_join(self, session):
        s, data = session
        rows = s.table("taxi").tra_join(s.table("taxi"), 0.002).collect()
        d = get_distance("dtw")
        got = sorted((r["taxi.traj_id"], r["taxi.traj_id"]) for r in rows)
        assert len(rows) == len(brute_force_join(data, data, d, 0.002))

    def test_count(self, session):
        s, data = session
        assert s.table("taxi").count() == len(data)

    def test_unknown_column(self, session):
        s, _ = session
        with pytest.raises(SQLError):
            s.table("taxi").select("bogus").collect()


class TestDataFrameKNN:
    def test_knn_rows_sorted_and_exact(self, session):
        s, data = session
        from repro.core.knn import knn_search

        q = sample_queries(data, 1, seed=21, perturb=0.0004)[0]
        rows = s.table("taxi").knn(q, 4).collect()
        assert len(rows) == 4
        dists = [r["distance"] for r in rows]
        assert dists == sorted(dists)
        engine = s.catalog.engine_for("taxi", "dtw")
        want = [t.traj_id for t, _ in knn_search(engine, q, 4)]
        assert [r["taxi.traj_id"] for r in rows] == want

    def test_knn_composes_with_select(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=22)[0]
        rows = s.table("taxi").knn(q, 3).select("traj_id", "distance").collect()
        assert all(set(r) == {"traj_id", "distance"} for r in rows)


class TestKnnSQLRewrite:
    def test_order_by_distance_limit_rewrites(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=31, perturb=0.0003)[0]
        plan = s.explain(
            "SELECT traj_id, distance FROM taxi ORDER BY DTW(taxi, :q) LIMIT 3",
            params={"q": q},
        )
        assert "SimilaritySearch table=taxi f=dtw tau=inf k=3" in plan
        assert "OrderLimit" not in plan

    def test_knn_sql_matches_knn_search(self, session):
        from repro.core.knn import knn_search

        s, data = session
        q = sample_queries(data, 1, seed=32, perturb=0.0003)[0]
        rows = s.sql(
            "SELECT traj_id, distance FROM taxi ORDER BY DTW(taxi, :q) LIMIT 5",
            params={"q": q},
        )
        engine = s.catalog.engine_for("taxi", "dtw")
        want = [t.traj_id for t, _ in knn_search(engine, q, 5)]
        assert [r["traj_id"] for r in rows] == want

    def test_descending_not_rewritten(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=33)[0]
        plan = s.explain(
            "SELECT traj_id FROM taxi ORDER BY DTW(taxi, :q) DESC LIMIT 3",
            params={"q": q},
        )
        assert "k=" not in plan and "OrderLimit" in plan

    def test_no_limit_not_rewritten(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=34)[0]
        plan = s.explain(
            "SELECT traj_id FROM taxi ORDER BY DTW(taxi, :q)", params={"q": q}
        )
        assert "k=" not in plan and "OrderLimit" in plan

    def test_residual_where_blocks_rewrite(self, session):
        """A residual WHERE keeps the fallback plan (kNN after filtering
        would change semantics)."""
        s, data = session
        q = sample_queries(data, 1, seed=35)[0]
        plan = s.explain(
            "SELECT traj_id FROM taxi WHERE traj_id < 50 "
            "ORDER BY DTW(taxi, :q) LIMIT 3",
            params={"q": q},
        )
        assert "k=" not in plan and "OrderLimit" in plan


class TestCountStar:
    def test_count_all(self, session):
        s, data = session
        assert s.sql("SELECT COUNT(*) FROM taxi") == [{"count": len(data)}]

    def test_count_with_similarity(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=41)[0]
        rows = s.sql("SELECT COUNT(*) FROM taxi WHERE DTW(taxi, :q) <= 0.005", params={"q": q})
        d = get_distance("dtw")
        assert rows == [{"count": len(brute_force_search(data, d, q, 0.005))}]

    def test_count_mixed_rejected(self, session):
        s, _ = session
        with pytest.raises(SQLError):
            s.sql("SELECT COUNT(*), traj_id FROM taxi")


class TestExplainStatement:
    def test_parse_explain(self):
        from repro.sql.ast import Explain

        stmt = parse("EXPLAIN SELECT * FROM t")
        assert isinstance(stmt, Explain)
        assert not stmt.analyze
        assert isinstance(stmt.statement, Select)

    def test_parse_explain_analyze(self):
        from repro.sql.ast import Explain

        stmt = parse("EXPLAIN ANALYZE SELECT * FROM t")
        assert isinstance(stmt, Explain)
        assert stmt.analyze

    def test_parse_explain_create(self):
        from repro.sql.ast import Explain

        stmt = parse("EXPLAIN CREATE INDEX i ON t USE TRIE")
        assert isinstance(stmt, Explain)
        assert isinstance(stmt.statement, CreateIndex)

    def test_explain_without_statement_rejected(self):
        with pytest.raises(SQLError):
            parse("EXPLAIN")

    def test_sql_explain_returns_plan_rows(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=1)[0]
        rows = s.sql(
            "EXPLAIN SELECT * FROM taxi WHERE DTW(taxi, :q) <= 0.01",
            params={"q": q},
        )
        text = "\n".join(r["plan"] for r in rows)
        assert "SimilaritySearch" in text

    def test_explain_analyze_create_rejected(self, session):
        s, _ = session
        with pytest.raises(SQLError):
            s.sql("EXPLAIN ANALYZE CREATE INDEX i2 ON taxi USE TRIE")


class TestExplainAnalyze:
    def test_search_breakdown_and_rows(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=1)[0]
        res = s.explain_analyze(
            "SELECT * FROM taxi WHERE DTW(taxi, :q) <= 0.01", params={"q": q}
        )
        direct = s.sql(
            "SELECT * FROM taxi WHERE DTW(taxi, :q) <= 0.01", params={"q": q}
        )
        assert len(res.rows) == len(direct)
        assert "SimilaritySearch" in res.text
        assert "search.partition" in res.text
        assert f"rows: {len(direct)}" in res.text

    def test_join_breakdown_reconciles_with_report(self, session):
        """The acceptance criterion: the per-stage totals of an EXPLAIN
        ANALYZE'd TRA-JOIN reconcile with the ExecutionReport of the same
        run."""
        from repro.obs import stage_rows, worker_span_seconds

        s, _ = session
        res = s.explain_analyze(
            "SELECT a.traj_id, b.traj_id, distance "
            "FROM taxi a TRA-JOIN taxi b ON DTW(a, b) <= 0.005"
        )
        assert res.rows  # the join produced pairs
        rows = stage_rows(res.spans)
        accounted = sum(r["seconds"] for r in rows if r["indent"] == 0)
        busy_total = sum(res.report.worker_times.values())
        assert accounted == pytest.approx(busy_total, abs=1e-9)
        per_worker = worker_span_seconds(res.spans)
        for wid, busy in res.report.worker_times.items():
            assert per_worker.get(wid, 0.0) == pytest.approx(busy, abs=1e-9)
        # the registry agrees with the row count
        assert res.registry.value("join.result_pairs") == len(res.rows)
        assert "join.chunk" in res.text

    def test_explain_analyze_accepts_prefixed_text(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=1)[0]
        a = s.explain_analyze(
            "EXPLAIN ANALYZE SELECT * FROM taxi WHERE DTW(taxi, :q) <= 0.01",
            params={"q": q},
        )
        b = s.explain_analyze(
            "SELECT * FROM taxi WHERE DTW(taxi, :q) <= 0.01", params={"q": q}
        )
        assert a.text == b.text

    def test_scan_without_index_still_reports(self, session):
        s, _ = session
        res = s.explain_analyze("SELECT * FROM taxi LIMIT 3")
        assert len(res.rows) == 3
        assert res.report.worker_times == {}

    def test_sql_explain_analyze_returns_text_rows(self, session):
        s, data = session
        q = sample_queries(data, 1, seed=1)[0]
        rows = s.sql(
            "EXPLAIN ANALYZE SELECT * FROM taxi WHERE DTW(taxi, :q) <= 0.01",
            params={"q": q},
        )
        text = "\n".join(r["plan"] for r in rows)
        assert "accounted" in text and "report:" in text


# --------------------------------------------------------------------- #
# one similarity operator: strict predicates and the capped select
# --------------------------------------------------------------------- #


def _ranked_within(engine, data, query, tau, k, strict=False):
    """The brute-force capped select: every row's ``exact_batch`` value
    (the one the index reports) within ``tau``, ranked by ``(distance,
    id)``, cut at ``k``."""
    import math

    trajs = list(data)
    dists = engine.adapter.exact_batch(
        [t.points for t in trajs], [query.points] * len(trajs), [math.inf] * len(trajs)
    )
    inside = [(d, t.traj_id) for d, t in zip(dists, trajs) if (d < tau if strict else d <= tau)]
    return [(i, d) for d, i in sorted(inside)[:k]]


@pytest.fixture(scope="module")
def indexed():
    data = beijing_like(200, seed=3)
    s = DITASession(DITAConfig(num_global_partitions=3, trie_fanout=4, num_pivots=3))
    s.register("t", data)
    s.sql("CREATE INDEX t_idx ON t USE TRIE")
    return s, data


class TestStrictPredicate:
    """``<`` is strict: the index runs at ``tau`` and the rows at exactly
    ``tau`` are dropped."""

    def test_search_below_zero_is_empty(self, indexed):
        s, data = indexed
        rows = s.sql("SELECT traj_id, distance FROM t WHERE DTW(t, :q) < 0", params={"q": data[5]})
        assert rows == []
        rows = s.sql("SELECT traj_id, distance FROM t WHERE DTW(t, :q) <= 0", params={"q": data[5]})
        assert [r["traj_id"] for r in rows] == [5]

    def test_search_drops_rows_at_exactly_tau(self, indexed):
        s, data = indexed
        engine = s.catalog.engine_for("t", "dtw")
        q = sample_queries(data, 1, seed=12, perturb=0.0003)[0]
        near = _ranked_within(engine, data, q, float("inf"), 6)
        tau = near[-1][1]  # the 6th nearest sits at exactly tau
        rows = s.sql("SELECT traj_id, distance FROM t WHERE DTW(t, :q) < :tau", params={"q": q, "tau": tau})
        got = sorted((r["traj_id"], r["distance"]) for r in rows)
        assert got == sorted(_ranked_within(engine, data, q, tau, len(data), strict=True))
        assert near[-1][0] not in {i for i, _ in got}

    def test_join_below_zero_is_empty(self, indexed):
        s, _ = indexed
        assert s.sql("SELECT a.traj_id, b.traj_id FROM t a TRA-JOIN t b ON DTW(a, b) < 0") == []
        pairs = s.sql("SELECT a.traj_id, b.traj_id FROM t a TRA-JOIN t b ON DTW(a, b) <= 0")
        assert len(pairs) >= 200  # every self-pair sits at exactly 0

    def test_capped_select_below_tau(self, indexed):
        s, data = indexed
        engine = s.catalog.engine_for("t", "dtw")
        q = sample_queries(data, 1, seed=13, perturb=0.0003)[0]
        tau = _ranked_within(engine, data, q, float("inf"), 4)[-1][1]
        text = "SELECT traj_id, distance FROM t WHERE DTW(t, :q) < :tau ORDER BY distance LIMIT {k}"
        for k in (2, 3, 4, 10):
            rows = s.sql(text.format(k=k), params={"q": q, "tau": tau})
            want = _ranked_within(engine, data, q, tau, k, strict=True)
            assert [(r["traj_id"], r["distance"]) for r in rows] == want, k
        assert s.sql(text.format(k=5), params={"q": data[5], "tau": 0}) == []


CAPPED = "SELECT traj_id, distance FROM t WHERE DTW(t, :q) <= :tau ORDER BY {key} LIMIT {k}"


class TestCappedSelect:
    """``WHERE f(t, :q) <= tau ORDER BY distance LIMIT k`` plans as one
    ``SimilaritySearch`` carrying ``tau`` and ``k`` and returns the
    brute-force top ``k`` within ``tau``, ranked by ``(distance, id)``."""

    @pytest.mark.parametrize("key", ["distance", "DTW(t, :q)", "distance ASC"])
    def test_plans_as_one_operator(self, indexed, key):
        s, data = indexed
        plan = s.explain(CAPPED.format(key=key, k=7), params={"q": data[1], "tau": 0.004})
        assert "SimilaritySearch table=t f=dtw tau=0.004 k=7" in plan
        assert "OrderLimit" not in plan

    @pytest.mark.parametrize("tau,k", [(0.0008, 50), (0.003, 5), (0.01, 10), (1e9, 1000)])
    def test_matches_brute_force(self, indexed, tau, k):
        """Fewer rows than ``k`` within ``tau``, more, and ``k`` past the
        whole table."""
        s, data = indexed
        engine = s.catalog.engine_for("t", "dtw")
        sizes = []
        for q in sample_queries(data, 3, seed=14, perturb=0.0003):
            rows = s.sql(CAPPED.format(key="distance", k=k), params={"q": q, "tau": tau})
            assert [(r["traj_id"], r["distance"]) for r in rows] == _ranked_within(
                engine, data, q, tau, k
            )
            sizes.append(len(rows))
        if k == 50:
            assert max(sizes) < k  # fewer rows within tau than asked for
        if k == 1000:
            assert sizes == [len(data)] * 3

    def test_kth_tie_straddling_partitions_goes_to_the_smaller_id(self):
        """Three copies of one trip, the largest id in the first partition
        and the two smaller ones in the last: the top 2 are the two
        smallest ids, wherever they live."""
        from repro.core.engine import DITAEngine
        from repro.storage.columnar import ColumnarDataset

        rows = list(beijing_like(60, seed=8))
        src = rows[0]
        parts = {
            0: [Trajectory(900, src.points.copy())] + rows[1:20],
            1: rows[20:40],
            2: rows[40:] + [Trajectory(500, src.points.copy()), Trajectory(400, src.points.copy())],
        }
        config = DITAConfig(num_global_partitions=3, trie_fanout=4, num_pivots=3, trie_leaf_capacity=4)
        engine = DITAEngine.from_partitions(
            {pid: ColumnarDataset.from_trajectories(p) for pid, p in parts.items()}, config
        )
        data = [t for p in parts.values() for t in p]
        s = DITASession(config)
        s.register("t", ColumnarDataset.from_trajectories(data))
        s.catalog.get("t").engine = engine
        q = Trajectory(10_000, src.points + 1e-5)
        for k in (1, 2, 3, 5):
            rows = s.sql(CAPPED.format(key="distance", k=k), params={"q": q, "tau": 0.01})
            assert [(r["traj_id"], r["distance"]) for r in rows] == _ranked_within(
                engine, data, q, 0.01, k
            ), k
        rows = s.sql(CAPPED.format(key="distance", k=2), params={"q": q, "tau": 0.01})
        assert [r["traj_id"] for r in rows] == [400, 500]

    def test_residual_conjunct_blocks_the_rewrite(self, indexed):
        s, data = indexed
        engine = s.catalog.engine_for("t", "dtw")
        q = sample_queries(data, 1, seed=15, perturb=0.0003)[0]
        text = (
            "SELECT traj_id, distance FROM t WHERE DTW(t, :q) <= 0.01 AND traj_id >= 50 "
            "ORDER BY distance LIMIT 4"
        )
        plan = s.explain(text, params={"q": q})
        assert "k=" not in plan and "OrderLimit" in plan
        rows = s.sql(text, params={"q": q})
        want = [(i, d) for i, d in _ranked_within(engine, data, q, 0.01, len(data)) if i >= 50][:4]
        assert [(r["traj_id"], r["distance"]) for r in rows] == want

    @pytest.mark.parametrize("tail", ["ORDER BY distance DESC LIMIT 4", "ORDER BY distance"])
    def test_desc_and_no_limit_keep_the_sort(self, indexed, tail):
        s, data = indexed
        engine = s.catalog.engine_for("t", "dtw")
        q = sample_queries(data, 1, seed=16, perturb=0.0003)[0]
        text = f"SELECT traj_id, distance FROM t WHERE DTW(t, :q) <= 0.01 {tail}"
        plan = s.explain(text, params={"q": q})
        assert "k=" not in plan and "OrderLimit" in plan
        dists = [r["distance"] for r in s.sql(text, params={"q": q})]
        want = [d for _, d in _ranked_within(engine, data, q, 0.01, len(data))]
        if "DESC" in tail:
            want = sorted(want, reverse=True)[:4]
        assert dists == want
