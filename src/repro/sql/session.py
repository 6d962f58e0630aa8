"""The DITA session: SQL front end over the engine (Section 3).

``DITASession`` owns a catalog of trajectory tables, parses/optimizes/
executes the extended SQL, and exposes the DataFrame API through
:meth:`table`.

Example::

    session = DITASession()
    session.register("taxi", dataset)
    session.sql("CREATE INDEX taxi_idx ON taxi USE TRIE")
    rows = session.sql(
        "SELECT * FROM taxi WHERE DTW(taxi, :q) <= 0.005", params={"q": query}
    )
    pairs = session.sql(
        "SELECT a.traj_id, b.traj_id, distance "
        "FROM taxi a TRA-JOIN taxi b ON DTW(a, b) <= 0.002"
    )
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cluster.metrics import ExecutionReport
from ..core.config import DITAConfig
from ..obs import MetricsRegistry, Span, format_breakdown
from ..storage.columnar import ColumnarDataset
from .ast import CreateIndex, Explain, Expr, Select
from .catalog import Catalog
from .logical import (
    Filter,
    LogicalPlan,
    OrderLimit,
    Project,
    Scan,
    SimilarityJoin,
    SimilaritySearch,
    explain as explain_plan,
)
from .optimizer import (
    extract_join_predicate,
    extract_similarity_search,
    fold_constants,
    join_conjuncts,
    referenced_tables,
    split_conjuncts,
    strictly_below,
)
from .parser import parse
from .physical import (
    FilterOp,
    FullScan,
    IndexJoin,
    IndexSearch,
    OrderLimitOp,
    PhysicalOperator,
    ProjectOp,
    Row,
)
from .tokens import SQLError


def _collect_engines(op: PhysicalOperator) -> List[object]:
    """Engines referenced by a physical plan, deduplicated, outermost
    first (the first one drives the distributed execution)."""
    found: List[object] = []

    def walk(node: PhysicalOperator) -> None:
        if isinstance(node, IndexSearch):
            found.append(node.engine)
        elif isinstance(node, IndexJoin):
            found.append(node.left_engine)
            found.append(node.right_engine)
        child = getattr(node, "child", None)
        if child is not None:
            walk(child)

    walk(op)
    out: List[object] = []
    for engine in found:
        if not any(engine is seen for seen in out):
            out.append(engine)
    return out


@dataclass
class ExplainAnalyzeResult:
    """Everything ``EXPLAIN ANALYZE`` produced for one statement: the
    rendered report plus the structured pieces it was rendered from, so
    callers (and tests) can reconcile the breakdown against the
    :class:`~repro.cluster.metrics.ExecutionReport` of the same run."""

    text: str
    rows: List[Row]
    spans: List[Span] = field(default_factory=list)
    report: ExecutionReport = field(default_factory=ExecutionReport)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)


class DITASession:
    """SQL and DataFrame entry point.

    Sessions may *share* a catalog: the serving layer hands every tenant
    its own session (per-tenant identity, per-tenant metrics attribution)
    over one set of registered tables and built engines, so tenant B's
    queries reuse the indexes tenant A's CREATE INDEX built.  Pass
    ``catalog=`` to join an existing session's catalog, or call
    :meth:`for_tenant` for the canonical per-tenant clone.
    """

    def __init__(
        self,
        config: Optional[DITAConfig] = None,
        catalog: Optional[Catalog] = None,
        tenant: Optional[str] = None,
    ) -> None:
        self.config = config or DITAConfig()
        self.catalog = catalog if catalog is not None else Catalog(self.config)
        #: tenant identity for multi-tenant serving (None for a private
        #: single-user session); purely attribution — execution is shared
        self.tenant = tenant

    def for_tenant(self, tenant: str) -> "DITASession":
        """A tenant-scoped session over this session's catalog: same
        tables, same engines, same config — distinct identity."""
        return DITASession(self.config, catalog=self.catalog, tenant=tenant)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register(self, name: str, dataset: ColumnarDataset) -> None:
        """Register an in-memory dataset as a table."""
        self.catalog.register(name, dataset)

    def table(self, name: str) -> "TrajectoryFrame":
        """DataFrame handle for a registered table."""
        from .dataframe import TrajectoryFrame

        self.catalog.get(name)  # raise early for unknown tables
        return TrajectoryFrame(self, name)

    # ------------------------------------------------------------------ #
    # SQL execution
    # ------------------------------------------------------------------ #

    def sql(self, text: str, params: Optional[Dict[str, object]] = None) -> List[Row]:
        """Parse, plan and execute one statement; returns result rows
        (empty for DDL)."""
        params = params or {}
        stmt = parse(text)
        if isinstance(stmt, Explain):
            if stmt.analyze:
                result = self._explain_analyze(stmt.statement, params)
            else:
                result = ExplainAnalyzeResult(
                    text=self._plan_text(stmt.statement, params), rows=[]
                )
            return [{"plan": line} for line in result.text.splitlines()]
        if isinstance(stmt, CreateIndex):
            self.catalog.create_index(stmt.table, stmt.index_name)
            return []
        logical = self.plan(stmt, params)
        physical = self.to_physical(logical, params)
        return physical.execute(params)

    def explain(self, text: str, params: Optional[Dict[str, object]] = None) -> str:
        """The optimized logical plan as text."""
        params = params or {}
        stmt = parse(text)
        if isinstance(stmt, Explain):
            stmt = stmt.statement
        return self._plan_text(stmt, params)

    def explain_analyze(
        self, text: str, params: Optional[Dict[str, object]] = None
    ) -> ExplainAnalyzeResult:
        """Execute one SELECT with tracing enabled and return the plan text,
        per-stage breakdown, result rows, and the structured trace/report/
        registry behind them.  ``text`` may carry an ``EXPLAIN [ANALYZE]``
        prefix or be the bare statement."""
        params = params or {}
        stmt = parse(text)
        if isinstance(stmt, Explain):
            stmt = stmt.statement
        return self._explain_analyze(stmt, params)

    def _plan_text(self, stmt, params: Dict[str, object]) -> str:
        if isinstance(stmt, CreateIndex):
            return f"CreateIndex table={stmt.table} method={stmt.method}"
        return explain_plan(self.plan(stmt, params))

    def _explain_analyze(self, stmt, params: Dict[str, object]) -> ExplainAnalyzeResult:
        if not isinstance(stmt, Select):
            raise SQLError("EXPLAIN ANALYZE supports SELECT statements only")
        logical = self.plan(stmt, params)
        physical = self.to_physical(logical, params)
        engines = _collect_engines(physical)
        for engine in engines:
            engine.enable_tracing()
            engine.metrics.clear()
            engine.cluster.reset_clocks()  # also clears the tracer
        rows = physical.execute(params)
        registry = MetricsRegistry()
        for engine in engines:
            registry.merge(engine.metrics)
        if engines:
            # the first indexed operator's engine drives the distributed
            # execution (a join runs on its left engine's cluster)
            primary = engines[0]
            report = primary.cluster.report()
            spans = list(primary.cluster.tracer.spans)
            report.to_registry(registry)
        else:
            report = ExecutionReport()
            spans = []
        text = "\n".join(
            [
                explain_plan(logical),
                "",
                format_breakdown(spans, report, registry=registry),
                f"rows: {len(rows)}",
            ]
        )
        return ExplainAnalyzeResult(
            text=text, rows=rows, spans=spans, report=report, registry=registry
        )

    # ------------------------------------------------------------------ #
    # logical planning + optimization
    # ------------------------------------------------------------------ #

    def plan(self, stmt: Select, params: Dict[str, object]) -> LogicalPlan:
        where = fold_constants(stmt.where) if stmt.where is not None else None
        conjuncts = split_conjuncts(where)
        binding = stmt.table.binding
        plan: LogicalPlan
        if stmt.join_table is not None:
            if stmt.join_condition is None:
                raise SQLError("TRA-JOIN requires an ON condition")
            on = fold_constants(stmt.join_condition)
            on_conjuncts = split_conjuncts(on)
            right_binding = stmt.join_table.binding
            sim: Optional[Tuple[str, float, bool, bool]] = None
            residual: List[Expr] = []
            for c in on_conjuncts:
                if sim is None:
                    match = extract_join_predicate(c, binding, right_binding, params)
                    if match is not None:
                        sim = match
                        continue
                residual.append(c)
            if sim is None:
                raise SQLError(
                    "TRA-JOIN ON must contain a similarity predicate "
                    "f(left, right) <= tau"
                )
            func, tau, swapped, strict = sim
            if strict:
                residual.append(strictly_below(tau))
            left_scan = Scan(stmt.table.name, binding)
            right_scan = Scan(stmt.join_table.name, right_binding)
            if swapped:
                left_scan, right_scan = right_scan, left_scan
            # predicate pushdown: single-side WHERE conjuncts move below the
            # join residual (evaluated first against the smaller row set)
            pushed: List[Expr] = []
            kept: List[Expr] = []
            for c in conjuncts:
                refs = referenced_tables(c)
                if refs and refs <= {binding} or refs and refs <= {right_binding}:
                    pushed.append(c)
                else:
                    kept.append(c)
            plan = SimilarityJoin(
                left=left_scan,
                right=right_scan,
                function=func,
                tau=tau,
                residual=join_conjuncts(residual + pushed),
            )
            remaining = join_conjuncts(kept)
            if remaining is not None:
                plan = Filter(plan, remaining)
        else:
            search = extract_similarity_search(
                conjuncts, stmt.order_by, stmt.limit, binding, params
            )
            if search is not None:
                func, query, tau, k, residual = search
                plan = SimilaritySearch(
                    table=stmt.table.name,
                    binding=binding,
                    function=func,
                    query=query,
                    tau=tau,
                    residual=join_conjuncts(residual),
                    k=k,
                )
                if k is not None:
                    # ranked by (distance, id) and cut at k: the index
                    # serves the ORDER BY/LIMIT too
                    return Project(plan, stmt.items)
            else:
                plan = Scan(stmt.table.name, binding)
                remaining = join_conjuncts(conjuncts)
                if remaining is not None:
                    plan = Filter(plan, remaining)
        if stmt.order_by or stmt.limit is not None:
            plan = OrderLimit(plan, stmt.order_by, stmt.limit)
        return Project(plan, stmt.items)

    # ------------------------------------------------------------------ #
    # physical planning
    # ------------------------------------------------------------------ #

    def to_physical(self, plan: LogicalPlan, params: Dict[str, object]) -> PhysicalOperator:
        if isinstance(plan, Project):
            return ProjectOp(self.to_physical(plan.child, params), plan.items)
        if isinstance(plan, OrderLimit):
            return OrderLimitOp(self.to_physical(plan.child, params), plan.order_by, plan.limit)
        if isinstance(plan, Filter):
            return FilterOp(self.to_physical(plan.child, params), plan.predicate)
        if isinstance(plan, Scan):
            return FullScan(self.catalog.get(plan.table), plan.binding)
        if isinstance(plan, SimilaritySearch):
            engine = self.catalog.engine_for(plan.table, plan.function)
            op: PhysicalOperator = IndexSearch(
                engine, plan.binding, plan.query, plan.tau, plan.k
            )
            if plan.residual is not None:
                op = FilterOp(op, plan.residual)
            return op
        if isinstance(plan, SimilarityJoin):
            if not isinstance(plan.left, Scan) or not isinstance(plan.right, Scan):
                raise SQLError("TRA-JOIN inputs must be base tables")
            left_engine = self.catalog.engine_for(plan.left.table, plan.function)
            right_engine = self.catalog.engine_for(plan.right.table, plan.function)
            op = IndexJoin(
                left_engine, right_engine, plan.left.binding, plan.right.binding, plan.tau
            )
            if plan.residual is not None:
                op = FilterOp(op, plan.residual)
            return op
        raise SQLError(f"no physical plan for {type(plan).__name__}")
