"""DataFrame API (the paper's "domain-specific language similar to R").

A :class:`TrajectoryFrame` is a lazy view of a registered table plus a
pipeline of pending operations; :meth:`collect` executes through the same
physical operators the SQL path uses::

    frame = session.table("taxi")
    rows = (
        frame.similarity_search(query, tau=0.005)
             .where(lambda r: r["distance"] > 0.001)
             .order_by("distance")
             .limit(10)
             .collect()
    )
    pairs = frame.tra_join(session.table("trips"), tau=0.002).collect()
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from ..trajectory.trajectory import Trajectory
from .physical import (
    FullScan,
    IndexJoin,
    IndexSearch,
    PhysicalOperator,
    Row,
)
from .tokens import SQLError


class _LambdaFilter(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, fn: Callable[[Row], bool]) -> None:
        self.child = child
        self.fn = fn

    def execute(self, params: Dict[str, object]) -> List[Row]:
        return [r for r in self.child.execute(params) if self.fn(r)]


class _Select(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, columns) -> None:
        self.child = child
        self.columns = list(columns)

    def execute(self, params: Dict[str, object]) -> List[Row]:
        out: List[Row] = []
        for row in self.child.execute(params):
            projected: Row = {}
            for col in self.columns:
                hits = [k for k in row if k == col or k.endswith("." + col)]
                if not hits:
                    raise SQLError(f"unknown column {col!r}; row has {sorted(row)}")
                if len(hits) > 1:
                    raise SQLError(f"ambiguous column {col!r}: {sorted(hits)}")
                projected[col] = row[hits[0]]
            out.append(projected)
        return out


class _SortLimit(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, key: Optional[str], ascending: bool, limit: Optional[int]) -> None:
        self.child = child
        self.key = key
        self.ascending = ascending
        self.limit = limit

    def execute(self, params: Dict[str, object]) -> List[Row]:
        rows = self.child.execute(params)
        if self.key is not None:
            key = self.key

            def resolve(row: Row):
                hits = [k for k in row if k == key or k.endswith("." + key)]
                if len(hits) != 1:
                    raise SQLError(f"cannot order by {key!r}")
                return row[hits[0]]

            rows.sort(key=resolve, reverse=not self.ascending)
        if self.limit is not None:
            rows = rows[: self.limit]
        return rows


class TrajectoryFrame:
    """Lazy DataFrame over a registered table (or a derived pipeline)."""

    def __init__(self, session, table: Optional[str], op: Optional[PhysicalOperator] = None) -> None:
        self._session = session
        self._table = table
        self._op = op

    # ------------------------------------------------------------------ #
    # sources
    # ------------------------------------------------------------------ #

    def _root_op(self) -> PhysicalOperator:
        if self._op is not None:
            return self._op
        return FullScan(self._session.catalog.get(self._table), self._table)

    def _derive(self, op: PhysicalOperator) -> "TrajectoryFrame":
        return TrajectoryFrame(self._session, self._table, op)

    # ------------------------------------------------------------------ #
    # trajectory-specific operations
    # ------------------------------------------------------------------ #

    def similarity_search(
        self, query: Trajectory, tau: float, distance: str = "dtw"
    ) -> "TrajectoryFrame":
        """Index-backed threshold search; adds a ``distance`` column."""
        if self._table is None:
            raise SQLError("similarity_search applies to a base table frame")
        engine = self._session.catalog.engine_for(self._table, distance)
        return self._derive(IndexSearch(engine, self._table, query, tau))

    def knn(self, query: Trajectory, k: int, distance: str = "dtw") -> "TrajectoryFrame":
        """Exact k-nearest-neighbour search (the paper's future-work
        extension); adds a ``distance`` column, rows sorted nearest-first."""
        if self._table is None:
            raise SQLError("knn applies to a base table frame")
        engine = self._session.catalog.engine_for(self._table, distance)
        return self._derive(IndexSearch(engine, self._table, query, math.inf, k))

    def tra_join(
        self, other: "TrajectoryFrame", tau: float, distance: str = "dtw"
    ) -> "TrajectoryFrame":
        """Index-backed TRA-JOIN with another base-table frame."""
        if self._table is None or other._table is None:
            raise SQLError("tra_join applies to base table frames")
        left = self._session.catalog.engine_for(self._table, distance)
        right = self._session.catalog.engine_for(other._table, distance)
        return self._derive(
            IndexJoin(left, right, self._table, other._table, tau)
        )

    # ------------------------------------------------------------------ #
    # relational operations
    # ------------------------------------------------------------------ #

    def where(self, fn: Callable[[Row], bool]) -> "TrajectoryFrame":
        return self._derive(_LambdaFilter(self._root_op(), fn))

    filter = where

    def select(self, *columns: str) -> "TrajectoryFrame":
        return self._derive(_Select(self._root_op(), columns))

    def order_by(self, key: str, ascending: bool = True) -> "TrajectoryFrame":
        return self._derive(_SortLimit(self._root_op(), key, ascending, None))

    def limit(self, n: int) -> "TrajectoryFrame":
        return self._derive(_SortLimit(self._root_op(), None, True, n))

    # ------------------------------------------------------------------ #
    # actions
    # ------------------------------------------------------------------ #

    def collect(self, params: Optional[Dict[str, object]] = None) -> List[Row]:
        return self._root_op().execute(params or {})

    def count(self) -> int:
        return len(self.collect())

    def __repr__(self) -> str:
        return f"TrajectoryFrame(table={self._table!r}, lazy={self._op is not None})"
