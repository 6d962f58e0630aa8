"""The session catalog: registered tables and their indexes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from ..core.config import DITAConfig
from ..core.engine import DITAEngine
from ..storage.columnar import ColumnarDataset
from ..trajectory.trajectory import Trajectory
from .tokens import SQLError


@dataclass
class Table:
    """A registered trajectory table.

    ``engine`` is set once indexed, and from then on it owns the table's
    rows: it receives the writes, and every reader — scans, DataFrame
    roots, indexes for other distance families — reads its live logical
    rows.  ``dataset`` is what was registered; it is the table only while
    nothing has been written through the engine.
    """

    name: str
    dataset: ColumnarDataset
    engine: Optional[DITAEngine] = None
    index_name: Optional[str] = None
    #: indexes for distance families other than the engine's own, each
    #: with the engine and generation it mirrors (see Catalog.engine_for)
    mirrors: Dict[str, Tuple[DITAEngine, int, DITAEngine]] = field(
        default_factory=dict, repr=False
    )

    @property
    def is_indexed(self) -> bool:
        return self.engine is not None

    def scan(self) -> Iterator[Trajectory]:
        """Every row of the table as it stands now.

        A table never written to yields the registered rows in registered
        order (its engine, if any, holds exactly those).  Once the engine
        has been written to, its pending writes are folded in and its
        partitions are read: ascending partition id, block row order
        within each (surviving rows, then appended ones by arrival).
        """
        engine = self.engine
        if engine is None or engine.generation == 0:
            yield from self.dataset
            return
        engine.sync_for_read()
        for pid in engine.partition_pids():
            yield from engine.partition(pid)


class Catalog:
    """Name → table mapping with index management."""

    def __init__(self, config: Optional[DITAConfig] = None) -> None:
        self.config = config or DITAConfig()
        self._tables: Dict[str, Table] = {}

    def register(self, name: str, dataset: ColumnarDataset) -> Table:
        if name in self._tables:
            raise SQLError(f"table {name!r} already exists")
        table = Table(name=name, dataset=ColumnarDataset.from_trajectories(dataset))
        self._tables[name] = table
        return table

    def drop(self, name: str) -> None:
        self._tables.pop(name, None)

    def get(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SQLError(f"unknown table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list:
        return sorted(self._tables)

    def create_index(
        self, table_name: str, index_name: str, distance: str = "dtw"
    ) -> DITAEngine:
        """Name the table's index, building it on first use.  An indexed
        table keeps its engine — the index is maintained as rows are
        written — so a re-run only folds pending writes in."""
        engine = self.engine_for(table_name, distance)
        engine.sync_for_read()
        self.get(table_name).index_name = index_name
        return engine

    def engine_for(self, table_name: str, distance: str = "dtw") -> DITAEngine:
        """An index over the table's rows for ``distance``.

        The first request builds the table's engine.  A later request for
        another distance family never replaces it: it gets a mirror, a
        second set of tries over the engine's own partition blocks (rows
        are shared, not copied), rebuilt when the engine has been written
        to since."""
        table = self.get(table_name)
        if table.engine is None:
            table.engine = DITAEngine(table.dataset, self.config, distance=distance)
            table.index_name = table.index_name or f"_auto_{table_name}"
        owner = table.engine
        if owner.adapter.distance_name == distance:
            return owner
        stamp = owner.sync_for_read()
        mirrored, stamped, mirror = table.mirrors.get(distance, (None, None, None))
        if mirrored is owner and stamped == stamp:
            return mirror
        if mirror is not None:
            mirror.shutdown()
        parts = {pid: owner.partition(pid) for pid in owner.partition_pids()}
        mirror = DITAEngine.from_partitions(parts, self.config, distance=distance)
        table.mirrors[distance] = (owner, stamp, mirror)
        return mirror
