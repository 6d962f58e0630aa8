"""A SQL table's rows have one owner: once a table has an engine, every
reader (scans, searches in any distance family, CREATE INDEX re-runs)
sees the engine's live logical rows, and the engine that receives the
writes is never replaced or forked.

The same script runs straight on a ``DITASession`` and through a
``ServingLayer`` whose engine is the table's.
"""

from __future__ import annotations

import pytest

from repro import DITAConfig
from repro.datagen import beijing_like
from repro.serving import Request, ServingLayer
from repro.sql import DITASession

NEW_ID = 9_999
COUNT = "SELECT COUNT(*) FROM taxi"
NEAR = "SELECT traj_id FROM taxi WHERE {fn}(taxi, :q) <= 0.001"


class Direct:
    """Writes go to the table's engine, SQL to the session."""

    def __init__(self, session: DITASession, engine) -> None:
        self.session, self.engine = session, engine

    def sql(self, text, params=None):
        return self.session.sql(text, params=params)

    def append(self, traj_id, points):
        self.engine.append_trajectory(traj_id, points)

    def remove(self, traj_id):
        self.engine.remove_trajectory(traj_id)


class Served:
    """Every operation is one request to a ``ServingLayer``."""

    def __init__(self, session: DITASession, engine) -> None:
        self.layer = ServingLayer(engine, session=session, config=engine.config)
        self.sent = 0

    def _send(self, kind, payload):
        self.sent += 1
        (outcome,) = self.layer.run([Request(self.sent, "tenant0", kind, payload, float(self.sent))])
        assert outcome.status == "ok", outcome
        return outcome.result

    def sql(self, text, params=None):
        return [dict(row) for row in self._send("sql", {"text": text, "params": params})]

    def append(self, traj_id, points):
        self._send("append", {"traj_id": traj_id, "points": points})

    def remove(self, traj_id):
        self._send("remove", {"traj_id": traj_id})


@pytest.mark.parametrize("front", [Direct, Served])
def test_every_reader_follows_the_engine_that_receives_the_writes(front):
    data = beijing_like(200, seed=3)
    session = DITASession(
        DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3, delta_max_rows=10_000)
    )
    session.register("taxi", data)
    session.sql("CREATE INDEX taxi_idx ON taxi USE TRIE")
    engine = session.catalog.get("taxi").engine
    db = front(session, engine)
    probe = data[5]
    assert db.sql(COUNT) == [{"count": 200}]

    def seen(fn):
        rows = db.sql(NEAR.format(fn=fn), {"q": probe})
        return NEW_ID in {r["traj_id"] for r in rows}

    db.append(NEW_ID, probe.points + 1e-6)
    assert db.sql(COUNT) == [{"count": len(engine)}] == [{"count": 201}]
    # a second distance family reads the same rows and leaves the engine alone ...
    assert seen("FRECHET")
    assert session.catalog.get("taxi").engine is engine
    # ... so the family the engine indexes has lost nothing
    assert seen("DTW")
    session.sql("CREATE INDEX taxi_idx2 ON taxi USE TRIE")
    assert session.catalog.get("taxi").engine is engine
    assert seen("DTW") and seen("FRECHET")

    db.remove(NEW_ID)
    db.remove(7)
    assert db.sql(COUNT) == [{"count": len(engine)}] == [{"count": 199}]
    assert not seen("FRECHET") and not seen("DTW")
    assert session.catalog.get("taxi").engine is engine


def test_scan_order_is_registered_order_until_the_first_write():
    data = beijing_like(40, seed=4)
    session = DITASession(DITAConfig(num_global_partitions=2))
    session.register("taxi", data)
    session.sql("CREATE INDEX taxi_idx ON taxi USE TRIE")

    def ids():
        return [r["traj_id"] for r in session.sql("SELECT traj_id FROM taxi")]

    assert ids() == data.ids
    engine = session.catalog.get("taxi").engine
    engine.append_trajectory(NEW_ID, data[0].points)
    # written to: partition order, each partition's block order
    engine.sync_for_read()
    want = [tid for pid in engine.partition_pids() for tid in engine.partition(pid).ids]
    assert ids() == want and sorted(want) == sorted(data.ids + [NEW_ID])
