"""Tests for engine writes: insert/remove and the delta path they share
with append/extend/remove_trajectory."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DITAConfig, DITAEngine
from repro.datagen import beijing_like, citywide_dataset
from repro.distances import get_distance
from repro.trajectory import Trajectory


@pytest.fixture()
def cfg():
    return DITAConfig(num_global_partitions=2, trie_fanout=3, num_pivots=3, trie_leaf_capacity=3)


def _brute(data, q, tau):
    d = get_distance("dtw")
    return sorted(t.traj_id for t in data if d.compute(t.points, q.points) <= tau)


class TestEngineUpdates:
    def test_search_exact_after_updates(self, cfg):
        base = list(beijing_like(50, seed=5))
        engine = DITAEngine(base, cfg)
        extra = [
            Trajectory(2000 + t.traj_id, t.points + 0.00003)
            for t in citywide_dataset(15, seed=6)
        ]
        for t in extra:
            engine.insert(t)
        removed = {base[1].traj_id, base[9].traj_id}
        for tid in removed:
            assert engine.remove(tid)
        current = [t for t in base if t.traj_id not in removed] + extra
        assert len(engine) == len(current)
        for q in (current[0], extra[0]):
            assert engine.search_ids(q, 0.003) == _brute(current, q, 0.003)

    def test_insert_duplicate_id_rejected(self, cfg):
        base = list(beijing_like(10, seed=7))
        engine = DITAEngine(base, cfg)
        with pytest.raises(ValueError):
            engine.insert(Trajectory(base[0].traj_id, [(0, 0), (1, 1)]))

    def test_remove_absent_false(self, cfg):
        engine = DITAEngine(list(beijing_like(10, seed=7)), cfg)
        assert not engine.remove(98765)

    def test_insert_outside_all_partitions(self, cfg):
        """A trajectory outside every partition MBR still gets indexed and
        found (the chosen partition's MBRs grow)."""
        base = list(beijing_like(30, seed=8))
        engine = DITAEngine(base, cfg)
        faraway = Trajectory(3000, np.array([(5.0, 5.0), (5.1, 5.1), (5.2, 5.0)]))
        engine.insert(faraway)
        assert engine.search_ids(faraway, 0.001) == [3000]

    def test_join_exact_after_updates(self, cfg):
        base = list(beijing_like(30, seed=9))
        engine = DITAEngine(base, cfg)
        twin = Trajectory(4000, base[0].points + 0.00001)
        engine.insert(twin)
        pairs = engine.join(engine, 0.002)
        d = get_distance("dtw")
        current = base + [twin]
        want = sorted(
            (a.traj_id, b.traj_id)
            for a in current
            for b in current
            if d.compute(a.points, b.points) <= 0.002
        )
        assert sorted((a, b) for a, b, _ in pairs) == want

class TestExtendAfterRemove:
    """The remove → extend / remove → re-append sequences on the *same id*
    within one mutation generation (no flush in between) — pins the
    suspected stale-batch_block hazard: a removed row must not resurface
    through a cached trie block when its id comes back."""

    def test_extend_after_remove_same_id_raises(self, cfg):
        base = list(beijing_like(20, seed=11))
        engine = DITAEngine(base, cfg)
        tid = base[3].traj_id
        assert engine.remove_trajectory(tid)
        with pytest.raises(KeyError):
            engine.extend_trajectory(tid, [(0.01, 0.01)])

    def test_extend_after_remove_pending_id_raises(self, cfg):
        engine = DITAEngine(list(beijing_like(20, seed=11)), cfg)
        engine.append_trajectory(6_000, [(0.05, 0.05), (0.06, 0.06)])
        assert engine.remove_trajectory(6_000)
        with pytest.raises(KeyError):
            engine.extend_trajectory(6_000, [(0.07, 0.07)])

    def test_remove_then_reappend_same_id_same_generation(self, cfg):
        base = list(beijing_like(20, seed=11))
        engine = DITAEngine(base, cfg)
        tid = base[3].traj_id
        replacement = np.asarray([(0.12, 0.12), (0.13, 0.13), (0.14, 0.12)])
        assert engine.remove_trajectory(tid)
        engine.append_trajectory(tid, replacement)  # same id, no flush between
        assert len(engine) == len(base)
        # the query (forcing the flush) must see only the replacement
        probe = Trajectory(-1, replacement)
        assert engine.search_ids(probe, 1e-9) == [tid]
        assert np.array_equal(engine.trajectory(tid).points, replacement)
        current = [t for t in base if t.traj_id != tid] + [Trajectory(tid, replacement)]
        q = base[0]
        assert engine.search_ids(q, 0.003) == _brute(current, q, 0.003)

    def test_remove_then_reinsert_same_id_immediate_path(self, cfg):
        """The same hazard through the immediate insert/remove path: the
        partition's cached batch block must rebuild, not serve the dead row."""
        base = list(beijing_like(20, seed=11))
        engine = DITAEngine(base, cfg)
        tid = base[3].traj_id
        replacement = np.asarray([(0.12, 0.12), (0.13, 0.13), (0.14, 0.12)])
        assert engine.remove(tid)
        engine.insert(Trajectory(tid, replacement))
        probe = Trajectory(-1, replacement)
        assert engine.search_ids(probe, 1e-9) == [tid]
        old_probe = Trajectory(-2, base[3].points)
        assert tid not in engine.search_ids(old_probe, 1e-9)

    def test_remove_then_reappend_same_id_same_partition(self, cfg):
        """Re-appended next to where it was, the id routes back to its old
        partition: the pending row must shadow the removed base row, not
        sit beside it."""
        base = list(beijing_like(20, seed=11))
        engine = DITAEngine(base, cfg)
        tid = base[3].traj_id
        replacement = base[3].points + 1e-6
        home = next(
            pid for pid in engine.partition_pids() if tid in engine.partition(pid)
        )
        assert engine.remove(tid)
        assert engine.append_trajectory(tid, replacement) == home
        assert len(engine) == len(base)
        assert engine.search_ids(Trajectory(-1, replacement), 1e-9) == [tid]
        assert np.array_equal(engine.trajectory(tid).points, replacement)

    def test_extend_then_remove_drops_the_extension(self, cfg):
        base = list(beijing_like(20, seed=11))
        engine = DITAEngine(base, cfg)
        tid = base[3].traj_id
        engine.extend_trajectory(tid, [(0.19, 0.19)])
        assert engine.remove_trajectory(tid)
        assert len(engine) == len(base) - 1
        with pytest.raises(KeyError):
            engine.trajectory(tid)
        q = base[0]
        current = [t for t in base if t.traj_id != tid]
        assert engine.search_ids(q, 0.003) == _brute(current, q, 0.003)


class TestWriteValidation:
    """Appends and extends are the one boundary rows cross into an engine:
    what would poison the index is rejected there, before anything is
    buffered."""

    BAD_POINTS = {
        "nan": [(float("nan"), 0.1), (0.2, 0.2)],
        "inf": [(0.1, 0.1), (float("inf"), 0.2)],
        "empty": np.empty((0, 2)),
        "no-points": [],
        "3d": [(0.1, 0.1, 0.1), (0.2, 0.2, 0.2)],
    }

    @staticmethod
    def _write(engine, how, tid, points):
        if how == "append":
            engine.append_trajectory(9000, points)
        elif how == "extend":
            engine.extend_trajectory(tid, points)
        else:
            # Trajectory itself accepts NaN and any ndim (but not zero points)
            engine.insert(Trajectory(9000, points))

    @pytest.mark.parametrize("bad", sorted(BAD_POINTS))
    @pytest.mark.parametrize("how", ["append", "extend", "insert"])
    def test_rejected_write_leaves_engine_unchanged(self, how, bad):
        base = list(beijing_like(30, seed=1))
        engine = DITAEngine(base, DITAConfig(num_global_partitions=2))
        want = engine.search_ids(base[0], 0.003)
        assert len(want) > 1
        generation = engine.generation
        with pytest.raises(ValueError):
            self._write(engine, how, base[5].traj_id, self.BAD_POINTS[bad])
        assert engine.n_pending == 0 and engine.generation == generation
        assert engine.search_ids(base[0], 0.003) == want
        assert len(engine) == len(base)


class TestWriteIds:
    """A write's id is stored as int64: what would truncate or overflow is
    rejected before anything is buffered, on every write path."""

    BAD_IDS = {
        "past-int64": 2**70,
        "below-int64": -(2**63) - 1,
        "fraction": 1007.9,
        "float": 1007.2,
        "bool": True,
    }

    @pytest.mark.parametrize("bad", sorted(BAD_IDS))
    @pytest.mark.parametrize("how", ["append", "extend", "remove"])
    def test_bad_id_rejected_and_engine_unchanged(self, how, bad):
        base = list(beijing_like(20, seed=1))
        engine = DITAEngine(base, DITAConfig(num_global_partitions=2))
        want = engine.search_ids(base[0], 0.003)
        generation = engine.generation
        tid = self.BAD_IDS[bad]
        write = {
            "append": lambda: engine.append_trajectory(tid, base[3].points),
            "extend": lambda: engine.extend_trajectory(tid, base[3].points[:2]),
            "remove": lambda: engine.remove_trajectory(tid),
        }[how]
        with pytest.raises(ValueError, match=str(tid)):
            write()
        assert engine.n_pending == 0 and engine.generation == generation
        engine.flush_deltas()
        assert engine.search_ids(base[0], 0.003) == want
        assert len(engine) == len(base)

    @pytest.mark.parametrize("tid", [7_000, np.int64(7_000), np.int32(7_000), 2**63 - 1, -(2**63)])
    def test_integer_ids_accepted(self, tid):
        base = list(beijing_like(20, seed=1))
        engine = DITAEngine(base, DITAConfig(num_global_partitions=2))
        pts = base[3].points + 0.5
        engine.append_trajectory(tid, pts)
        assert engine.search_ids(Trajectory(0, pts), 0.0) == [int(tid)]
        engine.extend_trajectory(tid, pts[-2:])
        grown = np.concatenate([pts, pts[-2:]])
        assert engine.search_ids(Trajectory(0, grown), 0.0) == [int(tid)]
        assert engine.remove_trajectory(tid)
        assert engine.search_ids(Trajectory(0, grown), 0.0) == []

    def test_serving_append_names_the_id(self):
        from repro.serving import Request, ServingLayer

        base = list(beijing_like(20, seed=1))
        engine = DITAEngine(base, DITAConfig(num_global_partitions=2))
        layer = ServingLayer(engine)
        req = Request(req_id=0, tenant="t", kind="append",
                      payload={"traj_id": 2**70, "points": base[3].points}, arrival=0.0)
        (out,) = layer.run([req])
        assert out.status == "error" and str(2**70) in out.error
        assert len(engine) == len(base)


class TestRandomUpdateSequences:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(0, 10_000))
    def test_random_update_sequences(self, cfg, seed):
        rng = np.random.default_rng(seed)
        base = list(citywide_dataset(15, seed=seed % 100))
        engine = DITAEngine(base, cfg)
        current = {t.traj_id: t for t in base}
        next_id = 10_000
        for _ in range(8):
            if rng.random() < 0.6 or len(current) < 3:
                pts = rng.uniform(0, 0.2, size=(int(rng.integers(1, 8)), 2))
                t = Trajectory(next_id, pts)
                next_id += 1
                engine.insert(t)
                current[t.traj_id] = t
            else:
                victim = int(rng.choice(sorted(current)))
                assert engine.remove(victim)
                del current[victim]
        q = list(current.values())[0]
        assert engine.search_ids(q, 0.01) == _brute(current.values(), q, 0.01)


class TestGenerationCounter:
    """The mutation-generation contract external caches key on.

    Regression for the PR 9 stale-state hazard: a *buffered* delta write
    must advance the generation immediately — before any flush-on-read —
    or a cache keyed on it would serve pre-write results against
    post-write data.
    """

    def _engine(self, n=20, seed=21, **kw):
        cfg = DITAConfig(
            num_global_partitions=2,
            trie_fanout=3,
            num_pivots=3,
            trie_leaf_capacity=3,
            delta_max_rows=10_000,
            **kw,
        )
        base = list(beijing_like(n, seed=seed))
        return DITAEngine(base, cfg), base

    def test_buffered_writes_bump_before_flush(self):
        engine, base = self._engine()
        g0 = engine.generation
        engine.append_trajectory(9001, [(0.1, 0.1), (0.11, 0.11)])
        g1 = engine.generation
        assert g1 > g0 and engine.n_pending > 0  # bumped while still buffered
        engine.extend_trajectory(9001, [(0.12, 0.12)])
        g2 = engine.generation
        assert g2 > g1 and engine.n_pending > 0
        assert engine.remove_trajectory(base[0].traj_id)
        assert engine.generation > g2

    def test_partition_versions_are_partition_exact(self):
        engine, base = self._engine()
        before = {p: engine.partition_version(p) for p in engine.partition_pids()}
        pid = engine.append_trajectory(9002, [(0.05, 0.05)])
        after = {p: engine.partition_version(p) for p in engine.partition_pids()}
        assert after[pid] == before[pid] + 1
        for p in engine.partition_pids():
            if p != pid:
                assert after[p] == before[p]

    def test_legacy_insert_remove_bump(self):
        engine, base = self._engine()
        g0 = engine.generation
        engine.insert(Trajectory(9003, [(0.02, 0.02), (0.03, 0.03)]))
        assert engine.generation > g0
        g1 = engine.generation
        assert engine.remove(9003)
        assert engine.generation > g1

    def test_repartition_bumps(self):
        engine, _ = self._engine(n=30)
        # skew one partition with buffered appends, then force repartition
        for i in range(40):
            engine.append_trajectory(20_000 + i, [(0.001 * i, 0.001), (0.002, 0.002)])
        engine.flush_deltas()
        g0 = engine.generation
        if engine.repartition():
            assert engine.generation > g0

    def test_merge_bumps(self, tmp_path):
        engine, _ = self._engine()
        engine.attach_generations(tmp_path / "gens")
        engine.append_trajectory(9004, [(0.01, 0.01)])
        engine.flush_deltas()
        g0 = engine.generation
        engine.merge()
        assert engine.generation > g0

    def test_flush_bumps_versions_of_flushed_pids_only(self):
        """A flush keeps the logical rows: the generation stays, and only
        the flushed partitions' versions move (the rule the serving cache
        relies on)."""
        engine, _ = self._engine()
        pid = engine.append_trajectory(9006, [(0.04, 0.04), (0.05, 0.05)])
        g = engine.generation
        before = {p: engine.partition_version(p) for p in engine.partition_pids()}
        assert engine.flush_deltas() == 1
        assert engine.generation == g
        after = {p: engine.partition_version(p) for p in engine.partition_pids()}
        assert {p for p in after if after[p] != before[p]} == {pid}
        assert after[pid] == before[pid] + 1

    def test_sync_for_read_folds_and_stamps(self):
        engine, base = self._engine()
        engine.append_trajectory(9005, [(0.07, 0.07)])
        g = engine.sync_for_read()
        assert engine.n_pending == 0
        assert g == engine.generation  # no hidden bump after the fold


class TestFlushReentrancy:
    """The flush-on-read (`sync_for_read`) must be idempotent under
    interleaved reads."""

    def _engine(self):
        cfg = DITAConfig(
            num_global_partitions=2,
            trie_fanout=3,
            num_pivots=3,
            trie_leaf_capacity=3,
            delta_max_rows=10_000,
        )
        base = list(beijing_like(18, seed=31))
        return DITAEngine(base, cfg), base

    def test_reentrant_sync_is_noop(self, monkeypatch):
        """A read issued from inside the flush machinery (the serving
        layer's interleavings) must not double-flush or observe a
        half-compacted partition set."""
        from repro.core import runtime as runtime_mod

        engine, base = self._engine()
        engine.append_trajectory(9100, base[0].points + 0.0001)
        engine.append_trajectory(9101, base[1].points + 0.0001)

        real_trie = runtime_mod.TrieIndex
        reentered = []

        class ReentrantTrie(real_trie):
            def __init__(self, part, config, *a, **kw):
                # simulate an interleaved read mid-flush: must be a no-op
                pending_before = engine.n_pending
                engine.sync_for_read()
                reentered.append(engine.n_pending == pending_before)
                super().__init__(part, config, *a, **kw)

        monkeypatch.setattr(runtime_mod, "TrieIndex", ReentrantTrie)
        applied = engine.flush_deltas()
        monkeypatch.undo()
        assert applied > 0
        assert reentered and all(reentered)
        assert engine.n_pending == 0
        q = base[0]
        expect = list(base) + [
            Trajectory(9100, base[0].points + 0.0001),
            Trajectory(9101, base[1].points + 0.0001),
        ]
        assert engine.search_ids(q, 0.003) == _brute(expect, q, 0.003)

    def test_failed_flush_restores_deltas(self, monkeypatch):
        from repro.core import runtime as runtime_mod

        engine, base = self._engine()
        engine.append_trajectory(9102, base[0].points + 0.0001)
        pending = engine.n_pending

        real_trie = runtime_mod.TrieIndex

        class ExplodingTrie(real_trie):
            def __init__(self, *a, **kw):
                raise RuntimeError("simulated mid-flush failure")

        monkeypatch.setattr(runtime_mod, "TrieIndex", ExplodingTrie)
        with pytest.raises(RuntimeError):
            engine.flush_deltas()
        monkeypatch.undo()
        # nothing adopted, nothing lost: pending writes are all still there
        assert engine.n_pending == pending
        assert not engine.runtime.in_flush
        q = base[0]
        expect = list(base) + [Trajectory(9102, base[0].points + 0.0001)]
        assert engine.search_ids(q, 0.003) == _brute(expect, q, 0.003)

    def test_double_flush_second_is_noop(self):
        engine, base = self._engine()
        engine.append_trajectory(9103, [(0.01, 0.01)])
        assert engine.flush_deltas() > 0
        assert engine.flush_deltas() == 0
