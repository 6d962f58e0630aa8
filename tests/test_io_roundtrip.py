"""Property tests: dataset serialization round-trips byte-identically.

``save -> load -> save`` must reproduce the file byte for byte — the
loaders parse exact int64 ids and shortest-repr float64 coordinates, so
no value drifts through a round trip.  CSV loads come back ordered by
trajectory id, so byte identity is asserted for id-sorted datasets (the
format's canonical order); JSON-lines preserves file order for any id
order.  Covers empty datasets, 1-point trajectories and ndim >= 3.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import ColumnarDataset
from repro.trajectory import (
    Trajectory,
    load_csv,
    load_jsonl,
    load_plt_directory,
    save_csv,
    save_jsonl,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def datasets(draw):
    ndim = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    ids = sorted(draw(st.sets(st.integers(-(10**9), 10**9), min_size=n, max_size=n)))
    trajs = []
    for tid in ids:
        npts = draw(st.integers(1, 5))
        pts = draw(
            st.lists(
                st.lists(finite, min_size=ndim, max_size=ndim),
                min_size=npts,
                max_size=npts,
            )
        )
        trajs.append(Trajectory(tid, np.asarray(pts, dtype=np.float64).reshape(npts, ndim)))
    return ColumnarDataset.from_trajectories(trajs)


def _same_dataset(a: ColumnarDataset, b: ColumnarDataset) -> None:
    assert sorted(t.traj_id for t in a) == sorted(t.traj_id for t in b)
    for t in a:
        assert np.array_equal(t.points, b.by_id(t.traj_id).points)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(datasets())
def test_csv_save_load_save_is_byte_identical(tmp_path, data):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(data, p1)
    loaded = load_csv(p1)
    _same_dataset(data, loaded)
    save_csv(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(datasets())
def test_jsonl_save_load_save_is_byte_identical(tmp_path, data):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_jsonl(data, p1)
    loaded = load_jsonl(p1)
    _same_dataset(data, loaded)
    assert [t.traj_id for t in loaded] == [t.traj_id for t in data]  # file order
    save_jsonl(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(datasets())
def test_columnar_loaders_match_object_loaders(tmp_path, data):
    pc, pj = tmp_path / "a.csv", tmp_path / "a.jsonl"
    save_csv(data, pc)
    save_jsonl(data, pj)
    for block in (load_csv(pc), load_jsonl(pj)):
        # the loaders return the container the engine adopts: nothing re-packs it
        assert ColumnarDataset.from_trajectories(block) is block
        assert block.traj_ids.dtype == np.int64
        assert block.point_coords.dtype == np.float64
        assert sorted(block.ids) == sorted(t.traj_id for t in data)
        for t in data:
            assert np.array_equal(block.points(block.row_of(t.traj_id)), t.points)


def test_empty_dataset_round_trips(tmp_path):
    empty = ColumnarDataset.from_trajectories([])
    for save, load, name in (
        (save_csv, load_csv, "e.csv"),
        (save_jsonl, load_jsonl, "e.jsonl"),
    ):
        p1, p2 = tmp_path / name, tmp_path / ("2" + name)
        save(empty, p1)
        loaded = load(p1)
        assert len(loaded) == 0
        save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_single_point_3d_round_trips(tmp_path):
    data = ColumnarDataset.from_trajectories(
        [
            Trajectory(1, [(0.1, -2.5, 1e300)]),
            Trajectory(2, [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)]),
        ]
    )
    for save, load, name in (
        (save_csv, load_csv, "d.csv"),
        (save_jsonl, load_jsonl, "d.jsonl"),
    ):
        p1, p2 = tmp_path / name, tmp_path / ("2" + name)
        save(data, p1)
        loaded = load(p1)
        _same_dataset(data, loaded)
        save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_loaders_reject_non_finite_coordinates_naming_the_file(tmp_path, bad):
    """A non-finite cell fails at the loader, with the file in the message
    — not later, at whichever engine constructor first scans the block."""
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(f"traj_id,seq,c0,c1\n1,0,0.0,0.0\n1,1,{bad},1.0\n")
    jsonl_path = tmp_path / "bad.jsonl"
    token = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[bad]
    jsonl_path.write_text(f'{{"traj_id": 1, "points": [[0.0, 0.0], [{token}, 1.0]]}}\n')
    plt_root = tmp_path / "plt"
    plt_root.mkdir()
    plt_path = plt_root / "bad.plt"
    plt_path.write_text("h\n" * 6 + f"39.9,116.3,0,0,0,d,t\n{bad},116.4,0,0,0,d,t\n")
    for load, path, named in (
        (load_csv, csv_path, csv_path),
        (load_jsonl, jsonl_path, jsonl_path),
        (load_plt_directory, plt_root, plt_path),
    ):
        with pytest.raises(ValueError, match="points must be finite") as exc:
            load(path)
        assert str(named) in str(exc.value)
