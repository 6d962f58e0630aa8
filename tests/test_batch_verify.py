"""Batched filter-verification vs. the per-pair pipeline.

``Verifier.filter_rows`` then ``exact_rows`` over a :class:`TrajectoryBlock`
(stacked in the columnar dataset's row space) must return the same
matches, in the same order, with the same ``verify.*`` counts, as
the per-pair oracle (``oracles.per_pair.verify``) called per candidate —
for every verifier configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import nonzero_counts
from oracles.envelope_reference import envelope_lower_bound
from oracles.per_pair import cell_bound_dtw, cell_bound_frechet, mbr_coverage_ok, verify
from repro.baselines.mbe import MBEIndex
from repro.core.adapters import get_adapter
from repro.core.numerics import slack
from repro.core.verify import VerificationData, Verifier
from repro.datagen import beijing_like
from repro.kernels import TrajectoryBlock, batch_cell_bounds, batch_mbr_coverage
from repro.obs import MetricsRegistry
from repro.storage.columnar import ColumnarDataset

CELL_SIZE = 0.004
TAU = 0.01


@pytest.fixture(scope="module")
def data():
    return list(beijing_like(80, seed=21))


@pytest.fixture(scope="module")
def dataset(data):
    return ColumnarDataset.from_trajectories(data)


@pytest.fixture(scope="module")
def verification(data):
    return {t.traj_id: VerificationData.of(t, CELL_SIZE) for t in data}


@pytest.fixture(scope="module")
def block(dataset):
    return TrajectoryBlock.from_columnar(dataset, CELL_SIZE)


def _per_pair(verifier, candidates, q, tau, verification, stats=None):
    out = []
    for t in candidates:
        d = verify(verifier, t, q, tau, verification[t.traj_id],
                   verification[q.traj_id], stats)
        if d <= tau:
            out.append((t.traj_id, d))
    return out


def _verify_rows(verifier, block, dataset, rows, q_points, tau, q_data, stats=None):
    """One query's candidate rows through both batched stages."""
    stats = MetricsRegistry() if stats is None else stats
    rows = verifier.filter_rows(block, rows, tau, q_data, stats)
    return verifier.exact_rows(dataset, [rows], [q_points], [tau], stats)[0]


@pytest.mark.parametrize("distance", ["dtw", "frechet"])
@pytest.mark.parametrize("use_mbr,use_cells", [(True, True), (True, False), (False, True), (False, False)])
def test_rows_match_per_pair(data, dataset, verification, block, distance, use_mbr, use_cells):
    adapter = get_adapter(distance)
    verifier = Verifier(adapter, use_mbr_coverage=use_mbr, use_cell_filter=use_cells)
    rows = dataset.alive_rows()
    for qi in (0, 13, 55):
        q = data[qi]
        s_loop, s_batch = MetricsRegistry(), MetricsRegistry()
        expect = _per_pair(verifier, data, q, TAU, verification, s_loop)
        got = _verify_rows(
            verifier, block, dataset, rows, q.points, TAU, verification[q.traj_id], stats=s_batch
        )
        assert [(dataset.id_of(r), d) for r, d in got] == expect
        assert nonzero_counts(s_batch) == nonzero_counts(s_loop)


def test_batch_filter_stages_match_scalar_lemmas(data, dataset, verification, block):
    """Lemma 5.4 / 5.6 matrix forms agree with the scalar implementations."""
    q_data = verification[data[5].traj_id]
    rows = dataset.alive_rows()
    tau_s = slack(TAU)
    mask = batch_mbr_coverage(block, rows, q_data.mbr.low, q_data.mbr.high, tau_s)
    for t, ok in zip(data, mask):
        assert bool(ok) == mbr_coverage_ok(verification[t.traj_id].mbr, q_data.mbr, TAU)
    for kind, scalar in (("sum", cell_bound_dtw), ("max", cell_bound_frechet)):
        bounds = batch_cell_bounds(block, rows, q_data.cells, kind)
        for t, b in zip(data, bounds):
            assert b == pytest.approx(
                scalar(verification[t.traj_id].cells, q_data.cells), abs=1e-9
            )


def test_empty_candidates(data, dataset, verification, block):
    verifier = Verifier(get_adapter("dtw"))
    got = _verify_rows(
        verifier, block, dataset, np.empty(0, dtype=np.int64), data[0].points, TAU,
        verification[data[0].traj_id],
    )
    assert got == []


def test_block_rows_share_dataset_row_space(data, dataset, block):
    assert np.array_equal(block.ids, dataset.traj_ids)
    for r in (0, 7, 41):
        cs = block.cellset_of(r)
        direct = VerificationData.from_points(dataset.points(r), CELL_SIZE)
        assert np.array_equal(cs.centers, direct.cells.centers)
        assert np.array_equal(cs.counts, direct.cells.counts)
        assert np.array_equal(block.mbr_low[r], direct.mbr.low)
        assert np.array_equal(block.mbr_high[r], direct.mbr.high)


def test_mbe_stacked_bounds_match_loop(data):
    for distance in ("dtw", "frechet"):
        idx = MBEIndex(data, distance)
        for q in (data[2], data[40]):
            fast = idx.lower_bounds(q.points)
            slow = [envelope_lower_bound(idx._envelopes[t.traj_id], q.points, idx._aggregate)
                    for t in idx._trajs]
            assert np.allclose(fast, slow, rtol=0, atol=1e-12)
        # chunking at any granularity gives identical answers
        tiny = idx.lower_bounds(data[2].points, max_elems=1)
        assert np.allclose(tiny, idx.lower_bounds(data[2].points), rtol=0, atol=0)
