"""Differential tests: wavefront kernels vs. the reference loops.

The vectorized anti-diagonal sweeps must produce *identical* answers to the
legacy per-cell Python DPs (to 1e-9; bit for bit for LCSS and banded DTW)
on seeded-random trajectories across lengths (including length-1 edge
cases) and dimensions, and the threshold variants must be sound: never
report a value below the exact distance, and return the exact distance
whenever it is within tau.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.cell_bounds_reference import batch_cell_bounds_reference
from oracles.dp_reference import (
    _forward_rows,
    dtw_reference,
    dtw_threshold_reference,
    dtw_window_reference,
    edr_reference,
    erp_reference,
    frechet_reference,
    lcss_reference,
)
from repro.distances import (
    dtw,
    dtw_double_direction,
    dtw_threshold,
    dtw_window,
    edr,
    edr_threshold,
    erp,
    erp_threshold,
    frechet,
    frechet_threshold,
    get_distance,
    lcss,
    lcss_dissimilarity,
    lcss_threshold,
)
from repro.geometry.cell import CellSet
from repro.kernels import TrajectoryBlock, batch_cell_bounds, dtw_wavefront_last_row, pairbatch
from repro.storage import ColumnarDataset

EDR_EPS = 0.002

#: (m, n, d) shapes covering the wavefront's boundary cases: single-point
#: trajectories (one diagonal), skinny tables, square tables, high dims
SHAPES = [
    (1, 1, 2),
    (1, 7, 2),
    (9, 1, 2),
    (2, 2, 2),
    (5, 13, 2),
    (13, 5, 2),
    (31, 31, 2),
    (17, 64, 3),
    (40, 40, 5),
    (64, 63, 2),
]


def _walk(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    start = rng.uniform(0.0, 1.0, size=d)
    steps = rng.normal(scale=1e-3, size=(n, d))
    steps[0] = 0.0
    return start + np.cumsum(steps, axis=0)


def _pairs():
    rng = np.random.default_rng(42)
    for m, n, d in SHAPES:
        for _ in range(3):
            yield _walk(rng, m, d), _walk(rng, n, d)


def _near_pairs():
    """``_pairs`` plus each first trajectory against a noisy resampling of
    itself, so LCSS finds matches off the diagonal and bands cut paths."""
    rng = np.random.default_rng(43)
    for a, b in _pairs():
        yield a, b
        n = b.shape[0]
        yield a, a[np.sort(rng.integers(0, a.shape[0], size=n))] + rng.normal(
            scale=2e-4, size=(n, a.shape[1])
        )


#: (epsilon, delta) for LCSS: epsilon 0 (only coincident points match),
#: delta 0 (only the diagonal), a middle band, and delta >= max(m, n)
LCSS_PARAMS = [(0.0, 3), (EDR_EPS, 0), (EDR_EPS, 3), (EDR_EPS, 64), (0.0, 64)]

#: Sakoe-Chiba windows: the diagonal alone, narrow bands, >= max(m, n)
WINDOWS = [0, 1, 4, 64]


def _windows(a, b):
    return WINDOWS + [max(a.shape[0], b.shape[0])]


class TestExactMatchesReference:
    def test_dtw(self):
        for a, b in _pairs():
            assert dtw(a, b) == pytest.approx(dtw_reference(a, b), abs=1e-9)

    def test_frechet(self):
        for a, b in _pairs():
            assert frechet(a, b) == pytest.approx(frechet_reference(a, b), abs=1e-9)

    def test_edr(self):
        for a, b in _pairs():
            assert edr(a, b, EDR_EPS) == edr_reference(a, b, EDR_EPS)

    def test_erp(self):
        for a, b in _pairs():
            gap = np.zeros(a.shape[1])
            assert erp(a, b, gap) == pytest.approx(erp_reference(a, b, gap), abs=1e-9)

    def test_lcss(self):
        for a, b in _near_pairs():
            for eps, delta in LCSS_PARAMS:
                want = lcss_reference(a, b, eps, delta)
                assert lcss(a, b, eps, delta) == want
                dissimilarity = min(a.shape[0], b.shape[0]) - want
                assert lcss_dissimilarity(a, b, eps, delta) == dissimilarity
                got = get_distance("lcss", epsilon=eps, delta=delta).compute(a, b)
                assert _bits(got) == _bits(float(dissimilarity))

    def test_dtw_window(self):
        for a, b in _near_pairs():
            for window in _windows(a, b):
                want = dtw_window_reference(a, b, window)
                assert _bits(dtw_window(a, b, window)) == _bits(want), window
            # a band as wide as the table cuts nothing: exact DTW, bit for bit
            assert _bits(dtw_window(a, b, max(a.shape[0], b.shape[0]))) == _bits(dtw(a, b))

    def test_identical_trajectories_are_exactly_zero(self):
        rng = np.random.default_rng(3)
        t = _walk(rng, 33, 2)
        assert dtw(t, t) == 0.0
        assert frechet(t, t) == 0.0
        assert edr(t, t, EDR_EPS) == 0
        assert erp(t, t, np.zeros(2)) == 0.0
        assert lcss_dissimilarity(t, t, 0.0, 0) == 0
        assert dtw_window(t, t, 0) == 0.0


class TestThresholdSoundness:
    """tau above the exact value => the exact value; tau below => inf (or at
    least never an underestimate)."""

    def _check(self, exact_val, threshold_fn, a, b, *args):
        above = threshold_fn(a, b, *args, exact_val * 1.5 + 1e-12)
        assert above == pytest.approx(exact_val, abs=1e-9)
        at = threshold_fn(a, b, *args, exact_val + 1e-12)
        assert at == pytest.approx(exact_val, abs=1e-9)
        if exact_val > 1e-9:
            below = threshold_fn(a, b, *args, exact_val * 0.5)
            assert below >= exact_val - 1e-9  # never an underestimate

    def test_dtw(self):
        for a, b in _pairs():
            self._check(dtw(a, b), dtw_threshold, a, b)

    def test_frechet(self):
        for a, b in _pairs():
            self._check(frechet(a, b), frechet_threshold, a, b)

    def test_edr(self):
        for a, b in _pairs():
            self._check(float(edr(a, b, EDR_EPS)), edr_threshold, a, b, EDR_EPS)

    def test_erp(self):
        for a, b in _pairs():
            gap = np.zeros(a.shape[1])
            self._check(erp(a, b, gap), erp_threshold, a, b, gap)

    def test_lcss(self):
        """Bit for bit the closed-threshold form of the reference loop's
        dissimilarity, at thresholds on, between and around the integer
        values the dissimilarity takes — including one ULP below it, where
        the sweep's limit ``2 tau + |m - n|`` rounds up onto the value."""
        for a, b in _near_pairs():
            for eps, delta in LCSS_PARAMS:
                exact = float(min(a.shape[0], b.shape[0]) - lcss_reference(a, b, eps, delta))
                self._check(exact, lcss_threshold, a, b, eps, delta)
                f = get_distance("lcss", epsilon=eps, delta=delta)
                below = np.nextafter(exact, -math.inf)
                for tau in (0.0, exact - 1, below, exact - 0.5, exact, exact + 0.5, exact + 3, math.inf):
                    want = exact if exact <= tau else math.inf
                    assert _bits(lcss_threshold(a, b, eps, delta, tau)) == _bits(want), tau
                    assert _bits(f.compute_threshold(a, b, tau)) == _bits(want), tau

    def test_dtw_window(self):
        """A band only removes warping paths, so the banded value is a
        threshold exact DTW always meets: the threshold kernel returns DTW
        itself there, bit for bit."""
        for a, b in _near_pairs():
            exact = dtw(a, b)
            for window in _windows(a, b):
                banded = dtw_window_reference(a, b, window)
                assert banded >= exact
                assert _bits(dtw_threshold(a, b, banded)) == _bits(exact), window

    def test_dtw_threshold_matches_reference_when_within_tau(self):
        for a, b in _pairs():
            d = dtw(a, b)
            tau = d * 1.25 + 1e-12
            assert dtw_threshold(a, b, tau) == pytest.approx(
                dtw_threshold_reference(a, b, tau), abs=1e-9
            )

    def test_below_tau_prunes_to_inf_or_exact(self):
        rng = np.random.default_rng(9)
        a, b = _walk(rng, 48, 2), _walk(rng, 48, 2)
        d = dtw(a, b)
        assert math.isinf(dtw_threshold(a, b, d * 0.25))
        f = frechet(a, b)
        assert math.isinf(frechet_threshold(a, b, f * 0.25))


class TestLastRow:
    """The forward-rows kernel backing double-direction DTW."""

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        for m, n, d in [(5, 9, 2), (20, 20, 2), (1, 6, 3), (33, 12, 2)]:
            a, b = _walk(rng, m, d), _walk(rng, n, d)
            w = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
            tau = float(np.median(w)) * max(m, n) / 2
            vec = dtw_wavefront_last_row(w, m, tau)
            ref = _forward_rows(w, m, tau)
            if ref is None:
                assert vec is None
            else:
                assert vec is not None
                finite = np.isfinite(ref)
                assert np.array_equal(finite, np.isfinite(vec))
                assert np.allclose(ref[finite], vec[finite], atol=1e-9)


class TestValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            dtw(np.zeros((0, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            frechet(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            erp(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3))


# --------------------------------------------------------------------- #
# pair-batched sweeps vs. the per-pair kernels: bit equality
# --------------------------------------------------------------------- #

TAU_KINDS = ("zero", "tiny", "half", "exact", "double", "huge", "inf")
PAIR_KINDS = ("identical", "near", "far")


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _tau(kind: str, exact: float) -> float:
    return {
        "zero": 0.0, "tiny": 1e-12, "half": exact * 0.5, "exact": exact,
        "double": exact * 2.0 + 1e-9, "huge": 1e12, "inf": math.inf,
    }[kind]


def _ragged_batch(rng, shapes, d):
    """Pairs for ``shapes`` = [(m, n, pair kind), ...]: a trajectory against
    itself, against a noisy resampling of itself, or against another walk."""
    ts, qs = [], []
    for m, n, kind in shapes:
        t = _walk(rng, m, d)
        if kind == "identical":
            q = t.copy()
        elif kind == "near":
            q = t[np.sort(rng.integers(0, m, size=n))] + rng.normal(scale=1e-4, size=(n, d))
        else:
            q = _walk(rng, n, d)
        ts.append(t)
        qs.append(q)
    return ts, qs


def _assert_batches_bit_equal(ts, qs, tau_kinds):
    """Both batched entry points against their per-pair kernels, with
    each pair's thresholds placed relative to its own exact distance."""
    full_dtw = [dtw(t, q) for t, q in zip(ts, qs)]
    full_fre = [frechet(t, q) for t, q in zip(ts, qs)]
    taus = [_tau(k, d) for k, d in zip(tau_kinds, full_dtw)]
    want = [dtw_double_direction(t, q, tau) for t, q, tau in zip(ts, qs, taus)]
    got = pairbatch.dtw_double_direction_batch(ts, qs, taus)
    assert np.array_equal(_bits(got), _bits(want)), (taus, got, want)
    taus = [_tau(k, d) for k, d in zip(tau_kinds, full_fre)]
    want = [frechet_threshold(t, q, tau) for t, q, tau in zip(ts, qs, taus)]
    got = pairbatch.frechet_threshold_batch(ts, qs, taus)
    assert np.array_equal(_bits(got), _bits(want)), (taus, got, want)


class TestPairBatchBitIdentity:
    """``view(uint64)`` equality, not ``approx``: the engine's byte-identity
    contracts (and the benchmark's per-pair replay) ride on it."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_fixed_ragged_batch(self, d):
        rng = np.random.default_rng(7 + d)
        shapes = [
            (1, 1, "far"), (1, 9, "far"), (9, 1, "far"), (1, 1, "identical"),
            (2, 2, "near"), (2, 80, "far"), (80, 2, "near"), (3, 3, "identical"),
            (24, 24, "near"), (40, 40, "near"), (24, 40, "far"), (80, 80, "near"),
            (80, 79, "identical"), (17, 64, "near"), (5, 13, "far"), (64, 63, "near"),
        ]
        ts, qs = _ragged_batch(rng, shapes, d)
        # every pair at every threshold kind, and one batch where the
        # thresholds differ from pair to pair
        for kind in TAU_KINDS:
            _assert_batches_bit_equal(ts, qs, [kind] * len(ts))
        _assert_batches_bit_equal(ts, qs, [TAU_KINDS[i % len(TAU_KINDS)] for i in range(len(ts))])

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 80), st.integers(1, 80),
                st.sampled_from(PAIR_KINDS), st.sampled_from(TAU_KINDS),
            ),
            min_size=1, max_size=10,
        ),
        st.sampled_from([2, 3]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_ragged_batches(self, rows, d, seed):
        ts, qs = _ragged_batch(np.random.default_rng(seed), [r[:3] for r in rows], d)
        _assert_batches_bit_equal(ts, qs, [r[3] for r in rows])

    def test_shuffled_batch_scatters_back(self):
        """Bucketing sorts pairs by table size; answers must come back in
        the caller's order whatever order that was."""
        rng = np.random.default_rng(23)
        shapes = [(int(m), int(n), "near") for m, n in rng.integers(2, 60, size=(40, 2))]
        ts, qs = _ragged_batch(rng, shapes, 2)
        taus = [dtw(t, q) * (0.5 + i % 3) for i, (t, q) in enumerate(zip(ts, qs))]
        want = pairbatch.dtw_double_direction_batch(ts, qs, taus)
        order = rng.permutation(len(ts))
        got = pairbatch.dtw_double_direction_batch(
            [ts[i] for i in order], [qs[i] for i in order], [taus[i] for i in order]
        )
        assert np.array_equal(_bits(got), _bits(want[order]))
        assert np.array_equal(
            _bits(want), _bits([dtw_double_direction(t, q, tau) for t, q, tau in zip(ts, qs, taus)])
        )

    def test_sweep_volume_is_capped(self, monkeypatch):
        """Two 1,500-point pairs among 60 short ones: no sweep's padded
        frame exceeds MAX_SWEEP_VOLUME (the long pairs run on their own,
        not in a frame that pads the short ones up to their size)."""
        rng = np.random.default_rng(31)
        shapes = [(30, 30, "near")] * 60
        shapes[17] = shapes[44] = (1500, 1500, "near")
        ts, qs = _ragged_batch(rng, shapes, 2)
        taus = [0.05] * len(ts)
        volumes = []
        sweep = pairbatch._sweep

        def recording(tables, table_taus, combine):
            rows = max(w.shape[0] for w in tables)
            cols = max(w.shape[1] for w in tables)
            volumes.append((rows * cols * len(tables), len(tables)))
            return sweep(tables, table_taus, combine)

        monkeypatch.setattr(pairbatch, "_sweep", recording)
        got = pairbatch.dtw_double_direction_batch(ts, qs, taus)
        assert max(v for v, _ in volumes) <= pairbatch.MAX_SWEEP_VOLUME
        assert sum(n for _, n in volumes) == 2 * len(ts)
        # one long pair (two half-tables) fits a sweep, the two together do not
        assert 750 * 1500 * 2 <= pairbatch.MAX_SWEEP_VOLUME < 750 * 1500 * 4
        assert volumes.count((750 * 1500 * 2, 2)) == 2  # each ran as a batch of one
        for i in (0, 17, 44, 59):
            assert _bits(got[i]) == _bits(dtw_double_direction(ts[i], qs[i], taus[i]))

    def test_rejects_what_the_per_pair_kernels_reject(self):
        ok = np.zeros((3, 2))
        for batch in (pairbatch.frechet_threshold_batch, pairbatch.dtw_double_direction_batch):
            with pytest.raises(ValueError):
                batch([ok, np.zeros((0, 2))], [ok, ok], [1.0, 1.0])
            with pytest.raises(ValueError):
                batch([ok, ok], [ok, np.zeros((3, 3))], [1.0, 1.0])
        with pytest.raises(ValueError):
            pairbatch.dtw_double_direction_batch([np.zeros((0, 2))], [ok], [1.0])


class TestCellBoundsBitIdentity:
    """The axis-at-a-time cell bound against the 3-D form it replaced
    (``tests/oracles/cell_bounds_reference.py``): every float identical,
    for both kinds, chunked or not."""

    CELL = 2e-3

    @staticmethod
    def _trip(rng, d):
        """1-47 points in a 0.05-wide town, stepping about a cell at a time."""
        steps = rng.normal(scale=1.5e-3, size=(int(rng.integers(1, 48)), d))
        return rng.uniform(0.0, 0.05, size=d) + np.cumsum(steps, axis=0)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_matches_the_3d_form(self, n, d):
        rng = np.random.default_rng(100 * d + n)
        walks = [self._trip(rng, d) for _ in range(n)]
        block = TrajectoryBlock.from_columnar(
            ColumnarDataset.from_point_arrays(list(range(n)), walks), self.CELL
        )
        for _ in range(4):
            q_cells = CellSet.from_points(self._trip(rng, d), self.CELL)
            picks = (
                np.arange(n, dtype=np.int64),
                rng.permutation(n)[: n // 2 + 1].astype(np.int64),
                np.empty(0, dtype=np.int64),
            )
            for rows in picks:
                for kind in ("sum", "max"):
                    # 1 << 20 is the default (one chunk here); 40 and 1 force
                    # a few rows, then one row, per chunk
                    for max_elems in (1 << 20, 40, 1):
                        got = batch_cell_bounds(block, rows, q_cells, kind, max_elems)
                        want = batch_cell_bounds_reference(block, rows, q_cells, kind, max_elems)
                        assert got.dtype == np.float64 and got.shape == rows.shape
                        assert np.array_equal(_bits(got), _bits(want))

    def test_rejects_an_unknown_kind(self):
        block = TrajectoryBlock.from_columnar(
            ColumnarDataset.from_point_arrays([0], [np.zeros((2, 2))]), self.CELL
        )
        with pytest.raises(ValueError):
            batch_cell_bounds(block, np.zeros(1, dtype=np.int64), CellSet.from_points(np.zeros((1, 2)), self.CELL), "min")
