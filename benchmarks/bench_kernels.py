"""Kernel micro-benchmarks: wavefront DP vs. the reference loops.

Times the vectorized distance kernels (DTW, discrete Fréchet, EDR, ERP,
LCSS and Sakoe-Chiba banded DTW) against their per-cell Python loops
(``tests/oracles/dp_reference.py``) across trajectory lengths, the
threshold/early-abandon variants (LCSS's against the loop's value cut at
``tau``), the batched
filter-verification stages (Lemma 5.4 + Lemma 5.6 as matrix ops) against
the per-pair loop, the Lemma 5.6 cell bound alone against the 3-D form it
replaced (``tests/oracles/cell_bounds_reference.py``), and — at the 24 and
40 points Beijing and Chengdu trips average, where the workloads actually
run them — the pair-batched verification sweeps
(:mod:`repro.kernels.pairbatch`) against the per-pair kernels.  Emits
``BENCH_kernels.json``; every time in it is wall clock.

Run::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI-sized

Timings are min-of-reps (the usual micro-benchmark estimator: the minimum
is the least noisy statistic of a timing distribution whose noise is
strictly additive).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

# the loops the kernels are timed against are the test suite's oracles
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles.cell_bounds_reference import batch_cell_bounds_reference  # noqa: E402
from oracles.dp_reference import (  # noqa: E402
    dtw_reference,
    dtw_threshold_reference,
    dtw_window_reference,
    edr_reference,
    edr_threshold_reference,
    erp_reference,
    erp_threshold_reference,
    frechet_reference,
    frechet_threshold_reference,
    lcss_reference,
)
from oracles.per_pair import cell_bound_dtw, mbr_coverage_ok  # noqa: E402
from repro.core.verify import VerificationData
from repro.datagen import beijing_like
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
    lcss,
    lcss_dissimilarity,
    lcss_threshold,
)
from repro.geometry.point import pairwise_distances
from repro.kernels import TrajectoryBlock, batch_cell_bounds, batch_mbr_coverage
from repro.kernels.pairbatch import (
    _sweep,
    dtw_double_direction_batch,
    frechet_threshold_batch,
)
from repro.core.numerics import slack
from repro.storage.columnar import ColumnarDataset

FULL_LENGTHS = [64, 128, 256, 512]
SMOKE_LENGTHS = [32, 64]
#: the pair-batch series: average trip lengths of the two cities, and batch
#: sizes from one partition's share of a search (1, 2), through a kNN
#: round's (6, 48), to a join chunk's (256)
PAIR_LENGTHS = [24, 40]
PAIR_COUNTS = [1, 2, 6, 48, 256]
#: the cell-bound series: candidate rows per call, from one kNN chunk's
#: survivors of the endpoint bound (16), through a chunk or a search's
#: candidates (256), to a join chunk's (2048)
CELL_BOUND_ROWS = [16, 256, 2048]
EDR_EPS = 0.002
#: LCSS's index constraint and the Sakoe-Chiba window, in points
LCSS_DELTA = 3
DTW_WINDOW = 8
CELL_SIZE = 0.004


def walk(rng: np.random.Generator, n: int, d: int = 2) -> np.ndarray:
    """A GPS-like random walk: small normal steps from a uniform start."""
    start = rng.uniform(0.0, 1.0, size=d)
    steps = rng.normal(scale=1e-3, size=(n, d))
    steps[0] = 0.0
    return start + np.cumsum(steps, axis=0)


def best_of(fn: Callable[[], object], reps: int) -> float:
    """Minimum wall time of ``reps`` runs of ``fn`` (seconds)."""
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def lcss_threshold_loop(a, b, epsilon: float, delta: int, tau: float) -> float:
    """The reference loop's LCSS dissimilarity, cut at ``tau``."""
    value = float(min(len(a), len(b)) - lcss_reference(a, b, epsilon, delta))
    return value if value <= tau else float("inf")


def bench_pair(ref: Callable, vec: Callable, a, b, reps: int, *args) -> Dict[str, float]:
    ref_s = best_of(lambda: ref(a, b, *args), reps)
    vec_s = best_of(lambda: vec(a, b, *args), reps)
    return {
        "ref_s": ref_s,
        "vec_s": vec_s,
        "speedup": ref_s / vec_s if vec_s > 0 else float("inf"),
    }


def bench_kernels(lengths: List[int], reps: int, rng: np.random.Generator) -> Dict[str, list]:
    erp_gap = np.zeros(2)
    kernels = {
        "dtw": (dtw_reference, dtw, ()),
        "frechet": (frechet_reference, frechet, ()),
        "edr": (edr_reference, edr, (EDR_EPS,)),
        "erp": (erp_reference, erp, (erp_gap,)),
        "lcss": (lcss_reference, lcss, (EDR_EPS, LCSS_DELTA)),
        "dtw_window": (dtw_window_reference, dtw_window, (DTW_WINDOW,)),
    }
    out: Dict[str, list] = {name: [] for name in kernels}
    for n in lengths:
        a, b = walk(rng, n), walk(rng, n)
        for name, (ref, vec, args) in kernels.items():
            row = {"n": n, **bench_pair(ref, vec, a, b, reps, *args)}
            out[name].append(row)
            print(f"  {name:<10} n={n:<5} ref {row['ref_s']*1e3:9.3f} ms   "
                  f"vec {row['vec_s']*1e3:8.3f} ms   {row['speedup']:6.1f}x")
    return out


def bench_threshold(lengths: List[int], reps: int, rng: np.random.Generator) -> Dict[str, list]:
    """Threshold variants at a tau that triggers genuine early abandon
    (three-quarters of the exact distance) — the pruning path both sides
    must take, not the degenerate accept-everything case."""
    erp_gap = np.zeros(2)
    variants = {
        "dtw_threshold": (dtw_threshold_reference, dtw_threshold, dtw, ()),
        "frechet_threshold": (frechet_threshold_reference, frechet_threshold, frechet, ()),
        "edr_threshold": (edr_threshold_reference, edr_threshold, edr, (EDR_EPS,)),
        "erp_threshold": (erp_threshold_reference, erp_threshold, erp, (erp_gap,)),
        "lcss_threshold": (
            lcss_threshold_loop, lcss_threshold, lcss_dissimilarity, (EDR_EPS, LCSS_DELTA)
        ),
    }
    out: Dict[str, list] = {name: [] for name in variants}
    for n in lengths:
        a, b = walk(rng, n), walk(rng, n)
        for name, (ref, vec, exact, args) in variants.items():
            tau = 0.75 * float(exact(a, b, *args))
            row = {"n": n, "tau": tau, **bench_pair(ref, vec, a, b, reps, *args, tau)}
            out[name].append(row)
            print(f"  {name:<18} n={n:<5} ref {row['ref_s']*1e3:9.3f} ms   "
                  f"vec {row['vec_s']*1e3:8.3f} ms   {row['speedup']:6.1f}x")
    return out


def bench_batch_filter(n_trajs: int, reps: int) -> Dict[str, float]:
    """The Lemma 5.4 + 5.6 filter stages over a whole candidate list:
    per-pair loop vs. the stacked matrix path on identical inputs."""
    data = list(beijing_like(n_trajs, seed=7))
    dataset = ColumnarDataset.from_trajectories(data)
    verification = {t.traj_id: VerificationData.of(t, CELL_SIZE) for t in data}
    block = TrajectoryBlock.from_columnar(dataset, CELL_SIZE)
    q = data[0]
    q_data = verification[q.traj_id]
    tau = 0.01
    tau_s = slack(tau)
    rows = dataset.alive_rows()

    def loop() -> int:
        kept = 0
        for t in data:
            t_data = verification[t.traj_id]
            if not mbr_coverage_ok(t_data.mbr, q_data.mbr, tau):
                continue
            if cell_bound_dtw(t_data.cells, q_data.cells) > tau_s:
                continue
            kept += 1
        return kept

    def batch() -> int:
        mask = batch_mbr_coverage(block, rows, q_data.mbr.low, q_data.mbr.high, tau_s)
        keep = rows[np.nonzero(mask)[0]]
        if keep.size:
            bounds = batch_cell_bounds(block, keep, q_data.cells, "sum")
            return int((bounds <= tau_s).sum())
        return 0

    assert loop() == batch(), "batched filter disagrees with the per-pair loop"
    loop_s = best_of(loop, reps)
    batch_s = best_of(batch, reps)
    row = {
        "n_candidates": n_trajs,
        "loop_s": loop_s,
        "batch_s": batch_s,
        "speedup": loop_s / batch_s if batch_s > 0 else float("inf"),
    }
    print(f"  filter stages over {n_trajs} candidates: loop {loop_s*1e3:8.3f} ms   "
          f"batch {batch_s*1e3:8.3f} ms   {row['speedup']:6.1f}x")
    return row


def bench_cell_bounds(reps: int) -> Dict[str, object]:
    """The Lemma 5.6 bound of ``rows`` Beijing-length trips against one
    query, microseconds per row: the kernel (one coordinate axis at a time,
    square root after the minima) against the ``(cells, nq, d)`` form.
    Every float is checked identical before anything is timed."""
    dataset = beijing_like(max(CELL_BOUND_ROWS), seed=7)
    block = TrajectoryBlock.from_columnar(dataset, CELL_SIZE)
    queries = [VerificationData.of(dataset[i], CELL_SIZE).cells for i in range(0, 80, 10)]
    series: Dict[str, list] = {"sum": [], "max": []}
    for kind in series:
        for n in CELL_BOUND_ROWS:
            rows = np.arange(n, dtype=np.int64)
            for q in queries:
                got = batch_cell_bounds(block, rows, q, kind)
                want = batch_cell_bounds_reference(block, rows, q, kind)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
                    "cell bound is not bit-identical to the 3-D reference"
                )
            per_row = 1e6 / (n * len(queries))
            ref_us = per_row * best_of(
                lambda: [batch_cell_bounds_reference(block, rows, q, kind) for q in queries], reps
            )
            us = per_row * best_of(
                lambda: [batch_cell_bounds(block, rows, q, kind) for q in queries], reps
            )
            series[kind].append(
                {"rows": n, "reference_us_per_row": ref_us, "us_per_row": us, "speedup": ref_us / us}
            )
            print(f"  {kind:>3} bound over {n:5d} rows: 3-D form {ref_us:7.2f} us/row   "
                  f"kernel {us:7.2f} us/row   {ref_us / us:5.2f}x")
    return {"rows": CELL_BOUND_ROWS, "queries": len(queries), "clock": "wall", **series}


def bench_pair_batch(reps: int, rng: np.random.Generator) -> Dict[str, object]:
    """Verification's exact stage over ``pairs`` surviving pairs of
    ``n``-point trajectories: the per-pair kernel in a loop against one
    pair-batched call, answers compared bit for bit first.  Every pair is
    a trip against a noisy re-observation of itself at a threshold 1.5x
    its distance, so no sweep abandons early: the full tables are timed.

    Also times the sweep on its own (cost matrices given) at one pair and
    at 256, for the two costs the kernel's bucketing constant compares: a
    diagonal's fixed cost (one pair: nothing to amortise it over) and a
    padded cell's marginal cost (what 255 more pairs add, per cell)."""
    series: Dict[str, list] = {"dtw_double_direction": [], "frechet_threshold": []}
    kernels = {
        "dtw_double_direction": (dtw_double_direction, dtw_double_direction_batch, dtw),
        "frechet_threshold": (frechet_threshold, frechet_threshold_batch, frechet),
    }
    for n in PAIR_LENGTHS:
        for pairs in PAIR_COUNTS:
            ts = [walk(rng, n) for _ in range(pairs)]
            qs = [t + rng.normal(scale=1e-4, size=t.shape) for t in ts]
            cost_s = best_of(lambda: [pairwise_distances(t, q) for t, q in zip(ts, qs)], reps)
            for name, (single, batch, exact) in kernels.items():
                taus = [1.5 * exact(t, q) for t, q in zip(ts, qs)]
                want = np.asarray([single(t, q, x) for t, q, x in zip(ts, qs, taus)])
                got = batch(ts, qs, taus)
                assert np.array_equal(want.view(np.uint64), got.view(np.uint64)), (
                    f"{name}: the batched sweep disagrees with the per-pair kernel"
                )
                loop_s = best_of(lambda: [single(t, q, x) for t, q, x in zip(ts, qs, taus)], reps)
                batch_s = best_of(lambda: batch(ts, qs, taus), reps)
                row = {
                    "n": n,
                    "pairs": pairs,
                    "loop_us_per_pair": loop_s / pairs * 1e6,
                    "batch_us_per_pair": batch_s / pairs * 1e6,
                    "cost_matrix_us_per_pair": cost_s / pairs * 1e6,
                    "speedup": loop_s / batch_s if batch_s > 0 else float("inf"),
                }
                series[name].append(row)
                print(f"  {name:<21} n={n:<3} pairs={pairs:<4} "
                      f"loop {row['loop_us_per_pair']:7.1f} us/pair   "
                      f"batch {row['batch_us_per_pair']:7.1f} us/pair   {row['speedup']:5.2f}x")
    # the sweep's two cost terms: a double-direction pair is two half-tables
    terms = []
    for n in PAIR_LENGTHS:
        half = (n + 1) // 2
        few = [rng.random((half, n)) for _ in range(2)]
        many = [rng.random((half, n)) for _ in range(2 * PAIR_COUNTS[-1])]
        few_s = best_of(lambda: _sweep(few, np.full(len(few), 1e9), np.add), reps)
        many_s = best_of(lambda: _sweep(many, np.full(len(many), 1e9), np.add), reps)
        us_per_diagonal = few_s * 1e6 / (half + n - 1)
        ns_per_cell = (many_s - few_s) * 1e9 / ((len(many) - len(few)) * half * n)
        terms.append({
            "n": n,
            "us_per_diagonal": us_per_diagonal,
            "ns_per_cell": ns_per_cell,
            "diagonal_overhead_cells": us_per_diagonal * 1e3 / ns_per_cell,
        })
        print(f"  sweep at n={n}: {us_per_diagonal:.1f} us a diagonal, {ns_per_cell:.1f} ns a cell "
              f"-> one diagonal costs what {terms[-1]['diagonal_overhead_cells']:.0f} cells do")
    return {"lengths": PAIR_LENGTHS, "pair_counts": PAIR_COUNTS, **series, "sweep_cost_terms": terms}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="CI-sized run (short lengths, few reps)")
    ap.add_argument("--out", type=Path, default=None, help="output JSON path")
    args = ap.parse_args()
    lengths = SMOKE_LENGTHS if args.smoke else FULL_LENGTHS
    reps = 3 if args.smoke else 5
    out_path = args.out or Path(__file__).resolve().parent / "BENCH_kernels.json"
    rng = np.random.default_rng(7)

    print("== exact kernels (wavefront vs reference loop) ==")
    kernels = bench_kernels(lengths, reps, rng)
    print("== threshold / early-abandon variants ==")
    threshold = bench_threshold(lengths, reps, rng)
    print("== batched filter-verification stages ==")
    batch_filter = bench_batch_filter(64 if args.smoke else 300, reps)
    print("== Lemma 5.6 cell bound (3-D reference form vs the axis-at-a-time kernel) ==")
    cell_bounds = bench_cell_bounds(reps)
    print("== pair-batched verification sweeps (per-pair kernel vs one batched call) ==")
    pair_batch = bench_pair_batch(3 * reps, rng)

    result = {
        "meta": {
            "smoke": args.smoke,
            "reps": reps,
            "lengths": lengths,
            "seed": 7,
            "timer": "min-of-reps perf_counter",
            "clock": "wall",
            "cpu_count": os.cpu_count(),
        },
        "kernels": kernels,
        "threshold": threshold,
        "batch_filter": batch_filter,
        "cell_bounds": cell_bounds,
        "pair_batch": pair_batch,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
