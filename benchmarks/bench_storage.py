"""Storage-tier benchmarks: cold start, scan throughput, build time.

Compares the two ways of getting from bytes-on-disk to a query-ready
engine on seeded city-like datasets:

* **parse**: flat CSV -> vectorized columnar ingest -> eager
  ``DITAEngine`` build (partitioning, tries, verification blocks);
* **reload**: ``TrajectoryStore.open`` (catalog only) ->
  ``DITAEngine.from_store`` — partition blocks open as
  ``np.memmap`` and only the partitions a query actually reaches are
  paged in and trie-indexed.

Both paths answer one search before the clock stops (time-to-first-
result), so laziness can't cheat by deferring all the work.  Also
reports full-scan throughput (CSV parse vs. memmap block scan over
every coordinate) and ``build_store`` cost.  Emits ``BENCH_storage.json``.

Run::

    PYTHONPATH=src python benchmarks/bench_storage.py            # full
    PYTHONPATH=src python benchmarks/bench_storage.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_storage.py --smoke \
        --check benchmarks/BENCH_storage.json                    # CI gate

``--check`` enforces (a) the absolute floor — reload beats parse by
>= 5x at the 10k scale — and (b) no >2x regression of the cold-start
ratio against the committed JSON.  Timings are min-of-reps (same
protocol as ``bench_kernels.py``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.core.config import DITAConfig
from repro.core.engine import DITAEngine
from repro.datagen import citywide_dataset
from repro.storage.store import TrajectoryStore, build_store
from repro.trajectory import load_csv, save_csv

FULL_SIZES = [2_000, 10_000]
SMOKE_SIZES = [2_000, 10_000]
N_GROUPS = 4
TAU = 0.003
#: the acceptance floor: reload must beat parse by at least this at >=10k
GATE_SCALE = 10_000
GATE_RATIO = 5.0


def best_of(fn: Callable[[], object], reps: int) -> float:
    """Minimum wall time of ``reps`` runs of ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _cfg() -> DITAConfig:
    return DITAConfig(
        num_global_partitions=N_GROUPS,
        trie_fanout=8,
        num_pivots=4,
        trie_leaf_capacity=8,
        cell_size=0.004,
    )


def _materialize(workdir: Path, n: int) -> Dict[str, Path]:
    """Write the CSV and the store for one dataset size; returns paths."""
    data = citywide_dataset(n, avg_len=24, seed=11, min_len=4, max_len=64)
    csv_path = workdir / f"data-{n}.csv"
    store_path = workdir / f"store-{n}"
    save_csv(data, csv_path)
    t0 = time.perf_counter()
    build_store(data, store_path, n_groups=N_GROUPS)
    build_s = time.perf_counter() - t0
    store_bytes = sum(f.stat().st_size for f in store_path.rglob("*") if f.is_file())
    return {
        "csv": csv_path,
        "store": store_path,
        "build_s": build_s,
        "csv_bytes": csv_path.stat().st_size,
        "store_bytes": store_bytes,
        "query": data.points(0).copy(),
        "n_points": data.n_points,
    }


def bench_cold_start(paths: Dict, n: int, reps: int) -> Dict[str, float]:
    """Time-to-first-result: CSV parse + eager build vs. store reload +
    lazy build, each ending with the same answered search."""
    from repro.trajectory.trajectory import Trajectory

    query = Trajectory(-1, paths["query"])

    def parse() -> int:
        block = load_csv(paths["csv"])
        engine = DITAEngine(block, _cfg())
        return len(engine.search(query, TAU))

    def reload() -> int:
        store = TrajectoryStore.open(paths["store"])
        engine = DITAEngine.from_store(store, _cfg())
        return len(engine.search(query, TAU))

    assert parse() == reload(), "cold-start paths must answer identically"
    parse_s = best_of(parse, reps)
    reload_s = best_of(reload, reps)
    row = {
        "n": n,
        "tau": TAU,
        "parse_s": parse_s,
        "reload_s": reload_s,
        "ratio": parse_s / reload_s if reload_s > 0 else float("inf"),
    }
    print(
        f"  cold-start n={n:<7} parse {parse_s:8.3f} s   "
        f"reload {reload_s:8.3f} s   {row['ratio']:6.1f}x"
    )
    return row


def bench_scan(paths: Dict, n: int, reps: int) -> Dict[str, float]:
    """Full-scan throughput: every coordinate summed, CSV parse vs.
    memmap block scan (fresh store handle per rep; the page cache stays
    warm for both sides, so this isolates decode cost)."""

    def scan_csv() -> float:
        return float(load_csv(paths["csv"]).point_coords.sum())

    def scan_store() -> float:
        store = TrajectoryStore.open(paths["store"])
        return float(
            sum(store.partition(pid).point_coords.sum() for pid in sorted(store.metas))
        )

    assert np.isclose(scan_csv(), scan_store(), rtol=0, atol=1e-6)
    csv_s = best_of(scan_csv, reps)
    store_s = best_of(scan_store, reps)
    nbytes = paths["n_points"] * 2 * 8
    row = {
        "n": n,
        "coord_bytes": nbytes,
        "csv_s": csv_s,
        "store_s": store_s,
        "csv_mb_s": nbytes / csv_s / 1e6 if csv_s > 0 else float("inf"),
        "store_mb_s": nbytes / store_s / 1e6 if store_s > 0 else float("inf"),
        "ratio": csv_s / store_s if store_s > 0 else float("inf"),
    }
    print(
        f"  scan       n={n:<7} csv {row['csv_mb_s']:8.1f} MB/s   "
        f"store {row['store_mb_s']:8.1f} MB/s   {row['ratio']:6.1f}x"
    )
    return row


def check_gate(fresh: dict, committed_path: Path) -> int:
    """CI gate: the absolute >=5x floor at the 10k scale, plus no >2x
    regression of any cold-start ratio vs. the committed JSON."""
    failures: List[str] = []
    gate_rows = [r for r in fresh["cold_start"] if r["n"] >= GATE_SCALE]
    if not gate_rows:
        failures.append(f"no cold-start measurement at n >= {GATE_SCALE}")
    for r in gate_rows:
        if r["ratio"] < GATE_RATIO:
            failures.append(
                f"cold-start reload/parse ratio {r['ratio']:.1f}x at n={r['n']} "
                f"is below the {GATE_RATIO:.0f}x floor"
            )
    committed = json.loads(committed_path.read_text())
    com_by_n = {row["n"]: row for row in committed["cold_start"]}
    for r in fresh["cold_start"]:
        com = com_by_n.get(r["n"])
        if com is not None and r["ratio"] < com["ratio"] / 2:
            failures.append(
                f"cold-start ratio {r['ratio']:.1f}x at n={r['n']} regressed >2x "
                f"vs committed {com['ratio']:.1f}x"
            )
    if failures:
        for f in failures:
            print(f"REGRESSION: {f}")
        return 1
    print(
        f"check OK vs {committed_path.name}: "
        + ", ".join(f"n={r['n']} {r['ratio']:.1f}x" for r in fresh["cold_start"])
    )
    return 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="CI-sized run (few reps)")
    ap.add_argument("--out", type=Path, default=None, help="output JSON path")
    ap.add_argument(
        "--check", type=Path, default=None,
        help="committed BENCH_storage.json to gate against "
             "(exit 1 below the 5x floor or on >2x regression)",
    )
    args = ap.parse_args()
    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    reps = 2 if args.smoke else 3
    out_path = args.out or Path(__file__).resolve().parent / "BENCH_storage.json"

    cold_rows: List[Dict[str, float]] = []
    scan_rows: List[Dict[str, float]] = []
    build_rows: List[Dict[str, float]] = []
    workdir = Path(tempfile.mkdtemp(prefix="bench_storage_"))
    try:
        print("== cold start: CSV parse + eager build vs store reload + lazy build ==")
        staged = {n: _materialize(workdir, n) for n in sizes}
        for n in sizes:
            paths = staged[n]
            build_rows.append(
                {
                    "n": n,
                    "build_s": paths["build_s"],
                    "csv_bytes": paths["csv_bytes"],
                    "store_bytes": paths["store_bytes"],
                }
            )
            cold_rows.append(bench_cold_start(paths, n, reps))
        print("== full-scan throughput: CSV decode vs memmap block scan ==")
        for n in sizes:
            scan_rows.append(bench_scan(staged[n], n, reps))
        print("== build_store cost ==")
        for row in build_rows:
            print(
                f"  build      n={row['n']:<7} {row['build_s']:8.3f} s   "
                f"store {row['store_bytes']/1e6:7.2f} MB   "
                f"csv {row['csv_bytes']/1e6:7.2f} MB"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "meta": {
            "smoke": args.smoke,
            "reps": reps,
            "sizes": sizes,
            "n_groups": N_GROUPS,
            "tau": TAU,
            "seed": 11,
            "timer": "min-of-reps perf_counter",
        },
        "cold_start": cold_rows,
        "scan": scan_rows,
        "build": build_rows,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {out_path}")

    if args.check is not None:
        sys.exit(check_gate(result, args.check))


if __name__ == "__main__":
    main()
