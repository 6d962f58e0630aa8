"""Command-line interface for the DITA reproduction.

Usage (after ``pip install -e .``)::

    python -m repro.cli generate --kind beijing --n 1000 --out trips.jsonl
    python -m repro.cli stats trips.jsonl
    python -m repro.cli search trips.jsonl --query-id 7 --tau 0.003
    python -m repro.cli join trips.jsonl --tau 0.002
    python -m repro.cli knn trips.jsonl --query-id 7 --k 5
    python -m repro.cli cluster trips.jsonl --tau 0.003 --min-pts 3
    python -m repro.cli trace trips.jsonl --mode join --tau 0.002 --chrome trace.json
    python -m repro.cli store build trips.jsonl --out trips.store --groups 8
    python -m repro.cli store inspect trips.store
    python -m repro.cli store verify trips.store
    python -m repro.cli store merge trips.gens --dataset trips.jsonl --groups 8
    python -m repro.cli ingest trips.jsonl --n 500 --root trips.gens

Datasets are JSON-lines files (see :mod:`repro.trajectory.io`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.adapters import available_adapters
from .core.config import DITAConfig
from .core.engine import DITAEngine
from .core.knn import knn_search
from .datagen import beijing_like, chengdu_like, citywide_dataset, osm_like, random_walk_dataset
from .storage.columnar import ColumnarDataset
from .trajectory import dataset_stats, load_csv, load_jsonl, save_jsonl, stats_header

_GENERATORS = {
    "beijing": beijing_like,
    "chengdu": chengdu_like,
    "osm": osm_like,
    "citywide": citywide_dataset,
    "random": random_walk_dataset,
}


def _engine(dataset: ColumnarDataset, args: argparse.Namespace) -> DITAEngine:
    config = DITAConfig(
        num_global_partitions=args.partitions,
        trie_fanout=args.fanout,
        num_pivots=args.pivots,
        backend=args.backend,
        num_processes=args.workers,
    )
    return DITAEngine(dataset, config, distance=args.distance)


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--distance", default="dtw", choices=available_adapters())
    p.add_argument("--partitions", type=int, default=4, help="NG, global partition groups")
    p.add_argument("--fanout", type=int, default=8, help="NL, trie fanout")
    p.add_argument("--pivots", type=int, default=4, help="K, pivots per trajectory")
    p.add_argument(
        "--backend", default="simulated", choices=["simulated", "process"],
        help="task execution backend (process = real multi-core pool)",
    )
    p.add_argument(
        "--workers", type=int, default=0,
        help="process-pool size for --backend process (0 = all cores)",
    )


def cmd_generate(args: argparse.Namespace) -> int:
    gen = _GENERATORS[args.kind]
    dataset = gen(args.n, seed=args.seed)
    save_jsonl(dataset, args.out)
    print(f"wrote {len(dataset)} trajectories to {args.out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    dataset = load_jsonl(args.dataset)
    print(stats_header())
    print(dataset_stats(dataset).row(args.dataset))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    dataset = load_jsonl(args.dataset)
    if args.query_id not in dataset:
        print(f"error: no trajectory with id {args.query_id}", file=sys.stderr)
        return 1
    engine = _engine(dataset, args)
    query = dataset.by_id(args.query_id)
    matches = sorted(engine.search(query, args.tau), key=lambda m: m[1])
    print(f"{len(matches)} trajectories within {args.distance} {args.tau} of #{args.query_id}")
    for t, d in matches[: args.limit]:
        print(f"  {t.traj_id:>8}  {d:.6f}")
    return 0


def cmd_join(args: argparse.Namespace) -> int:
    dataset = load_jsonl(args.dataset)
    engine = _engine(dataset, args)
    pairs = engine.self_join(args.tau)
    pairs.sort(key=lambda p: p[2])
    print(f"{len(pairs)} similar pairs at {args.distance} <= {args.tau}")
    for a, b, d in pairs[: args.limit]:
        print(f"  ({a:>6}, {b:>6})  {d:.6f}")
    return 0


def cmd_knn(args: argparse.Namespace) -> int:
    dataset = load_jsonl(args.dataset)
    if args.query_id not in dataset:
        print(f"error: no trajectory with id {args.query_id}", file=sys.stderr)
        return 1
    engine = _engine(dataset, args)
    query = dataset.by_id(args.query_id)
    for t, d in knn_search(engine, query, args.k):
        print(f"  {t.traj_id:>8}  {d:.6f}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    from .analytics import TrajectoryDBSCAN

    dataset = load_jsonl(args.dataset)
    engine = _engine(dataset, args)
    result = TrajectoryDBSCAN(eps=args.tau, min_pts=args.min_pts).fit(engine)
    print(f"{result.n_clusters} clusters, {len(result.noise())} noise trajectories")
    for i, members in enumerate(result.clusters()[: args.limit]):
        print(f"  cluster {i}: {len(members)} members: {members[:10]}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs import format_breakdown

    dataset = load_jsonl(args.dataset)
    engine = _engine(dataset, args)
    engine.enable_tracing()
    if args.mode == "search":
        if args.query_id is None:
            print("error: --query-id is required for --mode search", file=sys.stderr)
            return 1
        query = dataset.by_id(args.query_id)
        matches = engine.search(query, args.tau)
        title = f"search query=#{args.query_id} tau={args.tau}: {len(matches)} matches"
    elif args.mode == "join":
        pairs = engine.self_join(args.tau)
        title = f"self-join tau={args.tau}: {len(pairs)} pairs"
    else:
        if args.query_id is None:
            print("error: --query-id is required for --mode knn", file=sys.stderr)
            return 1
        query = dataset.by_id(args.query_id)
        neighbours = knn_search(engine, query, args.k)
        title = f"knn query=#{args.query_id} k={args.k}: {len(neighbours)} neighbours"
    tracer = engine.cluster.tracer
    print(
        format_breakdown(
            tracer.spans, engine.cluster.report(), registry=engine.metrics, title=title
        )
    )
    if args.out:
        Path(args.out).write_text(tracer.export_json())
        print(f"wrote trace to {args.out}")
    if args.chrome:
        Path(args.chrome).write_text(tracer.export_chrome())
        print(f"wrote chrome://tracing file to {args.chrome}")
    return 0


def cmd_store_build(args: argparse.Namespace) -> int:
    from .storage.store import build_store

    loader = load_csv if args.dataset.endswith(".csv") else load_jsonl
    data = loader(args.dataset)
    store = build_store(data, args.out, n_groups=args.groups)
    total = sum(f.stat().st_size for f in store.path.rglob("*") if f.is_file())
    print(
        f"wrote {len(store)} partitions ({store.n_trajectories} trajectories, "
        f"{store.n_points} points, {total / 1e6:.2f} MB) to {args.out}"
    )
    return 0


def cmd_store_inspect(args: argparse.Namespace) -> int:
    import json

    from .storage.store import StorageError, TrajectoryStore

    try:
        store = TrajectoryStore.open(args.store)
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(store.describe(), indent=2))
    return 0


def cmd_store_verify(args: argparse.Namespace) -> int:
    from .storage.store import StorageError, TrajectoryStore

    try:
        TrajectoryStore.open(args.store, verify=True)
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.store}: all block checksums match the catalog")
    return 0


def cmd_store_merge(args: argparse.Namespace) -> int:
    import json

    from .storage.store import StorageError

    try:
        if args.dataset:
            # seed (or advance) the root from a flat dataset file
            engine = _engine(load_jsonl(args.dataset), args)
            engine.attach_generations(args.root)
        else:
            engine = DITAEngine.from_generations(
                args.root, distance=args.distance
            )
        generation = engine.merge(prune=args.prune)
    except (StorageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"committed generation {generation}")
    print(json.dumps(engine.generations.describe(), indent=2))
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from .datagen import sample_queries

    data = load_jsonl(args.dataset)
    engine = _engine(data, args)
    if args.root:
        engine.attach_generations(args.root)
    rng = np.random.default_rng(args.seed)
    next_id = int(data.traj_ids.max()) + 1
    queries = sample_queries(data, max(1, min(8, len(data))), seed=args.seed)
    merges = repartitions = 0
    latencies = []
    t0 = time.perf_counter()
    for k in range(args.n):
        src = data.points(int(rng.integers(len(data))))
        engine.append_trajectory(next_id + k, src + rng.normal(0.0, args.spread, size=src.shape))
        if (k + 1) % args.query_every == 0:
            q = queries[(k // args.query_every) % len(queries)]
            tq = time.perf_counter()
            engine.search(q, args.tau)
            latencies.append(time.perf_counter() - tq)
        if engine.maybe_repartition():
            repartitions += 1
        if engine.maybe_merge(prune=True):
            merges += 1
    if engine.generations is not None and (engine.n_pending or engine.runtime.rows_since_merge):
        # a final merge so the durable root holds everything just ingested
        engine.merge(prune=True)
        merges += 1
    elapsed = time.perf_counter() - t0
    print(
        f"ingested {args.n} trajectories in {elapsed:.2f}s "
        f"({args.n / elapsed:.0f}/s); engine now holds {len(engine)}"
    )
    print(
        f"merges: {merges}  repartitions: {repartitions}  "
        f"skew ratio: {engine.skew_ratio():.2f}"
    )
    if latencies:
        print(
            f"queries: {len(latencies)}  mean latency: "
            f"{1e3 * sum(latencies) / len(latencies):.2f} ms"
        )
    if engine.generations is not None:
        print(f"generation: {engine.generations.generation}")
    engine.shutdown()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=sorted(_GENERATORS), default="beijing")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("stats", help="print Table-2-style dataset statistics")
    p.add_argument("dataset")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("search", help="threshold similarity search")
    p.add_argument("dataset")
    p.add_argument("--query-id", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--limit", type=int, default=20)
    _add_engine_args(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("join", help="threshold similarity self-join")
    p.add_argument("dataset")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--limit", type=int, default=20)
    _add_engine_args(p)
    p.set_defaults(fn=cmd_join)

    p = sub.add_parser("knn", help="k-nearest-neighbour search")
    p.add_argument("dataset")
    p.add_argument("--query-id", type=int, required=True)
    p.add_argument("--k", type=int, default=5)
    _add_engine_args(p)
    p.set_defaults(fn=cmd_knn)

    p = sub.add_parser("cluster", help="DBSCAN route clustering")
    p.add_argument("dataset")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--min-pts", type=int, default=3)
    p.add_argument("--limit", type=int, default=10)
    _add_engine_args(p)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("trace", help="run one traced job and print the per-stage breakdown")
    p.add_argument("dataset")
    p.add_argument("--mode", choices=["search", "join", "knn"], default="search")
    p.add_argument("--query-id", type=int, help="query id (search/knn modes)")
    p.add_argument("--tau", type=float, default=0.005)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", help="write the span trace as JSON")
    p.add_argument("--chrome", help="write a chrome://tracing events file")
    _add_engine_args(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("store", help="build / inspect / verify a persisted columnar store")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    q = store_sub.add_parser("build", help="partition a dataset file into a store directory")
    q.add_argument("dataset", help=".csv or .jsonl dataset file")
    q.add_argument("--out", required=True, help="store directory to create")
    q.add_argument("--groups", type=int, default=8, help="NG, partition groups")
    q.set_defaults(fn=cmd_store_build)
    q = store_sub.add_parser("inspect", help="print the catalog summary (no block bytes read)")
    q.add_argument("store")
    q.set_defaults(fn=cmd_store_inspect)
    q = store_sub.add_parser(
        "merge", help="compact into the next generation of a generational store root"
    )
    q.add_argument("root", help="generational store root (holds CURRENT + gen-NNNNN/)")
    q.add_argument(
        "--dataset", default=None,
        help="seed/advance the root from this JSON-lines dataset instead of the live generation",
    )
    q.add_argument("--prune", action="store_true", help="delete superseded generations' blocks")
    _add_engine_args(q)
    q.set_defaults(fn=cmd_store_merge)
    q = store_sub.add_parser("verify", help="check every block's CRC32 against the catalog")
    q.add_argument("store")
    q.set_defaults(fn=cmd_store_verify)

    p = sub.add_parser(
        "ingest", help="stream synthetic appends into a live engine (demo of the write path)"
    )
    p.add_argument("dataset", help="JSON-lines base dataset")
    p.add_argument("--n", type=int, default=200, help="trajectories to append")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spread", type=float, default=0.002, help="jitter stddev around source rows")
    p.add_argument("--tau", type=float, default=0.004, help="threshold of the interleaved queries")
    p.add_argument("--query-every", type=int, default=20, help="run one search every N appends")
    p.add_argument("--root", default=None, help="generational store root to merge into")
    _add_engine_args(p)
    p.set_defaults(fn=cmd_ingest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
