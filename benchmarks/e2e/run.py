"""The end-to-end benchmark's one command.

Driver form, one run of one workload, result as the last line of stdout::

    python3 benchmarks/e2e/run.py --workload city_read --seed 1 --seconds 20 --trace 0

Everything, for a person (each run is the driver form in a subprocess)::

    python3 benchmarks/e2e/run.py --all --seed 1 --repeat 10 --out DIR
    python3 benchmarks/e2e/run.py --all --smoke
    python3 benchmarks/e2e/run.py --compare benchmarks/e2e/BENCH_e2e.json DIR

Every time is a wall-clock time divided by the host's speed factor at that
moment (``harness.Speedometer``; the record keeps the unscaled medians under
``wall``); ``metrics.SIM_METRICS`` names the one count that comes from the
simulated clock.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere: one BLAS thread, so a kernel's time
# does not depend on what else the host is doing with its other core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from harness import HERE, ROOT, contract  # noqa: E402  (after the thread pins: it imports numpy)

#: per-workload watchdog: the contract allows a run 180 s
WATCHDOG_S = 170.0
#: how every time here was taken (see harness.Speedometer)
CLOCK = "wall, scaled to reference speed"


def prepare_imports() -> None:
    """Put the program's source on the path; leave with an error when there
    is no program to measure."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


# --------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------- #


def run_once(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    """Run one workload in this process; returns the full record (the
    driver's line is its ``correct``/``attempted``/``failed``/``metrics``)."""
    prepare_imports()
    from harness import install_signal_handlers, scratch_dir
    from workloads import WORKLOADS

    spec = contract()
    install_signal_handlers(WATCHDOG_S)
    with scratch_dir() as scratch:
        workload = WORKLOADS[name](seed, smoke, scratch)
        res = workload.execute(seconds, trace)
    m = res.measured
    extra: Dict[str, Any] = {}
    if trace:
        metrics = {
            d["name"]: {"value": float(res.layer.get(d["name"], 0.0)), "unit": d["unit"]}
            for d in spec["per_layer"]
        }
        unknown = sorted(set(res.layer) - set(metrics))
        if unknown:
            res.problems.append(f"layer metrics not in BENCHMARK.json: {unknown}")
    else:
        values = {"setup_s": statistics.median(res.setups), **m.summary(workload.tail_pct)}
        metrics = {
            d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in spec["end_to_end"]
        }
        # what the wall clock read, before the scaling to reference speed
        extra = {
            "wall": {
                "setup_s": statistics.median(res.wall_setups),
                "op_p50_ms": values["wall_op_p50_ms"],
                "ops_per_s": values["wall_ops_per_s"],
            },
            "speed_factor": values["speed_factor"],
        }
    attempted, failed = m.ops + res.checked, m.failed + len(res.problems)
    for p in res.problems[:20]:
        print(f"{name}: {p}", file=sys.stderr)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "clock": CLOCK,
        "correct": failed == 0 and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
        **extra,
        "samples": m.ops,
        "passes": len(m.passes),
        "sizes": res.sizes,
        "input_digest": res.input_digest,
        "spans": res.spans,
    }


def driver_line(record: Dict[str, Any]) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


# --------------------------------------------------------------------- #
# all workloads, as subprocesses of the driver form
# --------------------------------------------------------------------- #


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_all(seed: int, repeat: int, seconds: float, smoke: bool, out_dir: Optional[Path]) -> int:
    prepare_imports()
    from harness import Interrupted, install_signal_handlers, run_in_group
    from metrics import SIM_METRICS

    spec = contract()
    install_signal_handlers(3600.0)
    runs: List[Dict[str, Any]] = []
    spans: Dict[str, Any] = {}
    ok = True
    try:
        for w in spec["workloads"]:
            for s in range(seed, seed + repeat):
                # layer metrics carry no bound: one traced run per workload
                for trace in (0, 1) if s == seed else (0,):
                    argv = [
                        sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                        "--seed", str(s), "--seconds", repr(seconds), "--trace", str(trace),
                        "--record",
                    ] + (["--smoke"] if smoke else [])
                    try:
                        record = json.loads(run_in_group(argv, WATCHDOG_S + 10).strip().splitlines()[-1])
                    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
                        print(f"{w['name']} seed {s} trace {trace}: no result ({exc})", file=sys.stderr)
                        ok = False
                        continue
                    ok = ok and record["correct"]
                    if trace:
                        spans[w["name"]] = record["spans"]
                    del record["spans"]
                    runs.append(record)
                    print_record(record)
    except Interrupted as exc:
        print(f"interrupted by {exc}", file=sys.stderr)
        return 2
    envelope = {
        "schema": 1,
        "clock": CLOCK,
        "sim_metrics": list(SIM_METRICS),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "git_sha": git_sha(),
        "seed": seed,
        "repeat": repeat,
        "seconds": seconds,
        "smoke": smoke,
        "runs": runs,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "result.json").write_text(json.dumps(envelope, indent=1) + "\n")
        (out_dir / "trace.json").write_text(json.dumps({"clock": "wall", "spans": spans}) + "\n")
    if repeat > 1:
        print_spreads(envelope, spec)
    print("all correct" if ok else "FAILED: see stderr", file=sys.stderr)
    return 0 if ok else 1


def print_record(record: Dict[str, Any]) -> None:
    kind = "traced" if record["trace"] else "end-to-end"
    print(
        f"{record['workload']} seed {record['seed']} [{kind}, clock: {record['clock']}] "
        f"attempted {record['attempted']} failed {record['failed']} "
        f"samples {record['samples']} passes {record['passes']}"
    )
    for name, m in record["metrics"].items():
        if record["trace"] and m["value"] == 0.0:
            continue  # a layer this workload does not touch
        print(f"    {name:36s} {m['value']:14.4f} {m['unit']}")


def end_to_end_values(envelope: Dict[str, Any]) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for r in envelope["runs"]:
        if r["trace"]:
            continue
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def spread_of(values: List[float]) -> Optional[float]:
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def print_spreads(envelope: Dict[str, Any], spec: Dict[str, Any]) -> None:
    bounds = {d["name"]: d["bound"] for d in spec["end_to_end"]}
    print(f"{'workload':14s} {'metric':12s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for (w, name), values in sorted(end_to_end_values(envelope).items()):
        s = spread_of(values)
        flag = "" if s is None or s <= bounds[name] / 3 else ("  > bound/3" if s <= bounds[name] else "  > BOUND")
        print(f"{w:14s} {name:12s} {statistics.median(values):12.4f} {s or 0.0:8.3f} {bounds[name]:6.2f}{flag}")


# --------------------------------------------------------------------- #
# compare two result sets
# --------------------------------------------------------------------- #


def load_result_set(path: Path) -> Dict[str, Any]:
    if path.is_dir():
        path = path / "result.json"
    return json.loads(path.read_text())


def compare(a_path: Path, b_path: Path) -> int:
    """Per workload x end-to-end metric: ``ok``, ``regressed`` (B's median is
    worse than A's by more than the bound) or ``unresolved`` (either side's
    run-to-run spread is wider than the bound, so the bound cannot be
    applied).  Exit code 1 when anything regressed."""
    spec = contract()
    meta = {d["name"]: d for d in spec["end_to_end"]}
    a, b = end_to_end_values(load_result_set(a_path)), end_to_end_values(load_result_set(b_path))
    regressed = 0
    print(f"{'workload':14s} {'metric':12s} {'A median':>12s} {'B median':>12s} {'change':>8s} {'spread':>8s} {'bound':>6s}  verdict")
    for key in sorted(set(a) | set(b)):
        w, name = key
        if key not in a or key not in b:
            print(f"{w:14s} {name:12s} {'-':>12s} {'-':>12s} {'-':>8s} {'-':>8s} {'-':>6s}  missing on one side")
            continue
        med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
        worse = (med_b - med_a) / med_a if meta[name]["better"] == "lower" else (med_a - med_b) / med_a
        widest = max(spread_of(a[key]) or 0.0, spread_of(b[key]) or 0.0)
        bound = meta[name]["bound"]
        if widest > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "regressed"
            regressed += 1
        else:
            verdict = "ok"
        print(f"{w:14s} {name:12s} {med_a:12.4f} {med_b:12.4f} {worse:+8.3f} {widest:8.3f} {bound:6.2f}  {verdict}")
    return 1 if regressed else 0


# --------------------------------------------------------------------- #


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes, one set-up, short loops")
    ap.add_argument("--record", action="store_true", help="print the full record, not the driver's line")
    ap.add_argument("--all", action="store_true", help="every workload, end-to-end then traced")
    ap.add_argument("--repeat", type=int, default=1, help="with --all: this many consecutive seeds")
    ap.add_argument("--out", type=Path, help="with --all: write result.json and trace.json here")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.smoke else float(contract()["run_seconds"])
    if args.all:
        return run_all(args.seed, args.repeat, seconds, args.smoke, args.out)
    names = [w["name"] for w in contract()["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    prepare_imports()
    from harness import Interrupted

    try:
        record = run_once(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    except Interrupted as exc:
        print(f"run.py: interrupted by {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record) if args.record else driver_line(record))
    # with --record the caller reads ``correct`` from the record itself
    return 0 if record["correct"] or args.record else 1


if __name__ == "__main__":
    sys.exit(main())
