"""Golden-trace gate: fixed-seed traced search + self-join, diffed byte-for-
byte against the committed goldens.

The observability layer promises that two same-seed runs export identical
traces and metrics.  This tool pins that promise to a committed artifact so
CI catches any change to span layout, simulated charges, or counter values
— intentional changes regenerate the golden with ``--write``.

Run::

    PYTHONPATH=src python benchmarks/golden_trace.py --write   # regenerate
    PYTHONPATH=src python benchmarks/golden_trace.py --check   # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import DITAConfig
from repro.core.engine import DITAEngine
from repro.datagen import beijing_like, sample_queries

GOLDEN_PATH = Path(__file__).parent / "GOLDEN_trace.json"

SEED = 1009
N_TRAJS = 90
TAU_SEARCH = 0.006
TAU_JOIN = 0.004


def run() -> str:
    """One deterministic traced search + self-join; the full export."""
    dataset = beijing_like(N_TRAJS, seed=SEED)
    config = DITAConfig(
        num_global_partitions=3,
        trie_fanout=4,
        num_pivots=3,
        trie_leaf_capacity=4,
    )
    engine = DITAEngine(dataset, config)
    engine.enable_tracing()
    query = sample_queries(dataset, 1, seed=SEED)[0]

    payload = {}
    for name, job in (
        ("search", lambda: engine.search(query, TAU_SEARCH)),
        ("join", lambda: engine.self_join(TAU_JOIN)),
    ):
        engine.cluster.reset_clocks()
        engine.metrics.clear()
        job()
        payload[name] = {
            "trace": engine.cluster.tracer.to_events(),
            "metrics": engine.metrics.snapshot(),
            "report": engine.cluster.report().to_dict(),
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate the golden file")
    mode.add_argument("--check", action="store_true", help="diff against the golden file")
    args = parser.parse_args(argv)

    fresh = run()
    if args.write:
        GOLDEN_PATH.write_text(fresh)
        print(f"wrote {GOLDEN_PATH} ({len(fresh)} bytes)")
        return 0
    if not GOLDEN_PATH.exists():
        print(f"error: no golden at {GOLDEN_PATH}; run with --write first", file=sys.stderr)
        return 1
    golden = GOLDEN_PATH.read_text()
    if fresh == golden:
        print(f"golden trace OK ({len(fresh)} bytes, byte-identical)")
        return 0
    fresh_doc = json.loads(fresh)
    golden_doc = json.loads(golden)
    for section in sorted(set(fresh_doc) | set(golden_doc)):
        a = golden_doc.get(section)
        b = fresh_doc.get(section)
        if a == b:
            continue
        print(f"golden trace MISMATCH in section {section!r}:", file=sys.stderr)
        for part in ("trace", "metrics", "report"):
            if (a or {}).get(part) != (b or {}).get(part):
                print(f"  {part} differs", file=sys.stderr)
        if a and b and a.get("metrics") != b.get("metrics"):
            keys = set(a["metrics"]) | set(b["metrics"])
            for k in sorted(keys):
                va, vb = a["metrics"].get(k), b["metrics"].get(k)
                if va != vb:
                    print(f"    {k}: golden={va!r} fresh={vb!r}", file=sys.stderr)
    print("regenerate intentionally with: golden_trace.py --write", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
