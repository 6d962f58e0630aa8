"""The process-backend phase of the benchmark, run as a child.

``run.py`` starts this file with ``start_new_session=True``: the engine's
worker pool and multiprocessing's resource tracker are then members of this
process's group, which the driver watches until it is empty (and kills
after a grace period).  The driver itself never starts a pool.

The last line of standard output is what it measured (``pool.*`` layer
metrics at reference speed), what it checked and what it found wrong, as
JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--smoke", type=int, required=True)
    ap.add_argument("--scratch", type=Path, required=True)
    args = ap.parse_args()

    import run  # pins the BLAS threads and puts src/ on the path

    run.prepare_imports()
    from harness import Interrupted, install_signal_handlers
    from workloads import PoolJoin

    install_signal_handlers(watchdog_s=140.0)
    workload = PoolJoin(args.seed, bool(args.smoke), args.scratch)
    try:
        checked, problems, layer = workload.measure(args.seconds)
    except Interrupted as exc:
        print(f"pool_child: interrupted by {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"checked": checked, "problems": problems, "layer": layer}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
