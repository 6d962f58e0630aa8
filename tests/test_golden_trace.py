"""The golden trace: a fixed-seed traced search and self-join, byte for
byte against ``benchmarks/GOLDEN_trace.json``.

Two same-seed runs export identical spans, metrics and reports; this pins
that export to a committed file, so a change to span layout, simulated
charges or counter names and values shows up here.  An intended change
regenerates the file with ``python benchmarks/golden_trace.py --write``.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "golden_trace.py"


def _golden_trace():
    spec = importlib.util.spec_from_file_location("golden_trace", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_is_byte_identical_to_the_committed_golden():
    golden_trace = _golden_trace()
    assert golden_trace.run() == golden_trace.GOLDEN_PATH.read_text()
