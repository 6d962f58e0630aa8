"""Checks of the benchmark harness itself.  Not part of the tier-1 suite:

    python -m pytest benchmarks/e2e/test_harness.py -q

Everything runs at ``--smoke`` sizes through the same command the driver
uses, so a passing run here means the contract's output shape, the metric
catalogue and the process hygiene all hold.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def drive(workload: str, trace: int, seed: int = 3) -> dict:
    """One run in driver form; asserts the shape of its last line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    return line


def test_contract_file_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.match(n), n
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(WORKLOADS)
    # beside its loop a run sets up three times and checks its answers: ~10 s
    assert isinstance(SPEC["run_seconds"], int) and runs * (SPEC["run_seconds"] + 12) < 3420


def test_every_layer_metric_maps_to_declared_end_to_end_metrics():
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared == set(metrics.MOVES)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for name, targets in metrics.MOVES.items():
        if name.startswith(("trace.", "obs.", "host.", "pool.")):
            continue  # the trace's own health, the host and the pool: move no bounded metric
        assert targets, f"{name} names no end-to-end metric"
        for target in targets:
            workload, metric = target.split(":")
            assert workload in WORKLOADS and metric in e2e, target


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_line(workload):
    line = drive(workload, trace=0)
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, m in line["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == units[name]
        assert m["value"] > 0, f"{workload}:{name} is {m['value']}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_line(workload):
    line = drive(workload, trace=1)
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    touched = {k for k, m in line["metrics"].items() if m["value"] != 0.0}
    assert {"trace.coverage", "host.spin_us"} <= touched
    if workload == "city_read":
        assert 0.8 <= line["metrics"]["trace.coverage"]["value"] <= 1.2
        assert line["metrics"]["engine.overhead_us"]["value"] != 0.0


def test_every_layer_metric_is_produced_by_some_workload():
    touched = set()
    for workload in WORKLOADS:
        line = drive(workload, trace=1)
        touched |= {k for k, m in line["metrics"].items() if m["value"] != 0.0}
    # counts that are legitimately zero on a run this short
    optional = {"serving.shed_ratio", "serving.invalidations", "serving.candidate_hit_ratio"}
    assert {m["name"] for m in SPEC["per_layer"]} - touched <= optional


def test_same_seed_same_inputs_other_seed_other_inputs():
    def digest(seed: int) -> str:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "stream_mixed", "--seed", str(seed),
             "--seconds", "0.2", "--smoke", "--record"],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])["input_digest"]

    assert digest(5) == digest(5) != digest(6)


def test_no_process_and_no_file_survives_a_pool_run():
    before = set(_descendants(os.getpid()))
    line = drive("dense_join", trace=1)  # the traced join is the one that starts a pool
    assert line["metrics"]["pool.join_s"]["value"] > 0
    assert {p for p in _descendants(os.getpid()) if _alive(p)} <= before
    assert not (ROOT / ".bench_tmp").exists()


def test_interrupted_pool_run_leaves_nothing_behind():
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "dense_join", "--seed", "1",
         "--seconds", "60", "--trace", "1", "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT,
    )
    # long enough for the child session (it starts after the inline replay's
    # thirty seconds) and its pool workers to exist
    deadline = time.monotonic() + 90
    while time.monotonic() < deadline and not _descendants(proc.pid):
        time.sleep(0.2)
    time.sleep(3.0)
    kids = _descendants(proc.pid)
    assert kids, "the pool child never started"
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) != 0
    assert proc.stdout.read() == b""  # no result line from a void run
    for pid in kids:
        assert not _alive(pid), f"process {pid} survived"
    assert not (ROOT / ".bench_tmp").exists()


def _alive(pid: int) -> bool:
    try:
        state = Path("/proc", str(pid), "stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _descendants(pid: int) -> list:
    parent = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            parent[int(entry)] = int(fields[1])
    out, frontier = [], [pid]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out += kids
        frontier += kids
    return out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "city_read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_compare_verdicts(tmp_path, capsys):
    def result_set(p50: list) -> Path:
        path = tmp_path / f"set-{len(list(tmp_path.iterdir()))}.json"
        runs = [
            {"workload": "city_read", "seed": i, "trace": 0,
             "metrics": {"op_p50_ms": {"value": v, "unit": "ms"}}}
            for i, v in enumerate(p50)
        ]
        path.write_text(json.dumps({"runs": runs}))
        return path

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "op_p50_ms")
    steady = result_set([2.00, 2.01, 2.02, 2.01, 2.00])
    assert run.compare(steady, result_set([2.02, 2.00, 2.01, 2.03, 2.01])) == 0
    assert " ok" in capsys.readouterr().out
    slower = [v * (1 + 2 * bound) for v in (2.00, 2.01, 2.02, 2.01, 2.00)]
    assert run.compare(steady, result_set(slower)) == 1
    assert "regressed" in capsys.readouterr().out
    assert run.compare(steady, result_set([1.0, 2.0, 3.0, 4.0, 5.0])) == 0
    assert "unresolved" in capsys.readouterr().out


def test_tail_rule():
    # p95 of 100 samples has 5 beyond it; ten beyond is the 90th value
    assert harness.tail_fraction(100, 95.0) == 0.89
    assert harness.quantile(list(range(1, 101)), 0.89) == 90
    assert harness.tail_fraction(1000, 95.0) == 0.95
    assert harness.tail_fraction(5, 95.0) == 0.4  # never below the median
    assert harness.quantile([1, 2, 3, 4, 5], 0.4) == 3


def test_speed_factor_is_taken_beside_each_operation():
    speed = harness.Speedometer()
    ref = harness.REFERENCE_SPIN_S
    # ten spins at reference speed, then twenty at half speed
    speed.samples = [ref] * 10 + [2 * ref] * 20
    factors = speed.factors([0, 10, 20, 30])
    assert factors[0] == pytest.approx(1.0)  # only the ten after it
    assert factors[1] == pytest.approx(1.5)  # ten on each side: the median straddles
    assert factors[2] == factors[3] == pytest.approx(2.0)
    assert speed.factor() == pytest.approx(2.0)


def test_summary_scales_and_keeps_to_complete_passes():
    ref = harness.REFERENCE_SPIN_S
    m = harness.Measured()
    # pass 1 on a host at reference speed, pass 2 at half speed and so twice
    # as slow on the wall clock, then an incomplete third pass
    m.speed.samples = [ref] * 40 + [2 * ref] * 40
    for k, (factor, at) in enumerate(((1.0, 20), (2.0, 60))):
        for lat in (1.0, 1.1, 1.2, 5.0):
            m.record(lat * factor, at)
        m.passes.append(harness.Pass(4 * k, 4 * k + 4))
    m.record(99.0, 60)
    out = m.summary(75.0)
    assert out["op_p50_ms"] == pytest.approx(1150.0)  # 1.0 1.0 1.1 [1.1 1.2] 1.2 5.0 5.0
    assert out["ops_per_s"] == pytest.approx(8 / 16.6)
    assert out["wall_ops_per_s"] == pytest.approx(8 / 24.9)
    assert out["speed_factor"] == pytest.approx(1.5)


def test_only_reported_operations_carry_the_latency():
    m = harness.Measured(reported=[])
    for lat, reported in ((0.001, False), (1.0, True), (0.002, False), (3.0, True), (2.0, True)):
        m.record(lat, 0, reported)
    out = m.summary(80.0)
    assert out["op_p50_ms"] == pytest.approx(2000.0)
    assert out["ops_per_s"] == pytest.approx(5 / 6.003)


def test_time_valued_layer_metrics_are_scaled_by_unit():
    units = {"a": "us", "b": "1/s", "c": "count", "d": "s"}
    out = harness.scale_metrics({"a": 10.0, "b": 10.0, "c": 10.0, "d": 10.0}, units, 2.0)
    assert out == {"a": 5.0, "b": 20.0, "c": 10.0, "d": 5.0}
