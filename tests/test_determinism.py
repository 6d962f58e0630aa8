"""Simulator purity: same seed, twice, byte-identical metrics.

The cluster simulator's default task measure prices work deterministically
(never reading the host clock), so every simulated metric the paper's
figures are built from — makespan, load ratio, bytes shipped — must be a
pure function of the dataset seed and the configuration.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import DITAConfig, DITAEngine
from repro.cluster import Cluster, make_fixed_cost_measure, unit_cost_measure
from repro.datagen import beijing_like


def _run_once(seed):
    """One full search + self-join job; returns every observable as JSON."""
    dataset = beijing_like(60, seed=seed)
    config = DITAConfig(num_global_partitions=3, trie_fanout=4, num_pivots=3)
    engine = DITAEngine(dataset, config)

    query = dataset.by_id(sorted(dataset.ids)[0])
    matches = engine.search(query, 0.003)
    batch_queries = [dataset.by_id(i) for i in sorted(dataset.ids)[:3]]
    batch_matches = engine.search_batch(batch_queries, [0.003] * 3)
    pairs = engine.self_join(0.002)
    report = engine.cluster.report()

    return json.dumps(
        {
            "matches": sorted((t.traj_id, repr(d)) for t, d in matches),
            "batch_matches": [
                sorted((t.traj_id, repr(d)) for t, d in m) for m in batch_matches
            ],
            "pairs": sorted((a, b, repr(d)) for a, b, d in pairs),
            "worker_times": {str(k): repr(v) for k, v in sorted(report.worker_times.items())},
            "makespan": repr(report.makespan),
            "load_ratio": repr(report.load_ratio),
            "compute_s": repr(report.total_compute_s),
            "network_s": repr(report.total_network_s),
            "network_bytes": report.total_network_bytes,
            "tasks": report.tasks,
        },
        sort_keys=True,
    ).encode()


class TestByteIdenticalRuns:
    def test_same_seed_same_bytes(self):
        assert _run_once(7) == _run_once(7)

    def test_different_seed_different_data(self):
        assert _run_once(7) != _run_once(8)


class TestMeasureHook:
    def test_default_is_unit_cost(self):
        cluster = Cluster(2)
        assert cluster.measure is unit_cost_measure
        cluster.place_partitions([0, 1])
        cluster.run_local(0, lambda: None, work=3.0)
        cluster.run_local(1, lambda: None, work=5.0)
        report = cluster.report()
        assert report.worker_times[0] == 3.0e-3
        assert report.worker_times[1] == 5.0e-3

    def test_fixed_cost_measure_injects(self):
        cluster = Cluster(1, measure=make_fixed_cost_measure(0.25))
        cluster.place_partitions([0])
        result = cluster.run_local(0, lambda: "ok", work=100.0)
        assert result == "ok"
        assert cluster.report().worker_times[0] == 0.25 * 100.0

    def test_work_scales_with_partition_size(self):
        """Engine search charges per-partition work, so worker clocks differ
        deterministically rather than via host-timing noise."""
        dataset = beijing_like(40, seed=3)
        engine = DITAEngine(dataset, DITAConfig(num_global_partitions=2, trie_fanout=4, num_pivots=3))
        query = dataset.by_id(sorted(dataset.ids)[0])
        engine.search(query, 0.003)
        first = engine.cluster.report().worker_times
        engine.cluster.reset_clocks()
        engine.search(query, 0.003)
        assert engine.cluster.report().worker_times == first


def _run_traced(seed):
    """The _run_once job with tracing on; returns (observables, trace bytes)."""
    dataset = beijing_like(60, seed=seed)
    config = DITAConfig(num_global_partitions=3, trie_fanout=4, num_pivots=3)
    engine = DITAEngine(dataset, config)
    engine.enable_tracing()

    query = dataset.by_id(sorted(dataset.ids)[0])
    matches = engine.search(query, 0.003)
    pairs = engine.self_join(0.002)
    report = engine.cluster.report()
    observables = json.dumps(
        {
            "matches": sorted((t.traj_id, repr(d)) for t, d in matches),
            "pairs": sorted((a, b, repr(d)) for a, b, d in pairs),
            "report": report.to_dict(),
        },
        sort_keys=True,
    ).encode()
    trace = (
        engine.cluster.tracer.export_json()
        + engine.cluster.tracer.export_chrome()
        + engine.metrics.to_json()
    ).encode()
    return observables, trace


def _traced_bytes_in_subprocess(hash_seed):
    """``_run_traced(7)``'s observables and exports from a fresh
    interpreter started with ``PYTHONHASHSEED=hash_seed``."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    code = (
        "import sys\n"
        "from test_determinism import _run_traced\n"
        "sys.stdout.buffer.write(b''.join(_run_traced(7)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=300, check=True
    )
    return proc.stdout


class TestTracedByteIdenticalRuns:
    def test_same_seed_same_trace_bytes(self):
        """Trace + metrics exports of two same-seed runs are byte-identical."""
        a_obs, a_trace = _run_traced(7)
        b_obs, b_trace = _run_traced(7)
        assert a_obs == b_obs
        assert a_trace == b_trace

    def test_exports_do_not_depend_on_string_hashing(self):
        """The traced job in two interpreters with different string-hash
        salts: no iteration order of a set of strings may reach the exports."""
        # salts 0 and 3 iterate {"filter", "verify"} in opposite orders
        runs = [_traced_bytes_in_subprocess(hash_seed) for hash_seed in (0, 3)]
        assert runs[0] and runs[0] == runs[1]

    def test_tracing_is_observation_only(self):
        """Turning tracing on must not perturb any simulated observable:
        results, worker clocks, makespan, bytes shipped are unchanged."""
        dataset = beijing_like(60, seed=7)
        traced_obs, _ = _run_traced(7)

        config = DITAConfig(num_global_partitions=3, trie_fanout=4, num_pivots=3)
        engine = DITAEngine(dataset, config)
        query = dataset.by_id(sorted(dataset.ids)[0])
        matches = engine.search(query, 0.003)
        pairs = engine.self_join(0.002)
        plain_obs = json.dumps(
            {
                "matches": sorted((t.traj_id, repr(d)) for t, d in matches),
                "pairs": sorted((a, b, repr(d)) for a, b, d in pairs),
                "report": engine.cluster.report().to_dict(),
            },
            sort_keys=True,
        ).encode()
        assert traced_obs == plain_obs
