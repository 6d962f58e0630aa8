"""Tests for the cluster simulator, network model and partitioners."""

import pytest

from repro.cluster import (
    Cluster,
    ExecutionReport,
    NetworkModel,
    RandomPartitioner,
    Worker,
)
from repro.core.global_index import partition_trajectories
from repro.datagen import random_walk_dataset


class TestNetworkModel:
    def test_transfer_time(self):
        net = NetworkModel(bandwidth_bytes_per_s=1000, latency_s=0.1)
        assert net.transfer_time(1000) == pytest.approx(1.1)

    def test_zero_bytes_free(self):
        assert NetworkModel().transfer_time(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1)
        with pytest.raises(ValueError):
            NetworkModel().transfer_time(-1)


class TestWorker:
    def test_network_adds(self):
        w = Worker(0)
        w.charge_compute(1.0)
        w.charge_network(0.5)
        assert w.busy_time == pytest.approx(1.5)

    def test_reset(self):
        w = Worker(0)
        w.charge_compute(5.0)
        w.reset()
        assert w.busy_time == 0.0


class TestCluster:
    def test_placement_round_robin(self):
        c = Cluster(n_workers=3)
        c.place_partitions([0, 1, 2, 3, 4])
        assert c.worker_of(0) == 0
        assert c.worker_of(3) == 0
        assert c.worker_of(4) == 1

    def test_unplaced_partition_raises(self):
        c = Cluster(n_workers=2)
        with pytest.raises(KeyError):
            c.worker_of(7)

    def test_explicit_placement_validation(self):
        c = Cluster(n_workers=2)
        with pytest.raises(ValueError):
            c.place_partition(0, 5)

    def test_run_local_charges_owner(self):
        c = Cluster(n_workers=2)
        c.place_partitions([0, 1])
        result = c.run_local(1, lambda: sum(range(1000)))
        assert result == 499500
        report = c.report()
        assert report.worker_times[1] > 0
        assert report.worker_times[0] == 0
        assert report.tasks == 1

    def test_ship_colocated_free(self):
        c = Cluster(n_workers=1)
        c.place_partitions([0, 1])
        assert c.ship(0, 1, 10_000) == 0.0

    def test_ship_cross_worker_costs(self):
        c = Cluster(n_workers=2, network=NetworkModel(bandwidth_bytes_per_s=1e6, latency_s=0))
        c.place_partitions([0, 1])
        t = c.ship(0, 1, 1_000_000)
        assert t == pytest.approx(1.0)
        report = c.report()
        assert report.total_network_bytes == 1_000_000
        assert report.worker_times[0] == pytest.approx(1.0)
        assert report.worker_times[1] == pytest.approx(1.0)

    def test_charge_compute_validation(self):
        c = Cluster(n_workers=1)
        c.place_partitions([0])
        with pytest.raises(ValueError):
            c.charge_compute(0, -1.0)

    def test_reset_clocks(self):
        c = Cluster(n_workers=1)
        c.place_partitions([0])
        c.charge_compute(0, 1.0)
        c.reset_clocks()
        assert c.report().makespan == 0.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Cluster(0)


class TestResetLeaks:
    """Back-to-back experiments on one cluster must start from zero:
    ``reset_clocks`` has to clear the compute clocks, the network
    counters and the report counters, or the second job's simulated times
    silently include the first job's (the leak these tests pin down)."""

    @staticmethod
    def _job(c):
        for pid in (0, 1, 2, 0, 1):
            c.run_local(pid, lambda: None, work=1.5)
        c.ship(0, 1, 500_000)
        c.ship(1, 2, 250_000)
        return c.report().to_dict()

    def test_back_to_back_jobs_byte_identical(self):
        import json

        c = Cluster(n_workers=3)
        c.place_partitions([0, 1, 2])
        first = json.dumps(self._job(c), sort_keys=True)
        c.reset_clocks()
        second = json.dumps(self._job(c), sort_keys=True)
        fresh = Cluster(n_workers=3)
        fresh.place_partitions([0, 1, 2])
        fresh_run = json.dumps(self._job(fresh), sort_keys=True)
        assert second == first == fresh_run

    def test_reset_clears_network_and_counters(self):
        c = Cluster(n_workers=2)
        c.place_partitions([0, 1])
        c.run_local(0, lambda: None)
        c.ship(0, 1, 1_000_000)
        c.reset_clocks()
        rep = c.report()
        assert rep.makespan == 0.0
        assert rep.total_network_s == 0.0
        assert rep.total_network_bytes == 0
        assert rep.total_compute_s == 0.0
        assert rep.tasks == 0
        assert all(w.network_s == 0.0 for w in c.workers)

    def test_reset_clears_core_heap_state(self):
        # a long first job must not delay the second job's tasks
        c = Cluster(n_workers=1)
        c.place_partitions([0])
        c.charge_compute(0, 10.0)
        c.reset_clocks()
        c.charge_compute(0, 1.0)
        c.charge_compute(0, 2.0)
        assert c.workers[0].compute_s == 3.0


class TestExecutionReport:
    def test_makespan_and_ratio(self):
        r = ExecutionReport(worker_times={0: 2.0, 1: 4.0})
        assert r.makespan == 4.0
        assert r.load_ratio == 2.0

    def test_empty(self):
        r = ExecutionReport()
        assert r.makespan == 0.0
        assert r.load_ratio == 1.0

    def test_zero_min_ratio(self):
        r = ExecutionReport(worker_times={0: 0.0, 1: 4.0})
        assert r.load_ratio == float("inf")

    def test_merge(self):
        a = ExecutionReport(worker_times={0: 1.0}, total_compute_s=1.0, tasks=1)
        b = ExecutionReport(worker_times={0: 2.0, 1: 1.0}, total_network_bytes=10, tasks=2)
        a.merge(b)
        assert a.worker_times == {0: 3.0, 1: 1.0}
        assert a.tasks == 3
        assert a.total_network_bytes == 10


class TestPartitioners:
    def test_dita_partitioner_covers(self):
        data = list(random_walk_dataset(50, seed=9))
        parts = partition_trajectories(data, 3)
        ids = sorted(t.traj_id for p in parts for t in p)
        assert ids == sorted(t.traj_id for t in data)
        assert len(parts) <= 9

    def test_random_partitioner_covers(self):
        data = list(random_walk_dataset(50, seed=9))
        parts = RandomPartitioner(8, seed=1).partition(data)
        ids = sorted(t.traj_id for p in parts for t in p)
        assert ids == sorted(t.traj_id for t in data)

    def test_random_partitioner_deterministic(self):
        data = list(random_walk_dataset(30, seed=9))
        a = RandomPartitioner(4, seed=5).partition(data)
        b = RandomPartitioner(4, seed=5).partition(data)
        assert [[t.traj_id for t in p] for p in a] == [[t.traj_id for t in p] for p in b]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_trajectories(random_walk_dataset(5, seed=9), 0)
        with pytest.raises(ValueError):
            RandomPartitioner(0)
