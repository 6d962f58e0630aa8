"""Backend parity and failure-path coverage for the process-pool executor.

The contract under test: ``backend="process"`` is *observationally
identical* to the default simulated backend — bit-identical results and
equal ``stats`` registries for search, batched search and join, across
every distance adapter, and equal kNN answers — while never moving a dataset
coordinate across the process boundary.  Plus the failure paths: a
crashed or unpicklable worker surfaces as a typed :class:`ExecutorError`
(never a raw multiprocessing traceback), lands in the cluster's
``FaultReport``, and the next call transparently respawns the pool.
"""

import pickle
import queue

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DITAConfig, DITAEngine, TrajectoryStore, build_store
from repro.cluster.parallel import (
    ExecutorError,
    ParallelExecutor,
    SideInit,
    WorkerInit,
    _worker_main,
    open_sides,
)
from repro.cluster.tasks import TaskSpec, pickle_budget, run_task_body
from repro.core.adapters import EDRAdapter, ERPAdapter, LCSSAdapter, get_adapter
from repro.core.execution import LocalResolver
from repro.core.knn import knn_search
from repro.datagen import beijing_like, sample_queries
from repro.obs import MetricsRegistry

# (name, adapter factory, search tau, join tau) — edit-distance adapters
# take integer edit budgets
ADAPTERS = [
    ("dtw", lambda: get_adapter("dtw"), 0.01, 0.002),
    ("frechet", lambda: get_adapter("frechet"), 0.008, 0.002),
    ("hausdorff", lambda: get_adapter("hausdorff"), 0.005, 0.001),
    ("edr", lambda: EDRAdapter(epsilon=0.0005), 3, 2),
    ("lcss", lambda: LCSSAdapter(epsilon=0.0005, delta=3), 3, 2),
    ("erp", lambda: ERPAdapter(ndim=2), 0.02, 0.005),
]
ADAPTER_IDS = [a[0] for a in ADAPTERS]

N_GROUPS = 3


def _config(backend, workers=2):
    return DITAConfig(
        num_global_partitions=N_GROUPS,
        trie_fanout=4,
        num_pivots=3,
        trie_leaf_capacity=4,
        backend=backend,
        num_processes=workers,
    )


@pytest.fixture(scope="module")
def data():
    return beijing_like(110, seed=7)


@pytest.fixture(scope="module")
def queries(data):
    return sample_queries(data, 4, seed=11, perturb=0.0002)


@pytest.fixture(scope="module")
def store_path(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("parallel") / "store"
    build_store(data, path, n_groups=N_GROUPS)
    return path


@pytest.fixture(scope="module")
def engine_pairs(store_path):
    """Per-adapter (simulated, process) engine pairs over the same store,
    built lazily and pooled for the module (pool spawns are the expensive
    part)."""
    cache = {}

    def get(name):
        if name not in cache:
            factory = next(a[1] for a in ADAPTERS if a[0] == name)
            cache[name] = tuple(
                DITAEngine.from_store(
                    TrajectoryStore.open(store_path), _config(backend), factory()
                )
                for backend in ("simulated", "process")
            )
        return cache[name]

    yield get
    for sim, proc in cache.values():
        sim.shutdown()
        proc.shutdown()


def _ids_and_dists(matches):
    return [(t.traj_id, d) for t, d in matches]


class TestBackendParity:
    @pytest.mark.parametrize("name,factory,tau,join_tau", ADAPTERS, ids=ADAPTER_IDS)
    def test_search_parity(self, engine_pairs, queries, name, factory, tau, join_tau):
        sim, proc = engine_pairs(name)
        for q in queries:
            s_sim, s_proc = MetricsRegistry(), MetricsRegistry()
            got_sim = _ids_and_dists(sim.search(q, tau, stats=s_sim))
            got_proc = _ids_and_dists(proc.search(q, tau, stats=s_proc))
            assert got_sim == got_proc  # bit-identical, == on the floats
            assert s_sim.snapshot() == s_proc.snapshot()

    @pytest.mark.parametrize("name,factory,tau,join_tau", ADAPTERS, ids=ADAPTER_IDS)
    def test_search_batch_parity(self, engine_pairs, queries, name, factory, tau, join_tau):
        sim, proc = engine_pairs(name)
        taus = [tau] * len(queries)
        st_sim, st_proc = MetricsRegistry(), MetricsRegistry()
        got_sim = sim.search_batch_rows(queries, taus, st_sim)
        got_proc = proc.search_batch_rows(queries, taus, st_proc)
        assert got_sim == got_proc
        assert st_sim.snapshot() == st_proc.snapshot()

    @pytest.mark.parametrize("name,factory,tau,join_tau", ADAPTERS, ids=ADAPTER_IDS)
    def test_knn_parity(self, engine_pairs, queries, name, factory, tau, join_tau):
        sim, proc = engine_pairs(name)
        got_sim = _ids_and_dists(knn_search(sim, queries[0], 5))
        got_proc = _ids_and_dists(knn_search(proc, queries[0], 5))
        assert got_sim == got_proc

    @pytest.mark.parametrize("name,factory,tau,join_tau", ADAPTERS, ids=ADAPTER_IDS)
    def test_join_parity(self, engine_pairs, name, factory, tau, join_tau):
        sim, proc = engine_pairs(name)
        js_sim, js_proc = MetricsRegistry(), MetricsRegistry()
        got_sim = sim.self_join(join_tau, stats=js_sim)
        got_proc = proc.self_join(join_tau, stats=js_proc)
        assert got_sim == got_proc
        assert js_sim.snapshot() == js_proc.snapshot()
        assert js_sim.value("join.result_pairs") == len(got_sim)

    def test_materializations_parity(self, store_path, queries):
        """Coordinator-side view counts agree: the process backend adds no
        extra materializations (results come back as rows, and dataset
        coordinates never cross the pipe to begin with)."""
        engines = [
            DITAEngine.from_store(
                TrajectoryStore.open(store_path), _config(backend), "dtw"
            )
            for backend in ("simulated", "process")
        ]
        try:
            counts = []
            for e in engines:
                e.search(queries[0], 0.01)
                e.self_join(0.002)
                counts.append(
                    sum(e.partition(pid).materializations for pid in e.partition_pids())
                )
            assert counts[0] == counts[1]
        finally:
            for e in engines:
                e.shutdown()

    def test_pool_reused_across_calls(self, engine_pairs, queries):
        _, proc = engine_pairs("dtw")
        proc.search(queries[0], 0.01)
        pool = proc.executor.pool
        assert pool is not None
        proc.search(queries[1], 0.01)
        assert proc.executor.pool is pool  # same spawned workers, warm caches


class TestMutationParity:
    def test_spill_path_and_respawn(self, data):
        """Object-built engines exercise the snapshot/spill path; a write
        installs a new layout, which drops the pool and the spill, so a
        remove reaches the respawned workers as a re-spilled compact
        block (the flush rebuilt the partition without the row)."""
        sim = DITAEngine(data, _config("simulated"), "dtw")
        proc = DITAEngine(data, _config("process"), "dtw")
        try:
            q = sample_queries(data, 1, seed=23)[0]
            assert _ids_and_dists(sim.search(q, 0.01)) == _ids_and_dists(
                proc.search(q, 0.01)
            )
            victim = _ids_and_dists(sim.search(q, 0.01))[0][0]
            for e in (sim, proc):
                assert e.remove(victim)
                e.insert(
                    type(q)(990001, (np.asarray(q.points) + 0.0005).tolist())
                )
            got_sim = _ids_and_dists(sim.search(q, 0.01))
            got_proc = _ids_and_dists(proc.search(q, 0.01))
            assert got_sim == got_proc
            assert victim not in [tid for tid, _ in got_proc]
        finally:
            sim.shutdown()
            proc.shutdown()


# --------------------------------------------------------------------- #
# worker-count / steal-order invariance
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def engines_by_workers(store_path):
    engines = {
        w: DITAEngine.from_store(
            TrajectoryStore.open(store_path), _config("process", workers=w), "dtw"
        )
        for w in (1, 2, 3)
    }
    engines[0] = DITAEngine.from_store(
        TrajectoryStore.open(store_path), _config("simulated"), "dtw"
    )
    yield engines
    for e in engines.values():
        e.shutdown()


class TestInvariance:
    @settings(max_examples=8, deadline=None)
    @given(qi=st.integers(min_value=0, max_value=3), tau=st.sampled_from([0.002, 0.01]))
    def test_results_independent_of_worker_count(self, engines_by_workers, queries, qi, tau):
        q = queries[qi]
        want = _ids_and_dists(engines_by_workers[0].search(q, tau))
        for w in (1, 2, 3):
            assert _ids_and_dists(engines_by_workers[w].search(q, tau)) == want

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    def test_executor_invariant_under_steal_order(self, raw_pool, seed):
        """The raw executor returns the same value map whatever the
        initial deque assignment — stealing only moves work, never
        changes it."""
        specs = [
            TaskSpec(i, "debug.spin", "L", 0, (2000 * (i % 4 + 1),))
            for i in range(12)
        ]
        want = {s.task_id: run_task_body(s, None) for s in specs}
        got = raw_pool.run(specs, affinity=[0] * len(specs), schedule_seed=seed)
        assert {tid: r.value for tid, r in got.items()} == want

    def test_stealing_actually_happens(self, raw_pool):
        before = raw_pool.steals
        specs = [TaskSpec(i, "debug.spin", "L", 0, (50000,)) for i in range(8)]
        raw_pool.run(specs, affinity=[0] * len(specs))
        assert raw_pool.steals > before  # all work started on worker 0


# --------------------------------------------------------------------- #
# failure paths and the zero-copy guard
# --------------------------------------------------------------------- #


def _worker_init(store_path):
    side = SideInit(
        store_path=str(store_path), config=_config("process"), adapter=get_adapter("dtw")
    )
    return WorkerInit(sides=(("L", side), ("R", side)))


def _plain(result):
    """A task body's ``(matches, counts)`` with the registry as its snapshot."""
    matches, counts = result
    return matches, counts.snapshot()


def _drive_worker(init, specs):
    """The spawned worker's loop run in *this* process over plain queues:
    ``{task_id: value}`` for pickled ``specs`` served in order."""
    task_q, result_q = queue.Queue(), queue.Queue()
    for spec in specs:
        task_q.put(pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL))
    task_q.put(None)
    _worker_main(0, init, task_q, result_q)
    values = {}
    while not result_q.empty():
        kind, blob = result_q.get()
        assert kind == "ok"
        task_id, _, _, _, value = pickle.loads(blob)
        values[task_id] = value
    assert len(values) == len(specs)
    return values


class TestWorkerBootstrap:
    """A worker is store-backed engines behind the coordinator's own
    resolver class — checked without spawning, against the inline
    engine over the same store."""

    def test_self_join_sides_share_one_engine(self, store_path):
        engines = open_sides(_worker_init(store_path))
        assert engines["L"] is engines["R"]
        assert engines["L"].config.backend == "simulated"  # no pool of its own
        other = SideInit(
            store_path=str(store_path), config=_config("process"), adapter=get_adapter("dtw")
        )
        left, right = _worker_init(store_path).sides[0], ("R", other)
        engines = open_sides(WorkerInit(sides=(left, right)))
        assert engines["L"] is not engines["R"]

    def test_self_join_builds_each_trie_once(self, store_path, engines_by_workers, monkeypatch):
        import repro.core.runtime as runtime_module

        sim = engines_by_workers[0]
        specs = []
        # the join hands every chunk of every edge to this seam in one batch
        monkeypatch.setattr(
            sim.executor, "outcomes", lambda tasks, resolver: specs.extend(t.spec for t in tasks)
        )
        sim.self_join(0.002)
        assert specs and {s.kind for s in specs} == {"join.chunk"}
        built = []

        class CountingTrie(runtime_module.TrieIndex):
            def __init__(self, part, config):
                built.append(part)
                super().__init__(part, config)

        monkeypatch.setattr(runtime_module, "TrieIndex", CountingTrie)
        got = _drive_worker(_worker_init(store_path), specs)
        touched = {s.partition_id for s in specs} | {s.payload[1] for s in specs}
        assert len(built) == len(touched)  # receivers and senders, once each
        inline = LocalResolver(sim)
        for spec in specs:  # chunk matches *and* stage counts
            assert _plain(got[spec.task_id]) == _plain(run_task_body(spec, inline))

    def test_resolver_does_not_outlive_its_task(self, store_path, engines_by_workers, data):
        """Back-to-back search tasks whose equal-shaped query arrays are
        unpickled, used and freed one after another, so a later array
        sits where an earlier one did: each task answers for *its* query
        — the resolver caches query artifacts by ``id(points)``, so the
        worker must not carry one from task to task.  Every fourth task
        asks for a stored trajectory itself; the others are copies of it
        moved out of town, whose artifacts would prune that self-match."""
        sim = engines_by_workers[0]
        home = list(data)[0]
        pid = next(p for p in sim.partition_pids() if home.traj_id in sim.partition(p))
        pts = np.asarray(home.points)
        specs = [
            TaskSpec(i, "search", "L", pid, ((pts if i % 4 == 3 else pts + 1.0 + i,), (0.01,), None))
            for i in range(48)
        ]
        got = _drive_worker(_worker_init(store_path), specs)
        for spec in specs:  # matches *and* stage counts, per task
            assert _plain(got[spec.task_id]) == _plain(run_task_body(spec, LocalResolver(sim)))
        self_match = (sim.partition(pid).row_of(home.traj_id), 0.0)
        assert all(self_match in got[i][0][0] for i in range(3, 48, 4))


@pytest.fixture(scope="module")
def raw_pool(store_path):
    pool = ParallelExecutor(_worker_init(store_path), num_workers=2)
    yield pool
    pool.close()


class TestFailurePaths:
    def test_worker_crash_is_typed(self, store_path):
        pool = ParallelExecutor(_worker_init(store_path), num_workers=1)
        try:
            with pytest.raises(ExecutorError) as exc:
                pool.run([TaskSpec(0, "debug.crash", "L", 0, (3,))])
            assert "died with exit code 3" in str(exc.value)
            assert "BrokenProcessPool" not in str(exc.value)
        finally:
            pool.close()

    def test_unpicklable_result_is_typed(self, store_path):
        pool = ParallelExecutor(_worker_init(store_path), num_workers=1)
        try:
            with pytest.raises(ExecutorError) as exc:
                pool.run([TaskSpec(0, "debug.unpicklable", "L", 0, ())])
            assert "unpicklable" in str(exc.value)
        finally:
            pool.close()

    def test_pickle_budget_rejects_smuggled_coordinates(self, store_path):
        """A join chunk that carries coordinate arrays instead of row ids
        blows its pickle budget and is refused before dispatch."""
        pool = ParallelExecutor(_worker_init(store_path), num_workers=1)
        try:
            smuggled = TaskSpec(
                0, "join.chunk", "L", 0, ("L", 0, (1, 2, 3), np.zeros((2000, 2)))
            )
            with pytest.raises(ExecutorError) as exc:
                pool.run([smuggled])
            assert "dataset coordinates must never cross" in str(exc.value)
            # the budget itself never prices dataset coordinates
            assert pickle_budget(smuggled) < 2000 * 2 * 8
        finally:
            pool.close()

    def test_engine_surfaces_crash_in_fault_report(self, store_path, queries):
        """The regression this PR fixes: a dead worker used to escape as a
        raw BrokenProcessPool traceback; now it is an ExecutorError, the
        FaultReport counts it, and the pool respawns on the next call."""
        from repro.core.execution import EngineTask, LocalResolver

        engine = DITAEngine.from_store(
            TrajectoryStore.open(store_path), _config("process"), "dtw"
        )
        try:
            baseline = _ids_and_dists(engine.search(queries[0], 0.01))
            pid = engine.partition_pids()[0]
            crash = EngineTask(
                spec=TaskSpec(0, "debug.crash", "L", pid, (3,)),
                work=1.0,
                tag="debug.crash",
                cluster_pid=pid,
            )
            with pytest.raises(ExecutorError) as exc:
                engine.executor.outcomes([crash], LocalResolver(engine))
            assert "died with exit code" in str(exc.value)
            assert engine.cluster.fault_report().executor_failures == 1
            # the next call respawns the pool and works
            assert _ids_and_dists(engine.search(queries[0], 0.01)) == baseline
        finally:
            engine.shutdown()
