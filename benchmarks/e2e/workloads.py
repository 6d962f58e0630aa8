"""The benchmark's workloads.

Every workload is a closed loop with one client in a single driver process.
A workload builds its inputs from the seed alone, sets the system up (timed
as ``setup_s``), runs its loop for the given number of seconds with tracing
off, and checks a seeded sample of answers against ``oracle.py``.  The
traced variant replays a fixed sample of the same operations through
``layers.py``; ``dense_join``'s also runs the join on the process backend,
in a child session (``pool_child.py``).

Inputs are drawn the way TPC streams are: the city (zones and routes, from
``CITY_SEED``) is the benchmark's fixed corpus, and ``--seed`` draws what
happens on it — which trips are queried and how their GPS noise falls, the
order and kinds of writes, the request mix, which routes a join leaves
out.  A city per seed was tried first: a 600-trajectory join then differs
by +-12% from city to city (its cost follows the Poisson count of routes
that share both end zones) and a 50-query kNN median by +-8%, which no
bound survives.

Sizes are fixed here: the contract gives each run about thirty-five seconds
all told, so the datasets are the largest whose set-up, repeated
:data:`SETUP_REPS` times, and whose oracle still leave the loop twenty.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import layers
import oracle
from harness import (
    HERE,
    SPIN_WINDOW,
    Measured,
    NullRecorder,
    Pass,
    SpanRecorder,
    Speedometer,
    closed_loop,
    contract,
    digest,
    median,
    now,
    run_in_group,
    scale_metrics,
)
from repro.core.config import DITAConfig
from repro.core.engine import DITAEngine
from repro.core.global_index import GlobalIndex, partition_trajectories
from repro.core.knn import knn_search
from repro.core.trie import TrieIndex
from repro.datagen import beijing_like, chengdu_like
from repro.serving import Request, ServingLayer
from repro.sql import DITASession
from repro.storage import TrajectoryStore, build_store
from repro.storage.columnar import ColumnarDataset
from repro.trajectory import Trajectory, TrajectoryDataset

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: the fixed corpus: every city is generated from this seed
CITY_SEED = 2018
#: GPS-noise scale of a query drawn from a stored trip (degrees, ~11 m)
PERTURB = 0.0001
#: NG = 4 gives the 16 partitions of the issue's city workloads
NG = 4
TAUS = (0.001, 0.003, 0.005)
JOIN_TAU = 0.002
STREAM_TAU = 0.003
KNN_K = 10
SQL_TEXT = (
    "SELECT traj_id, distance FROM taxi WHERE DTW(taxi, :q) <= {tau!r} "
    "ORDER BY distance LIMIT 10"
)

#: (full, smoke) sizes per workload
SIZES: Dict[str, Dict[str, Tuple[int, int]]] = {
    "city_read": {"n": (8000, 600), "blocks": (96, 4)},
    "dense_join": {"pool": (632, 160), "oracle_n": (300, 80)},
    "stream_mixed": {"n": (2000, 300), "writes": (4000, 200), "segment": (100, 50)},
    "served_mixed": {"n": (6000, 500), "requests": (10000, 800), "pool": (60, 20)},
}


def config(**overrides: Any) -> DITAConfig:
    return DITAConfig(num_global_partitions=NG, **overrides)


@dataclass
class Result:
    """Everything one run of one workload produced."""

    workload: str
    seed: int
    #: scaled seconds of each set-up, and the same as the wall clock read them
    setups: List[float] = field(default_factory=list)
    wall_setups: List[float] = field(default_factory=list)
    measured: Optional[Measured] = None
    checked: int = 0
    problems: List[str] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    sizes: Dict[str, int] = field(default_factory=dict)
    input_digest: str = ""


def ids_and_distances(matches) -> List[Tuple[int, float]]:
    return [(t.traj_id, d) for t, d in matches]


def noisy_copies(trips: List[Trajectory], rng: np.random.Generator, first_id: int = 1) -> List[Trajectory]:
    """Queries: each trip re-observed with fresh GPS noise (negative ids
    from ``-first_id`` down, so they never collide with stored ones)."""
    return [
        Trajectory(-(first_id + i), t.points + rng.normal(0.0, PERTURB, size=t.points.shape))
        for i, t in enumerate(trips)
    ]


class Workload:
    """Base: set up ``SETUP_REPS`` times, then measure or trace once."""

    name = ""
    #: the tail percentile reported as ``op_tail_ms`` (see harness.tail_fraction)
    tail_pct = 95.0

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.size = {k: v[1 if smoke else 0] for k, v in SIZES[self.name].items()}

    # -- the steps a subclass writes ----------------------------------- #

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` acquired (runs on every exit path, also
        after a ``setup`` that raised half-way)."""
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.shutdown()
        self.engine = None

    def run(self, seconds: float) -> Measured:
        raise NotImplementedError

    def verify(self) -> Tuple[int, List[str]]:
        raise NotImplementedError

    def trace(self, seconds: float, rec: SpanRecorder, speed: Speedometer) -> Tuple[Measured, Dict[str, float]]:
        """Replay for ``seconds``, sampling ``speed`` between operations;
        the layer metrics come back as the wall clock read them."""
        raise NotImplementedError

    def trace_extra(self, seconds: float) -> Tuple[int, List[str], Dict[str, float]]:
        """Layer metrics measured in another process (already at reference
        speed), with the operations it checked and what it found wrong."""
        return 0, [], {}

    def inputs(self) -> List[np.ndarray]:
        raise NotImplementedError

    # -- the run -------------------------------------------------------- #

    def execute(self, seconds: float, trace: bool) -> Result:
        res = Result(self.name, self.seed, sizes=dict(self.size))
        reps = 1 if self.smoke else SETUP_REPS
        speed = Speedometer()
        started: List[int] = []
        try:
            for rep in range(reps):
                if rep:
                    self.teardown()
                # every set-up starts from the same heap: the last one's
                # garbage is not collected on this one's time
                gc.collect()
                started.append(speed.sample(SPIN_WINDOW) + SPIN_WINDOW)
                t0 = now()
                self.setup()
                res.wall_setups.append(now() - t0)
            speed.sample(SPIN_WINDOW)
            res.setups = (np.asarray(res.wall_setups) / speed.factors(started)).tolist()
            res.input_digest = digest(self.inputs())
            # the built index stays out of the collector's way during the
            # loop; garbage made by the operations themselves is still
            # collected
            gc.collect()
            gc.freeze()
            if trace:
                rec, during = SpanRecorder(), Speedometer()
                res.measured, raw = self.trace(seconds, rec, during)
                units = {d["name"]: d["unit"] for d in contract()["per_layer"]}
                res.layer = scale_metrics(raw, units, during.factor())
                res.layer["host.spin_us"] = median(during.samples) * 1e6
                res.spans = rec.dump()
                res.checked, res.problems, extra = self.trace_extra(seconds)
                res.layer.update(extra)
            else:
                res.measured = self.run(seconds)
                res.checked, res.problems = self.verify()
        finally:
            self.teardown()
            gc.unfreeze()
        return res


# --------------------------------------------------------------------- #
# city_read : one read-only engine over a Beijing-like city
# --------------------------------------------------------------------- #


class CityRead(Workload):
    """Threshold searches, the same through SQL, and kNN queries against
    one engine over ``beijing_like(n)``.

    A pass is ``blocks`` blocks of ten operations — six searches, three SQL
    selects, one kNN — so the fast queries are 90% of the operations and set
    the median, the kNN queries are the slowest 10%, which puts the 95th
    percentile at the kNN median, and nine tenths of the time, so they set
    the throughput."""

    name = "city_read"
    tail_pct = 95.0
    BLOCK = ("search", "search", "sql") * 3 + ("knn",)

    def setup(self) -> None:
        n, blocks = self.size["n"], self.size["blocks"]
        self.data = beijing_like(n, seed=CITY_SEED)
        rng = np.random.default_rng(self.seed)
        fast = rng.integers(0, n, size=blocks * (len(self.BLOCK) - 1))
        # kNN cost spreads 15x from trip to trip and a run fits one pass of
        # them: the same trips every run, re-observed and ordered by the seed
        slow = np.random.default_rng(CITY_SEED + 1).integers(0, n, size=blocks)
        slow = slow[rng.permutation(blocks)]
        self.queries = noisy_copies([self.data[int(i)] for i in fast], rng)
        self.knn_queries = noisy_copies([self.data[int(i)] for i in slow], rng, first_id=1_000_001)
        self.engine = DITAEngine(self.data, config())
        self.session = DITASession(self.engine.config)
        self.session.register("taxi", self.data)
        # the table is served by the engine just built, not a second index
        self.session.catalog.get("taxi").engine = self.engine
        self.texts = [SQL_TEXT.format(tau=tau) for tau in TAUS]
        self.pass_ops = blocks * len(self.BLOCK)
        # untimed: the first operations run ~10% slow
        for i in range(2 * len(self.BLOCK)):
            self.op(i)

    def inputs(self) -> List[np.ndarray]:
        return [t.points for t in self.data] + [q.points for q in self.queries + self.knn_queries]

    def plan(self, i: int) -> Tuple[str, Trajectory, int]:
        """Operation ``i``: its kind, its query and (not kNN) which tau.
        The same in every pass."""
        block, slot = divmod(i % self.pass_ops, len(self.BLOCK))
        kind = self.BLOCK[slot]
        if kind == "knn":
            return kind, self.knn_queries[block], 0
        return kind, self.queries[block * (len(self.BLOCK) - 1) + slot], (block + slot) % len(TAUS)

    def op(self, i: int) -> Any:
        kind, q, t = self.plan(i)
        if kind == "knn":
            return knn_search(self.engine, q, KNN_K)
        if kind == "sql":
            return self.session.sql(self.texts[t], params={"q": q})
        return self.engine.search(q, TAUS[t])

    def run(self, seconds: float) -> Measured:
        return closed_loop(self.op, seconds, pass_ops=self.pass_ops)

    def of_kind(self, kind: str, n: int) -> List[int]:
        """A seeded sample of the pass's operations of one kind."""
        ops = [i for i in range(self.pass_ops) if self.plan(i)[0] == kind]
        pick = np.random.default_rng(self.seed + 2).permutation(len(ops))[:n]
        return [ops[int(j)] for j in pick]

    def verify(self) -> Tuple[int, List[str]]:
        corpus = oracle.Corpus.of(self.data)
        problems: List[str] = []
        # searches against brute force, and the batched entry point against them
        sample = self.of_kind("search", 30)
        qs = [(self.plan(i)[1], TAUS[self.plan(i)[2]]) for i in sample]
        single = [ids_and_distances(self.engine.search(q, tau)) for q, tau in qs]
        for i, (q, tau), got in zip(sample, qs, single):
            problems += [f"search {i}: {p}" for p in oracle.check_threshold(corpus, q.points, tau, got)]
        batch = self.engine.search_batch([q for q, _ in qs], [t for _, t in qs])
        for i, got, matches in zip(sample, single, batch):
            if sorted(ids_and_distances(matches)) != sorted(got):
                problems.append(f"search_batch {i}: differs from search")
        checked = 2 * len(sample)
        # SQL: the brute-force top 10 within tau
        for i in self.of_kind("sql", 20):
            _, q, t = self.plan(i)
            tau = TAUS[t]
            got = [(r["traj_id"], r["distance"]) for r in self.op(i)]
            dist = corpus.distances(q.points, within=tau)
            inside = int(np.count_nonzero(dist <= tau - oracle.TOL))
            maybe = int(np.count_nonzero(dist <= tau + oracle.TOL))
            checked += 1
            if not min(inside, 10) <= len(got) <= min(maybe, 10):
                problems.append(f"sql {i}: {len(got)} rows, brute force has {inside} within tau")
                continue
            problems += [f"sql {i}: {p}" for p in oracle.check_top_k(corpus, q.points, len(got), got, within=tau)]
        # kNN ranked by (distance, id)
        for i in self.of_kind("knn", 10):
            q = self.plan(i)[1]
            got = ids_and_distances(self.op(i))
            problems += [f"knn {i}: {p}" for p in oracle.check_top_k(corpus, q.points, KNN_K, got)]
            checked += 1
        return checked, problems

    def trace(self, seconds: float, rec: SpanRecorder, speed: Speedometer) -> Tuple[Measured, Dict[str, float]]:
        """A third of the time on each path: the searches (whose layer
        metrics go by the plain names), the SQL selects (``sql.*``) and the
        kNN queries (``knn.*``)."""
        engine = self.engine
        out: Dict[str, float] = {}
        # set-up, layer by layer (what DITAEngine.__init__ does)
        t0 = now()
        columnar = ColumnarDataset.from_trajectories(self.data)
        t1 = now()
        parts = partition_trajectories(columnar, NG)
        GlobalIndex(parts, engine.config)
        t2 = now()
        tries = [TrieIndex(p, engine.config) for p in parts if len(p)]
        for t in tries:
            t.batch_block()
        t3 = now()
        out["storage.columnar_build_s"] = t1 - t0
        out["global_index.build_s"] = t2 - t1
        out["trie.build_s"] = t3 - t2
        out["trie.bytes_per_traj"] = sum(t.size_bytes() for t in tries) / len(columnar)
        out["storage.bytes_per_point"] = columnar.nbytes() / columnar.n_points
        del tries, parts

        m = Measured()
        by_kind = {k: [i for i in range(self.pass_ops) if self.plan(i)[0] == k] for k in ("search", "sql", "knn")}
        layer_s = untraced_s = 0.0

        # -- search ---------------------------------------------------- #
        c: layers.Counts = {}
        untraced: List[float] = []
        replayed: List[float] = []
        bare: List[float] = []
        null = NullRecorder()
        deadline = now() + seconds / 3
        n = 0
        while now() < deadline or n < 3:
            rec.op = m.ops
            _, q, t = self.plan(by_kind["search"][n % len(by_kind["search"])])
            tau = TAUS[t]
            at = speed.sample()
            t0 = now()
            want = engine.search(q, tau)
            t1 = now()
            got = layers.replay_search(engine, q, tau, rec, c)
            t2 = now()
            layers.replay_search(engine, q, tau, null, {})
            t3 = now()
            untraced.append(t1 - t0)
            replayed.append(t2 - t1)
            bare.append(t3 - t2)
            m.record(t2 - t1, at)
            if ids_and_distances(got) != ids_and_distances(want):
                m.failed += 1
            n += 1
        out.update(layers.query_path_metrics(rec, c))
        out["engine.overhead_us"] = (median(untraced) - median(bare)) * 1e6
        out["obs.tracing_overhead_ratio"] = layers.ratio(sum(replayed), sum(bare)) - 1.0
        layer_s, untraced_s = layers.layer_time(rec), sum(untraced)

        # the batched entry point on the same queries, 64 at a time
        rec_b, c_b = SpanRecorder(), {}
        qs = [self.plan(i)[1:] for i in by_kind["search"][:64]]
        layers.replay_search_batch(engine, [q for q, _ in qs], [TAUS[t] for _, t in qs], rec_b, c_b)
        out["trie.batch_filter_us_per_query"] = layers.query_path_metrics(rec_b, c_b)[
            "trie.batch_filter_us_per_query"
        ]

        # -- sql ------------------------------------------------------- #
        rec_s, c_s = SpanRecorder(), {}
        via_sql: List[float] = []
        direct: List[float] = []
        deadline = now() + seconds / 3
        n = 0
        while now() < deadline or n < 3:
            rec_s.op = m.ops
            _, q, t = self.plan(by_kind["sql"][n % len(by_kind["sql"])])
            at = speed.sample()
            t0 = now()
            want = self.session.sql(self.texts[t], params={"q": q})
            t1 = now()
            engine.search(q, TAUS[t])
            t2 = now()
            got = layers.replay_sql(self.session, self.texts[t], {"q": q}, rec_s, c_s)
            t3 = now()
            via_sql.append(t1 - t0)
            direct.append(t2 - t1)
            m.record(t3 - t2, at)
            if got != want:
                m.failed += 1
            n += 1
        self_t = rec_s.self_times()
        for step in ("parse", "plan", "physical", "exec"):
            out[f"sql.{step}_us"] = self_t.get(f"sql.{step}", 0.0) * 1e6 / n
        out["sql.overhead_ratio"] = layers.ratio(median(via_sql), median(direct))
        layer_s, untraced_s = layer_s + layers.layer_time(rec_s), untraced_s + sum(via_sql)

        # -- knn ------------------------------------------------------- #
        rec_k, c_k = SpanRecorder(), {}
        untraced = []
        deadline = now() + seconds / 3
        n = 0
        while now() < deadline or n < 3:
            rec_k.op = m.ops
            q = self.plan(by_kind["knn"][n % len(by_kind["knn"])])[1]
            at = speed.sample()
            t0 = now()
            want = knn_search(engine, q, KNN_K)
            t1 = now()
            got = layers.replay_knn(engine, q, KNN_K, rec_k, c_k)
            t2 = now()
            m.record(t2 - t1, at)
            if got is None or ids_and_distances(got) != ids_and_distances(want):
                m.failed += 1
            else:
                untraced.append(t1 - t0)
            n += 1
        knn = layers.query_path_metrics(rec_k, c_k)
        out["knn.search_rounds_per_query"] = layers.ratio(c_k.get("knn.rounds", 0), c_k.get("ops", 0))
        out["knn.exact_per_result"] = layers.ratio(c_k.get("kernel.pairs", 0), c_k.get("knn.results", 0))
        out["knn.candidates_per_query"] = knn["trie.candidates_per_query"]
        out["knn.filter_us"] = knn["global_index.prune_us"] + knn["trie.filter_us"]
        out["knn.cell_us"] = knn["verify.mbr_us"] + knn["verify.cell_us"]
        out["knn.dp_us"] = knn["kernel.dp_us_per_pair"] * knn["kernel.dp_pairs"]
        layer_s, untraced_s = layer_s + layers.layer_time(rec_k), untraced_s + sum(untraced)

        out["trace.coverage"] = layers.ratio(layer_s, untraced_s)
        # one trace: the SQL and kNN spans after the searches'
        for other in (rec_s, rec_k):
            rec.extend(other)
        return m, out


# --------------------------------------------------------------------- #
# dense_join
# --------------------------------------------------------------------- #


class DenseJoin(Workload):
    name = "dense_join"
    # one operation per pass, a dozen per run: too few for a tail, so
    # harness.tail_fraction falls back to the median

    def make_engine(self) -> DITAEngine:
        return DITAEngine(self.data, config(seed=self.seed))

    def setup(self) -> None:
        # the seed leaves out a twentieth of the city's routes (a route is
        # the four trips that follow it) and seeds the planner's sampling
        city = chengdu_like(self.size["pool"], seed=CITY_SEED)
        routes = len(city) // 4
        rng = np.random.default_rng(self.seed)
        out = set(rng.choice(routes, size=max(1, routes // 20), replace=False).tolist())
        self.data = TrajectoryDataset([t for t in city if t.traj_id % routes not in out])
        self.engine = self.make_engine()
        self.expected = self.engine.self_join(JOIN_TAU)

    def inputs(self) -> List[np.ndarray]:
        return [t.points for t in self.data]

    def op(self, i: int) -> Any:
        pairs = self.engine.self_join(JOIN_TAU)
        if len(pairs) != len(self.expected):
            raise AssertionError(f"join {i}: {len(pairs)} pairs, the first join had {len(self.expected)}")
        return pairs

    def run(self, seconds: float) -> Measured:
        return closed_loop(self.op, seconds, pass_ops=1, spins=SPIN_WINDOW)

    def verify(self) -> Tuple[int, List[str]]:
        ids = np.random.default_rng(self.seed + 2).permutation(len(self.data))
        members = [self.data[int(i)] for i in ids[: self.size["oracle_n"]]]
        corpus = oracle.Corpus.of(members)
        points = {t.traj_id: t.points for t in members}
        return 1, [f"join: {p}" for p in oracle.check_join(corpus, points, JOIN_TAU, self.expected)]

    def trace(self, seconds: float, rec: SpanRecorder, speed: Speedometer) -> Tuple[Measured, Dict[str, float]]:
        engine = self.engine
        c: layers.Counts = {}
        m = Measured()
        untraced: List[float] = []
        replayed: List[float] = []
        want = {(a, b): d for a, b, d in self.expected}
        deadline = now() + seconds / 2
        i = 0
        while now() < deadline or i < 2:
            rec.op = i
            at = speed.sample(SPIN_WINDOW)
            t0 = now()
            engine.self_join(JOIN_TAU)
            t1 = now()
            got = layers.replay_self_join(engine, JOIN_TAU, rec, c)
            t2 = now()
            untraced.append(t1 - t0)
            replayed.append(t2 - t1)
            m.record(t2 - t1, at)
            if got != want:
                m.failed += 1
            i += 1
        out = layers.query_path_metrics(rec, c)
        out["join.plan_s"] = rec.total("join.plan") / i
        out["join.execute_s"] = median(untraced) - out["join.plan_s"]
        out["join.candidate_pairs"] = c.get("join.candidate_pairs", 0) / i
        out["join.verified_pairs"] = c.get("verify.pairs", 0) / i
        out["join.result_pairs"] = c.get("join.result_pairs", 0) / i
        out["pool.tasks"] = c.get("join.tasks", 0) / i
        out["pool.pickle_bytes_per_task"] = layers.ratio(c.get("join.pickle_bytes", 0), c.get("join.tasks", 0))
        out["trace.coverage"] = layers.ratio(layers.layer_time(rec), sum(untraced))
        out["engine.overhead_us"] = (median(untraced) - median(replayed)) * 1e6
        return m, out

    def trace_extra(self, seconds: float) -> Tuple[int, List[str], Dict[str, float]]:
        """The same join on the process backend: a child in its own session
        runs it, and this process waits for that session to empty."""
        argv = [
            sys.executable, str(HERE / "pool_child.py"),
            "--seed", str(self.seed), "--seconds", repr(seconds / 2),
            "--smoke", str(int(self.smoke)), "--scratch", str(self.scratch),
        ]
        child = json.loads(run_in_group(argv, timeout_s=150.0).strip().splitlines()[-1])
        return child["checked"], child["problems"], child["layer"]


class PoolJoin(DenseJoin):
    """``dense_join``'s input on ``backend="process"`` with min(2, cpus)
    workers over a memory-mapped store.  Runs only inside ``pool_child.py``,
    and only traced: two workers and a driver on two shared vCPUs measure
    the scheduler as much as the program, so what the pool costs is a layer
    metric (``pool.*``), not an end-to-end one with a bound."""

    def make_engine(self) -> DITAEngine:
        self.store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        build_store(ColumnarDataset.from_trajectories(self.data), self.store_dir, n_groups=NG)
        workers = min(2, os.cpu_count() or 1)
        return DITAEngine.from_store(
            TrajectoryStore.open(self.store_dir),
            config(seed=self.seed, backend="process", num_processes=workers),
        )

    def teardown(self) -> None:
        super().teardown()
        store_dir = getattr(self, "store_dir", None)
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)

    def measure(self, seconds: float) -> Tuple[int, List[str], Dict[str, float]]:
        """What the pool adds: cold start against a warm join, one tiny task
        batch against the same search inline, and the join both ways —
        every pool answer checked against the inline backend's."""
        problems: List[str] = []
        speed = Speedometer()
        try:
            self.setup()
            inline = DITAEngine(self.data, config(seed=self.seed))
            inline.self_join(JOIN_TAU)
            # a second engine on the same store: its first join pays the spawn
            cold = DITAEngine.from_store(TrajectoryStore.open(self.store_dir), self.engine.config)
            try:
                t0 = now()
                cold.self_join(JOIN_TAU)
                cold_s = now() - t0
            finally:
                cold.shutdown()
            on_pool_s: List[float] = []
            inline_s: List[float] = []
            deadline = now() + seconds
            while now() < deadline or len(on_pool_s) < 2:
                speed.sample(SPIN_WINDOW)
                t0 = now()
                got = self.engine.self_join(JOIN_TAU)
                t1 = now()
                want = inline.self_join(JOIN_TAU)
                t2 = now()
                on_pool_s.append(t1 - t0)
                inline_s.append(t2 - t1)
                if sorted(got) != sorted(want):
                    problems.append(f"join {len(on_pool_s)}: the pool's pair set differs from the inline backend's")
            rng = np.random.default_rng(self.seed + 1)
            queries = noisy_copies([self.data[int(i)] for i in rng.integers(0, len(self.data), size=30)], rng)
            on_pool, on_inline = [], []
            for q in queries:
                t0 = now()
                a = self.engine.search(q, JOIN_TAU)
                t1 = now()
                b = inline.search(q, JOIN_TAU)
                t2 = now()
                on_pool.append(t1 - t0)
                on_inline.append(t2 - t1)
                if sorted(ids_and_distances(a)) != sorted(ids_and_distances(b)):
                    problems.append(f"search {q.traj_id}: the pool's answer differs from the inline backend's")
        finally:
            self.teardown()
        out = {
            "pool.join_s": median(on_pool_s),
            "pool.spawn_s": cold_s - median(on_pool_s),
            "pool.roundtrip_ms": (median(on_pool) - median(on_inline)) * 1e3,
            "pool.speedup": layers.ratio(median(inline_s), median(on_pool_s)),
        }
        units = {d["name"]: d["unit"] for d in contract()["per_layer"]}
        return len(on_pool_s) + len(queries), problems, scale_metrics(out, units, speed.factor())


# --------------------------------------------------------------------- #
# stream_mixed
# --------------------------------------------------------------------- #


class StreamMixed(Workload):
    name = "stream_mixed"
    tail_pct = 80.0

    def setup(self) -> None:
        n, n_writes = self.size["n"], self.size["writes"]
        city = beijing_like(n + n_writes, seed=CITY_SEED)
        rng = np.random.default_rng(self.seed)
        self.base = [city[i] for i in range(n)]
        fresh = [city[n + int(i)] for i in rng.permutation(n_writes)]
        self.queries = noisy_copies([city[int(i)] for i in rng.integers(0, len(city), size=200)], rng)
        # the write script, and beside it the logical dataset it leads to
        self.script: List[Tuple[str, int, Optional[np.ndarray]]] = []
        live = [t.traj_id for t in self.base]
        for t in fresh:
            roll = rng.random()
            if roll < 0.8 or not live:
                self.script.append(("append", t.traj_id, t.points))
                live.append(t.traj_id)
            elif roll < 0.9:
                tid = live[int(rng.integers(len(live)))]
                self.script.append(("extend", tid, t.points[-3:]))
            else:
                tid = live.pop(int(rng.integers(len(live))))
                self.script.append(("remove", tid, None))
        self.root = Path(tempfile.mkdtemp(prefix="gens-", dir=self.scratch))
        self.engine = DITAEngine(self.base, config())
        self.engine.attach_generations(self.root)
        self.engine.merge()
        self.model: Dict[int, np.ndarray] = {t.traj_id: t.points for t in self.base}
        self.cursor = 0
        self.engine.search(self.queries[0], STREAM_TAU)

    def teardown(self) -> None:
        super().teardown()
        root = getattr(self, "root", None)
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)

    def inputs(self) -> List[np.ndarray]:
        return [t.points for t in self.base] + [p for _, _, p in self.script if p is not None]

    def write(self, kind: str, tid: int, points: Optional[np.ndarray]) -> None:
        if kind == "append":
            self.engine.append_trajectory(tid, points)
            self.model[tid] = points
        elif kind == "extend":
            self.engine.extend_trajectory(tid, points)
            self.model[tid] = np.concatenate([self.model[tid], points], axis=0)
        else:
            self.engine.remove_trajectory(tid)
            del self.model[tid]

    def reopen(self) -> None:
        old = self.engine
        self.engine = DITAEngine.from_generations(self.root, config=old.config)
        old.shutdown()

    def loop(self, seconds: float, timed: Callable[[str, Callable[[], Any]], Any]) -> Measured:
        """Writes in script order, a read after every tenth, a merge and a
        reopen per segment, until ``seconds`` have passed and a segment is
        complete.  ``timed(step, fn)`` runs one step.  Every step is an
        operation; the reported latency is the read's, and a segment is a
        pass.  The host's speed is sampled before each read, merge and
        reopen — the ten writes between two reads take 10 ms together and
        are scaled by the spins on either side of them."""
        m = Measured(reported=[])
        deadline = now() + seconds
        segment = self.size["segment"]
        reads = pass_lo = 0

        def step(name: str, fn: Callable[[], Any], spins: int = 0, reported: bool = False) -> None:
            at = m.speed.sample(spins) + spins
            t0 = now()
            timed(name, fn)
            m.record(now() - t0, at, reported)

        while (now() < deadline or not m.passes) and self.cursor < len(self.script):
            try:
                kind, tid, points = self.script[self.cursor]
                self.cursor += 1
                step(kind, lambda: self.write(kind, tid, points))
                if self.cursor % 10 == 0:
                    q = self.queries[reads % len(self.queries)]
                    reads += 1
                    step("read", lambda: self.engine.search(q, STREAM_TAU), SPIN_WINDOW, reported=True)
                if self.cursor % segment == 0:
                    step("merge", lambda: self.engine.merge(prune=True), SPIN_WINDOW)
                    step("reopen", lambda: (self.reopen(), self.engine.search(self.queries[0], STREAM_TAU)), SPIN_WINDOW)
                    m.passes.append(Pass(pass_lo, m.ops))
                    pass_lo = m.ops
            except Exception as exc:
                m.failed += 1
                print(f"write {self.cursor} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        m.speed.sample(SPIN_WINDOW)
        return m

    def run(self, seconds: float) -> Measured:
        return self.loop(seconds, lambda step, fn: fn())

    def verify(self) -> Tuple[int, List[str]]:
        """The streamed engine against brute force over the logical dataset
        the script has produced so far, and against a bulk-built twin."""
        ids = sorted(self.model)
        corpus = oracle.Corpus(ids, [self.model[i] for i in ids])
        twin = DITAEngine([Trajectory(i, self.model[i]) for i in ids], config())
        problems: List[str] = []
        pick = np.random.default_rng(self.seed + 2).permutation(len(self.queries))[:25]
        for i in pick.tolist():
            q = self.queries[i]
            got = ids_and_distances(self.engine.search(q, STREAM_TAU))
            problems += [f"stream search {i}: {p}" for p in oracle.check_threshold(corpus, q.points, STREAM_TAU, got)]
            if sorted(got) != sorted(ids_and_distances(twin.search(q, STREAM_TAU))):
                problems.append(f"stream search {i}: differs from the bulk-built twin")
        if len(self.engine) != len(ids):
            problems.append(f"engine holds {len(self.engine)} trajectories, the script leaves {len(ids)}")
        return len(pick), problems

    def trace(self, seconds: float, rec: SpanRecorder, speed: Speedometer) -> Tuple[Measured, Dict[str, float]]:
        sizes: List[int] = []

        def timed(step: str, fn: Callable[[], Any]) -> Any:
            rec.op = self.cursor
            if step == "read":
                # the flush a read would do first, on its own
                with rec.span("storage.delta_flush"):
                    self.engine.flush_deltas()
            name = {
                "append": "storage.delta_append", "extend": "storage.delta_append",
                "remove": "storage.delta_append", "read": "engine.search",
                "merge": "storage.merge", "reopen": "storage.reopen",
            }[step]
            with rec.span(name):
                out = fn()
            if step == "merge":
                current = self.engine.generations.current_path()
                sizes.append(sum(f.stat().st_size for f in current.rglob("*") if f.is_file()))
            return out

        m = self.loop(seconds, timed)
        speed.samples.extend(m.speed.samples)
        n = rec.counts()
        self_t = rec.self_times()

        def per(name: str, scale: float) -> float:
            return layers.ratio(self_t.get(name, 0.0) * scale, n.get(name, 0))

        out = {
            "storage.delta_append_us": per("storage.delta_append", 1e6),
            "storage.delta_flush_ms": per("storage.delta_flush", 1e3),
            "storage.merge_s": per("storage.merge", 1.0),
            "storage.reopen_ms": per("storage.reopen", 1e3),
            "storage.merge_bytes": median(sizes) if sizes else 0.0,
            "trace.coverage": layers.ratio(sum(self_t.values()), sum(m.durations)),
        }
        # cold-start pieces of the reopen, on the current generation
        current = self.engine.generations.current_path()
        t0 = now()
        store = TrajectoryStore.open(current)
        t1 = now()
        for pid in store.partition_ids():
            store.partition(pid)
        t2 = now()
        out["storage.store_open_ms"] = (t1 - t0) * 1e3
        out["storage.partition_load_ms"] = (t2 - t1) * 1e3 / max(1, len(store.partition_ids()))
        t0 = now()
        build_store(ColumnarDataset.from_trajectories(self.base), self.scratch / "trace-store", n_groups=NG)
        out["storage.store_build_s"] = now() - t0
        shutil.rmtree(self.scratch / "trace-store", ignore_errors=True)
        return m, out


# --------------------------------------------------------------------- #
# served_mixed
# --------------------------------------------------------------------- #


class ServedMixed(Workload):
    name = "served_mixed"
    #: the slowest requests are the reads that follow a write and fold its
    #: delta in (6% of the script): p99 sits inside that cluster, p95 on its edge
    tail_pct = 99.0

    #: one block (= one pass) of the request script: 6 writes, each in its
    #: own stretch of the block with a read right after it, so every pass
    #: pays exactly six delta flushes; the seed places the writes within
    #: their stretches and shuffles the reads
    READS = ("search",) * 77 + ("sql",) * 20
    WRITES = ("append",) * 2 + ("remove",)
    BLOCK_LEN = len(READS) + len(WRITES)

    def block(self, rng: np.random.Generator) -> List[str]:
        stretch = self.BLOCK_LEN // len(self.WRITES)
        kinds = rng.permutation(np.asarray(self.READS)).tolist()
        for j, kind in enumerate(rng.permutation(np.asarray(self.WRITES)).tolist()):
            kinds.insert(j * stretch + int(rng.integers(0, stretch - 2)), kind)
        return kinds

    def setup(self) -> None:
        n, n_req = self.size["n"], self.size["requests"]
        extra = n_req // 10 + 8
        city = beijing_like(n + extra, seed=CITY_SEED)
        rng = np.random.default_rng(self.seed)
        self.data = [city[i] for i in range(n)]
        fresh = [city[n + int(i)] for i in rng.permutation(extra)]
        self.pool = noisy_copies(
            [city[int(i)] for i in rng.integers(0, n, size=self.size["pool"])], rng
        )
        rank_p = 1.0 / np.arange(1, len(self.pool) + 1) ** 1.1
        rank_p /= rank_p.sum()
        self.requests: List[Request] = []
        appended: List[int] = []
        while len(self.requests) < n_req:
            for kind in self.block(rng):
                i = len(self.requests)
                if kind == "remove" and not appended:
                    kind = "search"
                q = self.pool[int(rng.choice(len(self.pool), p=rank_p))]
                tau = TAUS[int(rng.integers(len(TAUS)))]
                if kind == "search":
                    payload: Dict[str, Any] = {"query": q, "tau": tau}
                elif kind == "sql":
                    payload = {"text": SQL_TEXT.format(tau=tau), "params": {"q": q}}
                elif kind == "append":
                    t = fresh.pop()
                    appended.append(t.traj_id)
                    payload = {"traj_id": t.traj_id, "points": t.points}
                else:
                    payload = {"traj_id": appended.pop(int(rng.integers(len(appended))))}
                # arrivals a simulated second apart: the token buckets are
                # full again before each, so admission never sheds
                self.requests.append(Request(i, f"tenant{i % 4}", kind, payload, arrival=float(1000 + i)))
        cfg = config(delta_max_rows=10_000)
        self.engine = DITAEngine(self.data, cfg)
        self.session = DITASession(cfg)
        self.session.register("taxi", TrajectoryDataset(self.data))
        self.session.catalog.get("taxi").engine = self.engine
        self.layer = ServingLayer(self.engine, session=self.session, config=cfg)
        self.model: Dict[int, np.ndarray] = {t.traj_id: t.points for t in self.data}
        self.cursor = 0
        # warm-up: every query of the pool once per tau and entry point, so
        # the run starts with the result cache as full as it will get
        warm = [
            Request(-1 - j, f"tenant{j % 4}", kind, payload, arrival=float(j))
            for j, (kind, payload) in enumerate(
                (kind, payload)
                for q in self.pool
                for tau in TAUS
                for kind, payload in (
                    ("search", {"query": q, "tau": tau}),
                    ("sql", {"text": SQL_TEXT.format(tau=tau), "params": {"q": q}}),
                )
            )
        ]
        for req in warm:
            self.layer.run([req])

    def teardown(self) -> None:
        super().teardown()
        self.layer = None

    def inputs(self) -> List[np.ndarray]:
        out = [t.points for t in self.data]
        for r in self.requests:
            p = r.payload
            out.append(p["points"] if "points" in p else np.asarray([r.req_id], dtype=np.int64))
        return out

    def serve(self, i: int) -> Any:
        """One request through the serving layer (requests are consumed in
        order; a script that runs dry fails the operation, and so the run)."""
        req = self.requests[self.cursor]
        self.cursor += 1
        outcome = self.layer.run([req])[0]
        if outcome.status != "ok":
            raise RuntimeError(f"request {req.req_id} ({req.kind}): {outcome.status} {outcome.error}")
        if req.kind == "append":
            self.model[req.payload["traj_id"]] = req.payload["points"]
        elif req.kind == "remove":
            del self.model[req.payload["traj_id"]]
        return outcome

    def run(self, seconds: float) -> Measured:
        return closed_loop(self.serve, seconds, pass_ops=self.BLOCK_LEN)

    def verify(self) -> Tuple[int, List[str]]:
        """Served answers — cached or not — against direct engine calls and
        brute force over the logical dataset at this point of the script."""
        ids = sorted(self.model)
        corpus = oracle.Corpus(ids, [self.model[i] for i in ids])
        problems: List[str] = []
        checked = 0
        seen = set()
        for req in self.requests[: self.cursor][::-1]:
            if req.kind != "search":
                continue
            key = (req.payload["query"].traj_id, req.payload["tau"])
            if key in seen:
                continue
            seen.add(key)
            q, tau = req.payload["query"], req.payload["tau"]
            again = Request(10_000_000 + checked, req.tenant, "search", req.payload, arrival=float(10_000_000 + checked))
            outcome = self.layer.run([again])[0]
            got = [(tid, float(d)) for tid, d in outcome.result]
            direct = ids_and_distances(self.engine.search(q, tau))
            if sorted(got) != sorted(direct):
                problems.append(f"served search {req.req_id}: differs from the direct engine call")
            problems += [f"served search {req.req_id}: {p}" for p in oracle.check_threshold(corpus, q.points, tau, got)]
            checked += 1
            if checked >= 25:
                break
        return checked, problems

    def trace(self, seconds: float, rec: SpanRecorder, speed: Speedometer) -> Tuple[Measured, Dict[str, float]]:
        m = Measured()
        before = self.layer.summary()
        miss_served: List[float] = []
        miss_direct: List[float] = []
        hit_served: List[float] = []
        deadline = now() + seconds
        i = 0
        while now() < deadline and self.cursor < len(self.requests):
            rec.op = i
            req = self.requests[self.cursor]
            at = speed.sample()
            t0 = now()
            with rec.span(f"serving.{req.kind}"):
                outcome = self.serve(i)
            t1 = now()
            m.record(t1 - t0, at)
            if req.kind == "search":
                if outcome.cached:
                    hit_served.append(t1 - t0)
                else:
                    with rec.span("engine.search"):
                        self.engine.search(req.payload["query"], req.payload["tau"])
                    miss_served.append(t1 - t0)
                    miss_direct.append(now() - t1)
            i += 1
        after = self.layer.summary()

        def window(section: str) -> Dict[str, int]:
            """Counts of the traced stretch alone (the warm-up filled the cache)."""
            return {k: v - before[section][k] for k, v in after[section].items()}

        cache, cand = window("cache"), window("candidate_cache")
        summary = {k: after[k] - before[k] for k in ("shed", "admitted")}
        out = {
            "serving.hit_ratio": layers.ratio(cache["hits"], cache["hits"] + cache["misses"]),
            "serving.candidate_hit_ratio": layers.ratio(cand["hits"], cand["hits"] + cand["misses"]),
            "serving.invalidations": float(cache["invalidations"]),
            "serving.overhead_us": (median(miss_served) - median(miss_direct)) * 1e6 if miss_served else 0.0,
            "serving.hit_us": median(hit_served) * 1e6 if hit_served else 0.0,
            "serving.shed_ratio": layers.ratio(summary["shed"], summary["shed"] + summary["admitted"]),
            "trace.coverage": layers.ratio(
                sum(t for name, t in rec.self_times().items() if name.startswith("serving.")),
                sum(m.durations),
            ),
        }
        return m, out


WORKLOADS = {w.name: w for w in (CityRead, DenseJoin, StreamMixed, ServedMixed)}
