"""Step-by-step replays of the engine's query paths through the layers'
public functions, with a span around every call into a layer.

Each ``replay_*`` does by hand what the matching engine entry point does
internally — global prune, trie filter, Lemma 5.4 / 5.6 filters, DP kernel,
materialise — and returns the same answer, so the caller can check the
replay against the engine before trusting its timings.  Span names are
``<layer>.<step>``; a layer is a module of ``src/repro`` (see README).

Only public names of ``repro`` are used, and no timer ever sits inside a
callable handed to the cluster simulator: the replays bypass the simulator
altogether, which is what ``engine.overhead_us`` then measures.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.cluster.tasks import TaskSpec
from repro.core.join import JoinExecutor
from repro.core.numerics import slack
from repro.core.trie import FilterStats
from repro.core.verify import VerificationData
from repro.kernels.batch import batch_cell_bounds, batch_mbr_coverage
from repro.sql.parser import parse

Counts = Dict[str, float]


def bump(c: Counts, key: str, by: float = 1) -> None:
    c[key] = c.get(key, 0) + by


def _verify_rows(engine, trie, rows, q_points, tau, q_data, rec, c) -> List[Tuple[int, float]]:
    """``Verifier.verify_rows`` stage by stage."""
    block = trie.batch_block()
    dataset = trie.dataset
    lim = slack(tau)
    bump(c, "verify.pairs", rows.shape[0])
    if rows.shape[0] == 0:
        return []
    with rec.span("verify.mbr"):
        mask = batch_mbr_coverage(block, rows, q_data.mbr.low, q_data.mbr.high, lim)
        kept = rows[np.nonzero(mask)[0]]
    bump(c, "verify.mbr_pruned", rows.shape[0] - kept.shape[0])
    if kept.shape[0]:
        with rec.span("verify.cell"):
            bounds = batch_cell_bounds(block, kept, q_data.cells, "sum")
            survivors = kept[np.nonzero(bounds <= lim)[0]]
        bump(c, "verify.cell_pruned", kept.shape[0] - survivors.shape[0])
        kept = survivors
    exact = engine.verifier.exact_fn
    out: List[Tuple[int, float]] = []
    for r in kept.tolist():
        pts = dataset.points(r)
        with rec.span("kernel.dp"):
            d = exact(pts, q_points, tau)
        bump(c, "kernel.pairs")
        bump(c, "kernel.cells", pts.shape[0] * q_points.shape[0])
        if d <= tau:
            out.append((r, d))
    bump(c, "verify.accepted", len(out))
    return out


def search_rows(engine, q_points, tau, q_data, rec, c) -> List[Tuple[int, int, float]]:
    """``engine.search_batch_rows([q], [tau])[0]`` by hand."""
    with rec.span("global_index.prune"):
        relevant = engine.global_index.relevant_partitions(q_points, tau, engine.adapter)
    bump(c, "global_index.kept", len(relevant))
    bump(c, "global_index.partitions", engine.n_partitions)
    out: List[Tuple[int, int, float]] = []
    for pid in relevant:
        trie = engine.trie(pid)
        fs = FilterStats()
        with rec.span("trie.filter"):
            rows = trie.filter_candidates_batch([q_points], [tau], engine.adapter, [fs])[0]
        bump(c, "trie.candidates", rows.shape[0])
        bump(c, "trie.nodes_visited", fs.nodes_visited)
        for row, d in _verify_rows(engine, trie, rows, q_points, tau, q_data, rec, c):
            out.append((pid, row, d))
    return out


def replay_search(engine, query, tau, rec, c):
    """``engine.search`` by hand: [(trajectory, distance)]."""
    q_points = np.asarray(query.points, dtype=np.float64)
    with rec.span("op"):
        with rec.span("verify.prepare"):
            q_data = VerificationData.of(query, engine.config.cell_size)
        rows = search_rows(engine, q_points, tau, q_data, rec, c)
        with rec.span("storage.view"):
            matches = [(engine.partition(pid).view(row), d) for pid, row, d in rows]
    bump(c, "storage.views", len(matches))
    bump(c, "ops")
    return matches


def replay_search_batch(engine, queries, taus, rec, c):
    """``engine.search_batch`` by hand: per partition one frontier sweep for
    all of its queries."""
    with rec.span("op"):
        by_pid: Dict[int, List[int]] = {}
        q_datas = []
        for i, (q, tau) in enumerate(zip(queries, taus)):
            with rec.span("global_index.prune"):
                relevant = engine.global_index.relevant_partitions(q.points, tau, engine.adapter)
            with rec.span("verify.prepare"):
                q_datas.append(VerificationData.of(q, engine.config.cell_size))
            for pid in relevant:
                by_pid.setdefault(pid, []).append(i)
        results: List[List[Any]] = [[] for _ in queries]
        for pid in sorted(by_pid):
            idxs = by_pid[pid]
            trie = engine.trie(pid)
            with rec.span("trie.batch_filter"):
                cand = trie.filter_candidates_batch(
                    [queries[i].points for i in idxs], [taus[i] for i in idxs], engine.adapter
                )
            bump(c, "trie.batch_queries", len(idxs))
            for i, rows in zip(idxs, cand):
                q_points = np.asarray(queries[i].points, dtype=np.float64)
                for row, d in _verify_rows(engine, trie, rows, q_points, taus[i], q_datas[i], rec, c):
                    results[i].append((pid, row, d))
        with rec.span("storage.view"):
            out = [[(engine.partition(p).view(r), d) for p, r, d in m] for m in results]
    bump(c, "ops")
    return out


def replay_knn(engine, query, k, rec, c):
    """``knn_search`` by hand: seed a radius from exact distances to the
    trajectories whose first points are nearest, then widen a threshold
    search until it holds ``k`` results.  Returns None where the engine
    would fall back to its brute-force path (not replayed)."""
    q_points = np.asarray(query.points, dtype=np.float64)
    dist = engine.adapter.distance()
    with rec.span("op"):
        with rec.span("knn.seed"):
            pool: List[Tuple[Any, int]] = []
            firsts = []
            for pid in engine.partition_pids():
                part = engine.partition(pid)
                alive = part.alive_rows()
                pool.extend((part, r) for r in alive.tolist())
                firsts.append(part.firsts[alive])
            k = min(k, len(pool))
            gaps = np.sqrt(
                np.sum((np.concatenate(firsts, axis=0) - np.asarray(query.first)[None, :]) ** 2, axis=1)
            )
            order = np.argsort(gaps, kind="stable")[: max(4 * k, 32)]
            seeds = []
            for i in order.tolist():
                part, row = pool[i]
                pts = part.points(row)
                with rec.span("kernel.dp"):
                    d = dist.compute(pts, q_points)
                bump(c, "kernel.pairs")
                bump(c, "kernel.cells", pts.shape[0] * q_points.shape[0])
                seeds.append((d, int(part.traj_ids[row])))
            seeds.sort()
        if len(seeds) < k:
            return None
        tau_hi, tau_lo = seeds[k - 1][0], seeds[0][0]
        with rec.span("verify.prepare"):
            q_data = VerificationData.of(query, engine.config.cell_size)
        tau = min(max(tau_lo, tau_hi / 256, 1e-12), tau_hi)
        result = None
        for _ in range(128):
            bump(c, "knn.rounds")
            matches = search_rows(engine, q_points, tau, q_data, rec, c)
            if len(matches) >= k:
                with rec.span("knn.rank"):
                    scored = sorted(
                        ((d, engine.partition(pid).id_of(row), pid, row) for pid, row, d in matches),
                        key=lambda e: (e[0], e[1]),
                    )[:k]
                with rec.span("storage.view"):
                    result = [(engine.partition(pid).view(row), d) for d, _, pid, row in scored]
                break
            if tau >= tau_hi:
                break
            tau = min(tau * 2, tau_hi)
    if result is not None:
        bump(c, "knn.results", len(result))
        bump(c, "ops")
    return result


def _sender_rows(part, meta, tau) -> np.ndarray:
    """The rows of ``part`` that can have a DTW match in the partition
    ``meta`` describes: first and last points must together lie within tau
    of its first- and last-point MBRs (the join's shipping rule)."""
    rows = part.alive_rows()
    df = meta.mbr_first.min_dist_points(part.firsts[rows])
    dl = meta.mbr_last.min_dist_points(part.lasts[rows])
    bound = df + dl
    if meta.min_len == 1:
        bound = np.where(part.lengths[rows] == 1, np.maximum(df, dl), bound)
    return rows[bound <= slack(tau)]


def replay_self_join(engine, tau, rec, c):
    """``engine.self_join`` by hand: plan, then per oriented edge select the
    senders, sweep the receiver's trie for all of them, verify."""
    executor = JoinExecutor(engine, engine, engine.adapter, engine.cluster, engine.config)
    pairs: Dict[Tuple[int, int], float] = {}
    sender_data: Dict[Tuple[int, int], VerificationData] = {}
    with rec.span("op"):
        with rec.span("join.plan"):
            plan = executor.plan(tau)
        for edge in plan.edges:
            send_pid, recv_pid = (
                (edge.t_part, edge.q_part) if edge.direction == "tq" else (edge.q_part, edge.t_part)
            )
            senders = engine.partition(send_pid)
            with rec.span("join.select"):
                shipped = _sender_rows(senders, engine.global_index.meta(recv_pid), tau)
            if shipped.shape[0] == 0:
                continue
            bump(c, "join.tasks")
            bump(
                c,
                "join.pickle_bytes",
                len(
                    pickle.dumps(
                        TaskSpec(
                            task_id=0, kind="join.chunk", side="L", partition_id=recv_pid,
                            payload=("L", send_pid, tuple(shipped.tolist()), tau),
                        ),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                ),
            )
            q_pts = [senders.points(r) for r in shipped.tolist()]
            with rec.span("verify.prepare"):
                datas = []
                for r, pts in zip(shipped.tolist(), q_pts):
                    key = (send_pid, r)
                    if key not in sender_data:
                        sender_data[key] = VerificationData.from_points(pts, engine.config.cell_size)
                    datas.append(sender_data[key])
            trie = engine.trie(recv_pid)
            with rec.span("trie.batch_filter"):
                cand = trie.filter_candidates_batch(q_pts, [tau] * len(q_pts), engine.adapter)
            bump(c, "trie.batch_queries", len(q_pts))
            recv_ids = trie.dataset.traj_ids
            for r, pts, data, rows in zip(shipped.tolist(), q_pts, datas, cand):
                bump(c, "join.candidate_pairs", rows.shape[0])
                sid = int(senders.traj_ids[r])
                for row, d in _verify_rows(engine, trie, rows, pts, tau, data, rec, c):
                    rid = int(recv_ids[row])
                    if sid != rid:
                        pairs.setdefault((min(sid, rid), max(sid, rid)), d)
    bump(c, "join.result_pairs", len(pairs))
    bump(c, "ops")
    return pairs


def replay_sql(session, text, params, rec, c):
    """``session.sql`` for a SELECT, phase by phase."""
    with rec.span("op"):
        with rec.span("sql.parse"):
            stmt = parse(text)
        with rec.span("sql.plan"):
            logical = session.plan(stmt, params)
        with rec.span("sql.physical"):
            physical = session.to_physical(logical, params)
        with rec.span("sql.exec"):
            rows = physical.execute(params)
    bump(c, "ops")
    return rows


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def query_path_metrics(rec, c: Counts) -> Dict[str, float]:
    """The per-layer metrics every replayed query path shares, from the
    recorder's self times and the counts taken at the same boundaries."""
    self_t = rec.self_times()
    ops = c.get("ops", 0)

    def per_op_us(name: str) -> float:
        return ratio(self_t.get(name, 0.0) * 1e6, ops)

    return {
        "global_index.prune_us": per_op_us("global_index.prune"),
        "global_index.kept_ratio": ratio(c.get("global_index.kept", 0), c.get("global_index.partitions", 0)),
        "trie.filter_us": per_op_us("trie.filter"),
        "trie.batch_filter_us_per_query": ratio(
            self_t.get("trie.batch_filter", 0.0) * 1e6, c.get("trie.batch_queries", 0)
        ),
        "trie.candidates_per_query": ratio(c.get("trie.candidates", 0), ops),
        "trie.nodes_visited_per_query": ratio(c.get("trie.nodes_visited", 0), ops),
        "verify.prepare_us": per_op_us("verify.prepare"),
        "verify.mbr_us": per_op_us("verify.mbr"),
        "verify.cell_us": per_op_us("verify.cell"),
        "verify.mbr_pruned_ratio": ratio(c.get("verify.mbr_pruned", 0), c.get("verify.pairs", 0)),
        "verify.cell_pruned_ratio": ratio(c.get("verify.cell_pruned", 0), c.get("verify.pairs", 0)),
        "verify.accept_ratio": ratio(c.get("verify.accepted", 0), c.get("kernel.pairs", 0)),
        "kernel.dp_us_per_pair": ratio(self_t.get("kernel.dp", 0.0) * 1e6, c.get("kernel.pairs", 0)),
        "kernel.dp_pairs": ratio(c.get("kernel.pairs", 0), ops),
        "kernel.dp_cells_per_s": ratio(c.get("kernel.cells", 0), self_t.get("kernel.dp", 0.0)),
        "storage.view_us": ratio(self_t.get("storage.view", 0.0) * 1e6, c.get("storage.views", 0)),
    }


def layer_time(rec) -> float:
    """Sum of the self times of every layer span (the ``op`` wrapper's own
    glue is the replay's, not a layer's)."""
    return sum(t for name, t in rec.self_times().items() if name != "op")
