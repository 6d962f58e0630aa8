"""Brute-force DTW oracle for the end-to-end benchmark.

Shares no code with ``repro``: DTW (Definition 2.2 of the paper) is
recomputed here from raw point arrays, one query against every stored
trajectory, so an answer that disagrees with this file is a failed
operation whatever layer produced it.

The dynamic program is evaluated a query row at a time over all candidate
trajectories at once.  Within a row, ``v[j] = w[j] + min(a[j], v[j-1])``
(``a`` being the best of the two cells above) unrolls to
``v[j] = C[j] + min_{k<=j}(a[k] - C[k-1])`` with ``C`` the running sum of
``w``, which is one ``cumsum`` and one ``minimum.accumulate``.  The
subtraction costs a few ulps of the row sum (< 1e-13 at city scale), so
every comparison against the system uses :data:`TOL`, and candidates
within ``TOL`` of a threshold count as "either answer is right".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: absolute tolerance on a distance (coordinates are degrees, tau ~ 1e-3)
TOL = 1e-9
#: trajectories are bucketed by length so padding wastes < 2x the work
_BUCKET_EDGES = (16, 24, 32, 48, 64, 96, 128, 192, 256, 1 << 30)


class Corpus:
    """A set of trajectories laid out for one-to-many DTW: length buckets of
    zero-padded coordinate matrices."""

    def __init__(self, ids: Sequence[int], points: Sequence[np.ndarray]) -> None:
        self.ids = np.asarray(list(ids), dtype=np.int64)
        lens = np.asarray([p.shape[0] for p in points], dtype=np.int64)
        self._buckets: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        lo = 0
        for hi in _BUCKET_EDGES:
            members = np.nonzero((lens > lo) & (lens <= hi))[0]
            lo = hi
            if members.shape[0] == 0:
                continue
            width = int(lens[members].max())
            xs = np.zeros((members.shape[0], width), dtype=np.float64)
            ys = np.zeros((members.shape[0], width), dtype=np.float64)
            for slot, idx in enumerate(members.tolist()):
                p = np.asarray(points[idx], dtype=np.float64)
                xs[slot, : p.shape[0]] = p[:, 0]
                ys[slot, : p.shape[0]] = p[:, 1]
            self._buckets.append((members, lens[members] - 1, xs, ys))

    @classmethod
    def of(cls, trajectories: Iterable) -> "Corpus":
        """From objects carrying ``traj_id`` and ``points``."""
        trajs = list(trajectories)
        return cls([t.traj_id for t in trajs], [t.points for t in trajs])

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def distances(self, q: np.ndarray, within: Optional[float] = None) -> np.ndarray:
        """Exact DTW from ``q`` to every member, in member order.

        With ``within`` set, members that cannot lie within that distance
        come back as ``inf`` without running the program: every warping path
        passes through the first-first and the last-last cell, so either
        cell's cost alone is a lower bound.  That is the definition, not an
        index — it keeps the brute force affordable at 25 queries per run.
        """
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        out = np.full(len(self), np.inf, dtype=np.float64)
        for members, last, xs, ys in self._buckets:
            rows = np.arange(members.shape[0])
            if within is not None:
                ends = np.maximum(
                    np.hypot(xs[:, 0] - q[0, 0], ys[:, 0] - q[0, 1]),
                    np.hypot(xs[rows, last] - q[-1, 0], ys[rows, last] - q[-1, 1]),
                )
                keep = np.nonzero(ends <= within + TOL)[0]
                if keep.shape[0] == 0:
                    continue
                members, last, xs, ys = members[keep], last[keep], xs[keep], ys[keep]
                rows = np.arange(keep.shape[0])
            v = np.cumsum(np.hypot(xs - q[0, 0], ys - q[0, 1]), axis=1)
            for i in range(1, q.shape[0]):
                w = np.hypot(xs - q[i, 0], ys - q[i, 1])
                a = v.copy()
                np.minimum(a[:, 1:], v[:, :-1], out=a[:, 1:])
                c = np.cumsum(w, axis=1)
                v = c + np.minimum.accumulate(a - (c - w), axis=1)
            out[members] = v[rows, last]
        return out


def check_threshold(
    corpus: Corpus, q: np.ndarray, tau: float, got: Iterable[Tuple[int, float]]
) -> List[str]:
    """Mismatches between ``got`` — (id, distance) pairs claimed to be every
    trajectory within ``tau`` of ``q`` — and brute force.  Empty = agrees."""
    dist = corpus.distances(q, within=tau)
    truth = dict(zip(corpus.ids.tolist(), dist.tolist()))
    problems: List[str] = []
    seen = set()
    for tid, d in got:
        if tid in seen:
            problems.append(f"id {tid} reported twice")
        seen.add(tid)
        if tid not in truth:
            problems.append(f"id {tid} is not in the dataset")
        elif abs(truth[tid] - d) > TOL:
            problems.append(f"id {tid}: distance {d!r} vs brute force {truth[tid]!r}")
        elif truth[tid] > tau + TOL:
            problems.append(f"id {tid}: distance {truth[tid]!r} is beyond tau {tau!r}")
    for tid, d in truth.items():
        if d <= tau - TOL and tid not in seen:
            problems.append(f"id {tid} at {d!r} <= tau {tau!r} was missed")
    return problems


def check_top_k(
    corpus: Corpus, q: np.ndarray, k: int, got: Sequence[Tuple[int, float]],
    within: Optional[float] = None,
) -> List[str]:
    """Mismatches between ``got`` — the claimed ``k`` nearest in rank order
    — and brute force ranked by (distance, id).  Rank by rank the distance
    must agree, and the id must be one that truly lies at that distance:
    a tie the tolerance cannot order is not a mismatch.  ``within`` says
    that all ``k`` are known to lie within that distance."""
    dist = corpus.distances(q, within)
    ids = corpus.ids
    order = np.lexsort((ids, dist))[:k]
    if len(got) != order.shape[0]:
        return [f"{len(got)} results, brute force has {order.shape[0]}"]
    truth = dict(zip(ids.tolist(), dist.tolist()))
    problems: List[str] = []
    if len({tid for tid, _ in got}) != len(got):
        problems.append("an id is reported twice")
    for rank, ((tid, d), idx) in enumerate(zip(got, order.tolist())):
        if abs(d - dist[idx]) > TOL:
            problems.append(f"rank {rank}: distance {d!r} vs brute force {dist[idx]!r}")
        elif tid not in truth or abs(truth[tid] - d) > TOL:
            problems.append(f"rank {rank}: id {tid} does not lie at distance {d!r}")
    return problems


def join_pairs(corpus: Corpus, points: Dict[int, np.ndarray], tau: float) -> Dict[Tuple[int, int], float]:
    """Every unordered pair of corpus members within ``tau + TOL``, with its
    distance: the all-pairs nested loop, one row of the pair matrix at a
    time."""
    out: Dict[Tuple[int, int], float] = {}
    ids = corpus.ids.tolist()
    for a in ids:
        dist = corpus.distances(points[a], within=tau)
        for idx in np.nonzero(dist <= tau + TOL)[0].tolist():
            b = ids[idx]
            if a < b:
                out[(a, b)] = float(dist[idx])
    return out


def check_join(
    corpus: Corpus, points: Dict[int, np.ndarray], tau: float,
    got: Iterable[Tuple[int, int, float]],
) -> List[str]:
    """Mismatches between a self-join answer restricted to ``corpus`` and
    the all-pairs brute force over ``corpus``.  Pairs with a member outside
    the corpus are ignored: whether a pair joins depends on the pair alone."""
    inside = set(corpus.ids.tolist())
    truth = join_pairs(corpus, points, tau)
    problems: List[str] = []
    seen = set()
    for a, b, d in got:
        if a not in inside or b not in inside:
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            problems.append(f"pair {key} reported twice")
        seen.add(key)
        if key not in truth:
            problems.append(f"pair {key} at {d!r} is not within tau {tau!r}")
        elif abs(truth[key] - d) > TOL:
            problems.append(f"pair {key}: distance {d!r} vs brute force {truth[key]!r}")
    for key, d in truth.items():
        if d <= tau - TOL and key not in seen:
            problems.append(f"pair {key} at {d!r} <= tau {tau!r} was missed")
    return problems
