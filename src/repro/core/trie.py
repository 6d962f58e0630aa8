"""The trie-like local index (Sections 4.2.3 and 5.3).

Each trajectory is reduced to its indexing points
``T_I = (t1, tm, tP1, ..., tPK)`` and the partition's trajectories are
grouped level by level: level 1 groups by first point, level 2 by last
point, levels 3..K+2 by successive pivots.  Each node stores the MBR of its
group's current indexing point; leaves store the trajectories themselves
(a *clustered* index — the paper contrasts this with DFT's non-clustered
bitmap design).

The index is *row-native* and *immutable*: the partition's trajectories
live in a :class:`~repro.storage.columnar.ColumnarDataset` (one contiguous
CSR layout, possibly memory-mapped from a persisted store block) and the
trie is bulk-built once, straight into the contiguous arrays of a
:class:`~repro.kernels.frontier.ColumnarTrie` whose members are ``int``
row indices into that dataset.  A trie is a pure function of (partition
rows, config); writes go through the engine's delta path, which rebuilds
the partitions they touch.  Filtering returns row arrays; ``Trajectory``
objects are materialized only at the boundary, by callers that need them.

Filtering (Algorithm 2) sweeps the trie level by level accumulating
per-level ``MinDist`` against a shrinking threshold; the per-distance
accumulation policy lives in :mod:`repro.core.adapters`.

Trajectories too short to supply all ``K`` pivots terminate early in a
*short leaf* attached at the level where their indexing sequence ends —
they are returned as candidates whenever filtering reaches that node, which
is sound (they simply enjoyed fewer pruning levels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from ..kernels.batch import TrajectoryBlock
from ..kernels.frontier import (
    KIND_FIRST,
    KIND_LAST,
    KIND_PIVOT,
    KIND_ROOT,
    ColumnarTrie,
    QueryBatch,
    frontier_filter,
)
from ..spatial.str_pack import str_partition
from ..storage.columnar import ColumnarDataset
from ..trajectory.trajectory import Trajectory
from .adapters import IndexAdapter
from .config import DITAConfig
from .pivots import indexing_points


@dataclass
class FilterStats:
    """The trie's per-query record of its filtering passes: what
    :meth:`TrieIndex.filter_candidates_batch` adds up for one query.
    The engine's searches read it into their task registry as
    ``filter.*`` counters."""

    nodes_visited: int = 0
    nodes_pruned: int = 0
    candidates: int = 0


class TrieIndex:
    """The local (per-partition) index of DITA.

    Parameters
    ----------
    trajectories:
        The partition's trajectories: a
        :class:`~repro.storage.columnar.ColumnarDataset` (adopted as-is,
        zero-copy — the canonical path) or any iterable of
        :class:`Trajectory` (packed into one).
    config:
        Index parameters (``num_pivots``, ``trie_fanout``, ...).
    """

    def __init__(
        self,
        trajectories: Union[ColumnarDataset, Iterable[Trajectory]],
        config: Optional[DITAConfig] = None,
    ) -> None:
        self.config = config or DITAConfig()
        self.dataset = ColumnarDataset.from_trajectories(trajectories)
        self._block: Optional[TrajectoryBlock] = None
        self._columnar, self._seq_bytes = self._build()

    def batch_block(self) -> TrajectoryBlock:
        """The partition's verification artifacts stacked for the batched
        filter stages (:mod:`repro.kernels.batch`), sharing the dataset's
        row space.  Built lazily straight from the columnar arrays, once."""
        if self._block is None:
            self._block = TrajectoryBlock.from_columnar(self.dataset, self.config.cell_size)
        return self._block

    def columnar(self) -> ColumnarTrie:
        """The trie's contiguous arrays, as the frontier traversal
        (:mod:`repro.kernels.frontier`) consumes them."""
        return self._columnar

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _build(self) -> Tuple[ColumnarTrie, int]:
        """Bulk-build the trie breadth-first, straight into the columnar
        layout; also returns the bytes of the per-trajectory indexing
        points (a :meth:`size_bytes` term — the points themselves are not
        kept).

        Nodes are numbered in queue order, so each node's children occupy
        one contiguous id range, and members are collected in node order
        (short rows before leaf rows).
        """
        cfg = self.config
        dataset = self.dataset
        lengths = dataset.lengths
        ndim = dataset.ndim
        max_level = cfg.num_pivots + 2
        root_rows = list(range(dataset.n_rows))
        seqs = {
            r: indexing_points(dataset.points(r), cfg.num_pivots, cfg.pivot_strategy)
            for r in root_rows
        }
        # the breadth-first queue doubles as the node table (the root has
        # no MBR: its corners stay zero)
        node_rows: List[List[int]] = [root_rows]
        levels: List[int] = [0]
        lows: List[np.ndarray] = [np.zeros(ndim)]
        highs: List[np.ndarray] = [np.zeros(ndim)]
        max_len: List[int] = []
        counts: List[int] = []
        member_rows: List[int] = []
        leaf_pos: List[int] = []
        short_pos: List[int] = []
        leaf_starts = [0]
        short_starts = [0]
        j = 0
        while j < len(node_rows):
            rows, level = node_rows[j], levels[j]
            j += 1
            max_len.append(max((int(lengths[r]) for r in rows), default=0))
            # rows whose indexing sequence ends here become short-leaf
            # members; the rest are grouped by the next indexing point
            short: List[int] = []
            remaining: List[int] = []
            for r in rows:
                (remaining if seqs[r].shape[0] > level else short).append(r)
            short_pos.extend(range(len(member_rows), len(member_rows) + len(short)))
            member_rows.extend(short)
            n_children = 0
            if remaining and (
                level >= max_level or len(remaining) <= cfg.trie_leaf_capacity
            ):
                leaf_pos.extend(range(len(member_rows), len(member_rows) + len(remaining)))
                member_rows.extend(remaining)
            elif remaining:
                pts = np.asarray([seqs[r][level] for r in remaining])
                for idx in str_partition(pts, cfg.trie_fanout):
                    group = pts[idx]
                    node_rows.append([remaining[i] for i in idx.tolist()])
                    levels.append(level + 1)
                    lows.append(group.min(axis=0))
                    highs.append(group.max(axis=0))
                    n_children += 1
            counts.append(n_children)
            leaf_starts.append(len(leaf_pos))
            short_starts.append(len(short_pos))
        n = len(node_rows)
        level = np.asarray(levels, dtype=np.int64)
        # level 1 aligns the first point, level 2 the last, the rest pivots
        kind = np.select(
            [level == 0, level == 1, level == 2],
            [KIND_ROOT, KIND_FIRST, KIND_LAST],
            KIND_PIVOT,
        ).astype(np.int8)
        n_children = np.asarray(counts, dtype=np.int64)
        child_lo = np.ones(n, dtype=np.int64)
        child_lo[1:] += np.cumsum(n_children[:-1])
        trie = ColumnarTrie(
            np.asarray(lows, dtype=np.float64),
            np.asarray(highs, dtype=np.float64),
            kind,
            level,
            np.asarray(max_len, dtype=np.int64),
            child_lo,
            child_lo + n_children,
            np.asarray(leaf_starts, dtype=np.int64),
            np.asarray(leaf_pos, dtype=np.int64),
            np.asarray(short_starts, dtype=np.int64),
            np.asarray(short_pos, dtype=np.int64),
            np.asarray(member_rows, dtype=np.int64),
        )
        return trie, sum(int(seq.nbytes) for seq in seqs.values())

    # ------------------------------------------------------------------ #
    # filtering (Algorithm 2, DITA-Search-Filter)
    # ------------------------------------------------------------------ #

    def filter_candidates(
        self,
        q: np.ndarray,
        tau: float,
        adapter: IndexAdapter,
        stats: Optional[FilterStats] = None,
    ) -> np.ndarray:
        """Dataset rows of candidates possibly similar to query points ``q``
        — :meth:`filter_candidates_batch` for one query.

        Guaranteed superset of the true answers for the adapter's distance.
        """
        return self.filter_candidates_batch(
            [q], [tau], adapter, None if stats is None else [stats]
        )[0]

    def filter_candidates_batch(
        self,
        queries: List[np.ndarray],
        taus: List[float],
        adapter: IndexAdapter,
        stats: Optional[List[Optional[FilterStats]]] = None,
    ) -> List[np.ndarray]:
        """Run Algorithm 2 for many queries in one level-synchronous sweep
        over the columnar trie layout (:mod:`repro.kernels.frontier`).

        Returns one int64 row array per query, and accumulates the sweep's
        counts into the matching ``FilterStats`` entries.
        """
        qs = [np.atleast_2d(np.asarray(q, dtype=np.float64)) for q in queries]
        if len(qs) != len(taus):
            raise ValueError("queries and taus must have equal length")
        if stats is not None and len(stats) != len(qs):
            raise ValueError("stats must have one (possibly None) entry per query")
        trie = self._columnar
        batch = QueryBatch(qs)
        positions, visited, pruned = frontier_filter(trie, batch, taus, adapter)
        out: List[np.ndarray] = []
        for i, pos in enumerate(positions):
            rows = trie.member_rows[pos]
            if stats is not None and stats[i] is not None:
                stats[i].nodes_visited += int(visited[i])
                stats[i].nodes_pruned += int(pruned[i])
                # accumulate, like every other counter: one stats object
                # may observe several filtering passes
                stats[i].candidates += int(rows.shape[0])
            out.append(rows)
        return out

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.dataset)

    def node_count(self) -> int:
        return self._columnar.n_nodes

    def height(self) -> int:
        return int(self._columnar.level.max()) + 1

    def all_rows(self) -> List[int]:
        """Every indexed dataset row, in depth-first trie walk order."""
        trie = self._columnar
        out: List[int] = []
        stack = [0]
        while stack:
            j = stack.pop()
            for starts, pos in (
                (trie.short_starts, trie.short_pos),
                (trie.leaf_starts, trie.leaf_pos),
            ):
                out.extend(trie.member_rows[pos[starts[j] : starts[j + 1]]].tolist())
            stack.extend(range(int(trie.child_hi[j]) - 1, int(trie.child_lo[j]) - 1, -1))
        return out

    def size_bytes(self) -> int:
        """Approximate *structural* index footprint: trie nodes, their MBRs,
        leaf row references and the per-trajectory indexing points.  This is
        the quantity the paper's Table 5 compares against DFT's segment
        index; the verification artifacts (trajectory MBRs + cells) are
        precomputed *data* reported separately by
        :meth:`verification_size_bytes`."""
        trie = self._columnar
        total = 64 * trie.n_nodes  # node overhead
        total += 2 * 8 * trie.ndim * (trie.n_nodes - 1)  # every non-root MBR
        total += 8 * int(trie.member_rows.shape[0])  # row refs
        return total + self._seq_bytes

    def verification_size_bytes(self) -> int:
        """Footprint of the precomputed verification artifacts (Lemma 5.4
        MBRs and Lemma 5.6 cells), measured over the stacked block."""
        block = self.batch_block()
        total = int(block.mbr_low.nbytes + block.mbr_high.nbytes)
        total += 40 * int(block.cell_counts.shape[0])
        return total
