"""Vectorized batch kernels for the filter–verification hot path.

DITA's throughput claims rest on two properties of the verification stage
(Sections 5.2–5.3): cheap bounds reject most candidate pairs before any
O(mn) dynamic program runs, and the dynamic programs that do run must cost
what the hardware allows, not what a Python interpreter allows.  This
package delivers both:

* :mod:`repro.kernels.wavefront` — the two per-pair anti-diagonal sweeps
  every DP distance runs on: the min-combine sweep (``np.add`` for DTW and
  banded DTW, ``np.maximum`` for discrete Fréchet) and the edit sweep
  (ERP, and EDR and LCSS through their substitution matrices).  Every DP
  cell depends only on the previous two anti-diagonals, so each diagonal
  is a few vectorized ``minimum`` calls over shifted views: O(m + n) array
  operations instead of O(mn) interpreted iterations.  With ``tau`` set a
  sweep abandons as soon as two consecutive diagonals exceed it.
* :mod:`repro.kernels.pairbatch` — the min-combine sweep run across
  *many* pairs at once, the third and last DP sweep: every surviving pair
  of a verification task shares a few padded anti-diagonal sweeps, with
  the tables stacked along a trailing batch axis.  At real trip lengths
  (24-40 points) this, not the per-pair vectorisation, is what takes
  numpy's call overhead out of threshold DTW and Fréchet; answers are
  bit-identical to the per-pair sweep.
* :mod:`repro.kernels.batch` — batched candidate filtering: the MBR
  coverage filter (Lemma 5.4) and the cell-compression lower bound
  (Lemma 5.6) evaluated for a whole candidate list with matrix operations
  over contiguous stacked arrays (:class:`~repro.kernels.batch.TrajectoryBlock`),
  so only surviving pairs ever reach an exact kernel; a join's box bound
  (:func:`~repro.kernels.batch.pair_box_bounds`) takes a task's pairs of
  many queries in one pass.  The block's cells
  come from one block-wide greedy compression pass
  (:func:`~repro.kernels.batch.compress_cells`), not one per row.
* :mod:`repro.kernels.frontier` — the columnar trie layout
  (:class:`~repro.kernels.frontier.ColumnarTrie`) and the
  level-synchronous frontier traversal that runs Algorithm 2's filter
  walk for many queries at once as chunked array passes instead of a
  per-node Python recursion.

The per-cell loops these kernels replaced live on as differential oracles
under ``tests/oracles/``.  The ``ext-kernels`` figure of
``benchmarks/figures.py`` times the pair-batched sweeps against the
per-pair kernels at the lengths real trips have.
"""

from .batch import (
    TrajectoryBlock,
    batch_box_bounds,
    batch_cell_bounds,
    batch_mbr_coverage,
    pair_box_bounds,
)
from .frontier import (
    BatchStep,
    BatchVisit,
    ColumnarTrie,
    QueryBatch,
    frontier_filter,
    rows_point_box_dist,
    span_drop_min,
    span_min_dist,
)
from .pairbatch import dtw_double_direction_batch, frechet_threshold_batch
from .wavefront import dtw_wavefront_last_row

__all__ = [
    "BatchStep",
    "BatchVisit",
    "ColumnarTrie",
    "QueryBatch",
    "TrajectoryBlock",
    "batch_box_bounds",
    "batch_cell_bounds",
    "batch_mbr_coverage",
    "frontier_filter",
    "pair_box_bounds",
    "rows_point_box_dist",
    "span_drop_min",
    "span_min_dist",
    "dtw_double_direction_batch",
    "frechet_threshold_batch",
    "dtw_wavefront_last_row",
]
