"""The one local scan against the loop it replaced.

``search_rows`` answers threshold searches (``k=None``) and a partition's
share of a kNN (finite ``k``) with one round-based loop.  With ``k`` set it
must answer exactly as the best-first one-query top-k it absorbed
(``oracles.topk_reference.topk_rows``): the same ``(distance, id, row)``
lists, distances equal to the last bit, and the same ``verify.*`` counts —
for every adapter, every ``k`` up to past the partition's size, and an
incoming ``tau`` of zero, a finite value and ``inf``.  The ``k=None``
form is pinned to the per-pair oracle by ``test_adapter_parity.py`` and
to one-query calls by ``test_frontier.py``.  Above the loop, the kNN
coordinator started at a finite ``tau`` (the capped select) is checked
against a brute-force ranking.
"""

import math

import numpy as np
import pytest

from conftest import nonzero_counts
from oracles.topk_reference import topk_rows
from repro.core.adapters import EDRAdapter, ERPAdapter, LCSSAdapter, get_adapter
from repro.core.config import DITAConfig
from repro.core.engine import DITAEngine
from repro.core.knn import knn_search
from repro.core.search import search_rows
from repro.core.trie import TrieIndex
from repro.core.verify import VerificationData, Verifier
from repro.datagen import citywide_dataset, random_walk_dataset, sample_queries
from repro.obs import MetricsRegistry

# (name, adapter factory, a finite tau) — EDR/LCSS thresholds are edit counts
ADAPTERS = [
    ("dtw", lambda: get_adapter("dtw"), 0.01),
    ("frechet", lambda: get_adapter("frechet"), 0.008),
    ("hausdorff", lambda: get_adapter("hausdorff"), 0.005),
    ("edr", lambda: EDRAdapter(epsilon=0.0005), 3),
    ("lcss", lambda: LCSSAdapter(epsilon=0.0005, delta=3), 3),
    ("erp", lambda: ERPAdapter(ndim=2), 0.02),
]
IDS = [a[0] for a in ADAPTERS]

TRIES = [
    (lambda: citywide_dataset(40, seed=71),
     dict(trie_fanout=3, num_pivots=2, trie_leaf_capacity=3)),
    (lambda: random_walk_dataset(40, avg_len=12, seed=3),
     dict(trie_fanout=2, num_pivots=4, trie_leaf_capacity=1)),
]


@pytest.fixture(scope="module", params=range(len(TRIES)), ids=["city71", "walks3"])
def trie_and_queries(request):
    make_data, shape = TRIES[request.param]
    data = make_data()
    trie = TrieIndex(list(data), DITAConfig(**shape))
    queries = [q.points for q in sample_queries(data, 3, seed=5, perturb=0.0002)]
    # a one-point query: the endpoint bound's single-point case
    return trie, queries + [queries[0][:1]]


def _nearest(trie, adapter, verifier, q_list, tau_list, k):
    """``search_rows`` with ``k`` set, as ``(distance, id, row)`` lists,
    with the call's counts."""
    counts = MetricsRegistry()
    got = search_rows(trie, adapter, verifier, q_list, tau_list, None, counts, k)
    ids = trie.dataset.traj_ids
    return [[(d, int(ids[r]), r) for r, d in m] for m in got], counts


def _bits(triples):
    return np.asarray([d for d, _, _ in triples], dtype=np.float64).view(np.uint64).tolist()


class TestTopkAgainstReference:
    @pytest.mark.parametrize("name,make_adapter,tau", ADAPTERS, ids=IDS)
    def test_rows_distances_and_stats_identical(self, trie_and_queries, name, make_adapter, tau):
        trie, queries = trie_and_queries
        adapter = make_adapter()
        verifier = Verifier(adapter)
        cell = trie.config.cell_size
        answered = 0
        for qi, q in enumerate(queries):
            for k in (1, 5, len(trie) + 3):
                for t in (0, tau, math.inf):
                    want_counts = MetricsRegistry()
                    want = topk_rows(
                        trie, adapter, verifier, q, k, t,
                        VerificationData.from_points(q, cell), want_counts,
                    )
                    (got,), counts = _nearest(trie, adapter, verifier, [q], [t], k)
                    case = (name, qi, k, t)
                    assert [(i, r) for _, i, r in got] == [(i, r) for _, i, r in want], case
                    assert _bits(got) == _bits(want), case
                    assert nonzero_counts(counts, "verify.") == nonzero_counts(want_counts), case
                    # no trie walk with no distance to prune by, nor where
                    # the endpoint bound orders every row
                    if math.isinf(t) or adapter.endpoint_bound is not None:
                        assert nonzero_counts(counts, "filter.") == {}, case
                    answered += len(got)
        assert answered > 0

    @pytest.mark.parametrize("name,make_adapter,tau", ADAPTERS, ids=IDS)
    def test_many_queries_equal_one_query_calls(self, trie_and_queries, name, make_adapter, tau):
        """Queries share each round's exact stage but nothing else: a
        three-query call answers as three one-query calls, and counts what
        the three count together."""
        trie, queries = trie_and_queries
        adapter = make_adapter()
        verifier = Verifier(adapter)
        q_list = queries[:3]
        tau_list = [tau, math.inf, 0]
        for k in (1, 5):
            got, counts = _nearest(trie, adapter, verifier, q_list, tau_list, k)
            alone_counts = MetricsRegistry()
            for q, t, nearest in zip(q_list, tau_list, got):
                (alone,), c = _nearest(trie, adapter, verifier, [q], [t], k)
                assert nearest == alone and _bits(nearest) == _bits(alone), (name, k, t)
                alone_counts.merge(c)
            assert nonzero_counts(counts) == nonzero_counts(alone_counts), (name, k)


class TestCappedKnn:
    """``knn_search(engine, q, k, tau)``: the nearest ``k`` within ``tau``,
    with the first wave already cut at ``tau``."""

    @pytest.mark.parametrize("name", ["dtw", "frechet", "erp"])
    def test_matches_brute_force_within_tau(self, name):
        data = list(citywide_dataset(60, seed=13))
        engine = DITAEngine(data, DITAConfig(num_global_partitions=3, trie_fanout=3), distance=name)
        for q in sample_queries(data, 3, seed=8, perturb=0.0003):
            dists = engine.adapter.exact_batch(
                [t.points for t in data], [q.points] * len(data), [math.inf] * len(data)
            )
            ranked = sorted((d, t.traj_id) for d, t in zip(dists, data))
            for tau in (0.0, ranked[4][0], ranked[len(data) // 2][0], math.inf):
                for k in (1, 5, len(data) + 3):
                    want = [(d, i) for d, i in ranked if d <= tau][:k]
                    got = [(d, t.traj_id) for t, d in knn_search(engine, q, k, tau)]
                    assert got == want, (name, tau, k)

    def test_tau_prunes_partitions_and_is_checked(self):
        data = list(citywide_dataset(80, seed=13))
        engine = DITAEngine(data, DITAConfig(num_global_partitions=3, trie_fanout=3))
        engine.enable_tracing()
        q = data[0]
        assert [t.traj_id for t, _ in knn_search(engine, q, 5, 0.0)] == [q.traj_id]
        assert engine.metrics.value("knn.partitions_skipped") > 0
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="tau"):
                knn_search(engine, q, 5, bad)
