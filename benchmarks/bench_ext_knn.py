"""Extension benchmark: kNN search (the paper's future work, implemented).

Not a paper figure — DITA's conclusion lists kNN search/join as future
work.  This bench measures the best-first distributed top-k (partitions
and their candidates visited in lower-bound order, stopping at the k-th
distance) against a brute-force top-k scan, across k.
"""

from __future__ import annotations

import time
from typing import Dict, List

from common import dataset, engine_for, print_header, print_series, queries_for
from repro.core.knn import knn_search

KS = (1, 5, 10, 25)


def brute_force_knn_ms(data, queries, k) -> float:
    from repro.distances import get_distance

    d = get_distance("dtw")
    start = time.perf_counter()
    for q in queries:
        scored = sorted(
            ((t.traj_id, d.compute(t.points, q.points)) for t in data),
            key=lambda m: (m[1], m[0]),
        )
        _ = scored[:k]
    return (time.perf_counter() - start) / len(queries) * 1000


def index_knn_ms(engine, queries, k) -> float:
    start = time.perf_counter()
    for q in queries:
        knn_search(engine, q, k)
    return (time.perf_counter() - start) / len(queries) * 1000


def main() -> None:
    print_header(
        "Extension: kNN",
        "kNN search as best-first top-k vs brute force (Beijing, DTW)",
        "(future work of the paper, implemented here; exactness tested in "
        "tests/test_knn.py)",
    )
    data = dataset("beijing")
    engine = engine_for("dita", data, "beijing")
    queries = queries_for(data, 8)
    series: Dict[str, List[float]] = {"brute force": [], "dita knn": []}
    for k in KS:
        series["brute force"].append(brute_force_knn_ms(data, queries, k))
        series["dita knn"].append(index_knn_ms(engine, queries, k))
    print_series("k", KS, series)
    print(
        f"    speedup at k=5: "
        f"{series['brute force'][1] / series['dita knn'][1]:.1f}x"
    )


def test_knn_benchmark(benchmark):
    data = dataset("beijing")
    engine = engine_for("dita", data, "beijing")
    queries = queries_for(data, 3)
    benchmark(lambda: [knn_search(engine, q, 5) for q in queries])


def test_knn_faster_than_brute_force():
    data = dataset("beijing")
    engine = engine_for("dita", data, "beijing")
    queries = queries_for(data, 5)
    assert index_knn_ms(engine, queries, 5) < brute_force_knn_ms(data, queries, 5)


if __name__ == "__main__":
    main()
