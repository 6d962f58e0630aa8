"""Ablation: the verification pipeline stages (Section 5.3.3).

Runs the same candidate stream through four verifier configurations —
exact only, +MBR coverage, +cells, full pipeline — reporting where pairs
die and the average verification time.  The paper's claim: MBR coverage is
nearly free and kills far pairs; cells catch overlapping-but-far pairs;
double-direction DTW handles the rest.
"""

from __future__ import annotations

import time
from typing import Dict, List

from common import dataset, default_config, print_header, queries_for
from repro.core.adapters import DTWAdapter
from repro.core.search import SearchStats, search_rows
from repro.core.trie import TrieIndex
from repro.core.verify import VerificationData, Verifier

CONFIGS = (
    ("exact only", False, False),
    ("+mbr", True, False),
    ("+cells", False, True),
    ("full", True, True),
)
TAU = 0.003


def run():
    data = dataset("beijing")
    cfg = default_config()
    trie = TrieIndex(list(data), cfg)
    adapter = DTWAdapter()
    queries = queries_for(data, 10)
    rows = []
    for label, use_mbr, use_cells in CONFIGS:
        verifier = Verifier(adapter, use_mbr_coverage=use_mbr, use_cell_filter=use_cells)
        stats = SearchStats()
        start = time.perf_counter()
        n_matches = 0
        for q in queries:
            q_data = VerificationData.of(q, cfg.cell_size)
            n_matches += len(
                search_rows(trie, adapter, verifier, [q.points], [TAU], [q_data], [stats])[0]
            )
        elapsed = (time.perf_counter() - start) / len(queries) * 1000
        rows.append((label, stats.verify, elapsed, n_matches))
    return rows


def main() -> None:
    print_header(
        "Ablation: verification",
        "Stage-by-stage verification pipeline (search on beijing, DTW)",
        "(quantifies Section 5.3.3: MBR coverage ~free, cells cheap, exact "
        "DTW only for survivors; answers identical across configs)",
    )
    print(
        f"{'config':<14}{'pairs':>8}{'mbr-kill':>10}{'cell-kill':>10}"
        f"{'exact':>8}{'matches':>9}{'ms/query':>10}"
    )
    reference = None
    for label, stats, elapsed, matches in run():
        print(
            f"{label:<14}{stats.pairs:>8}{stats.pruned_by_mbr:>10}"
            f"{stats.pruned_by_cells:>10}{stats.exact_computed:>8}"
            f"{matches:>9}{elapsed:>10.3f}"
        )
        if reference is None:
            reference = matches
        assert matches == reference, "verification configs must agree"


def test_verify_pipeline_benchmark(benchmark):
    data = dataset("beijing")
    cfg = default_config()
    trie = TrieIndex(list(data), cfg)
    adapter = DTWAdapter()
    verifier = Verifier(adapter)
    queries = [q.points for q in queries_for(data, 5)]
    benchmark(lambda: [search_rows(trie, adapter, verifier, [q], [TAU]) for q in queries])


def test_ablation_stages_agree():
    rows = run()
    matches = {label: m for label, _, _, m in rows}
    assert len(set(matches.values())) == 1


def test_ablation_full_prunes_most_exact():
    rows = {label: stats for label, stats, _, _ in run()}
    assert rows["full"].exact_computed <= rows["exact only"].exact_computed


if __name__ == "__main__":
    main()
