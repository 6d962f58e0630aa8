"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.trajectory import load_jsonl


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "trips.jsonl"
    assert main(["generate", "--kind", "citywide", "--n", "40", "--seed", "3", "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_writes_dataset(self, dataset_file):
        ds = load_jsonl(dataset_file)
        assert len(ds) == 40

    def test_all_kinds(self, tmp_path):
        for kind in ("beijing", "chengdu", "osm", "random"):
            out = tmp_path / f"{kind}.jsonl"
            assert main(["generate", "--kind", kind, "--n", "5", "--out", str(out)]) == 0
            assert len(load_jsonl(out)) == 5


class TestStats:
    def test_prints(self, dataset_file, capsys):
        assert main(["stats", str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert "Cardinality" in out and "40" in out


class TestSearch:
    def test_finds_self(self, dataset_file, capsys):
        code = main(
            ["search", str(dataset_file), "--query-id", "0", "--tau", "0.001",
             "--partitions", "2", "--pivots", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trajectories within" in out

    def test_unknown_query_id(self, dataset_file):
        assert main(["search", str(dataset_file), "--query-id", "999", "--tau", "0.1"]) == 1


class TestJoin:
    def test_runs(self, dataset_file, capsys):
        code = main(["join", str(dataset_file), "--tau", "0.002", "--partitions", "2"])
        assert code == 0
        assert "similar pairs" in capsys.readouterr().out


class TestKNN:
    def test_first_neighbour_is_self(self, dataset_file, capsys):
        code = main(
            ["knn", str(dataset_file), "--query-id", "3", "--k", "3", "--partitions", "2"]
        )
        assert code == 0
        first = capsys.readouterr().out.strip().splitlines()[0].split()
        assert first[0] == "3" and float(first[1]) == 0.0


class TestCluster:
    def test_runs(self, dataset_file, capsys):
        code = main(
            ["cluster", str(dataset_file), "--tau", "0.003", "--min-pts", "2",
             "--partitions", "2"]
        )
        assert code == 0
        assert "clusters" in capsys.readouterr().out


class TestTrace:
    def test_search_breakdown(self, dataset_file, capsys):
        ds = load_jsonl(dataset_file)
        qid = sorted(ds.ids)[0]
        assert (
            main(
                ["trace", str(dataset_file), "--mode", "search",
                 "--query-id", str(qid), "--tau", "0.01"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "search.partition" in out
        assert "accounted" in out and "report:" in out

    def test_join_writes_trace_files(self, dataset_file, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        chrome = tmp_path / "chrome.json"
        assert (
            main(
                ["trace", str(dataset_file), "--mode", "join", "--tau", "0.005",
                 "--out", str(trace), "--chrome", str(chrome)]
            )
            == 0
        )
        spans = json.loads(trace.read_text())["spans"]
        events = json.loads(chrome.read_text())["traceEvents"]
        assert spans and len(spans) == len(events)
        assert all(e["ph"] == "X" for e in events)

    def test_knn_requires_query_id(self, dataset_file):
        assert main(["trace", str(dataset_file), "--mode", "knn"]) == 1

    def test_knn_breakdown(self, dataset_file, capsys):
        ds = load_jsonl(dataset_file)
        qid = sorted(ds.ids)[0]
        assert (
            main(["trace", str(dataset_file), "--mode", "knn",
                  "--query-id", str(qid), "--k", "3"])
            == 0
        )
        assert "knn.topk" in capsys.readouterr().out


class TestStore:
    def test_build_inspect_verify(self, dataset_file, tmp_path, capsys):
        import json

        store_dir = tmp_path / "trips.store"
        assert (
            main(["store", "build", str(dataset_file), "--out", str(store_dir),
                  "--groups", "4"])
            == 0
        )
        assert "partitions" in capsys.readouterr().out
        assert main(["store", "inspect", str(store_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_trajectories"] == 40
        assert payload["format_version"] == 1
        assert len(payload["partitions"]) == payload["n_partitions"]
        assert main(["store", "verify", str(store_dir)]) == 0
        assert "checksums match" in capsys.readouterr().out

    def test_build_from_csv(self, dataset_file, tmp_path, capsys):
        from repro.trajectory import load_jsonl, save_csv

        csv_path = tmp_path / "trips.csv"
        save_csv(load_jsonl(dataset_file), csv_path)
        store_dir = tmp_path / "csv.store"
        assert main(["store", "build", str(csv_path), "--out", str(store_dir)]) == 0
        assert "40 trajectories" in capsys.readouterr().out

    def test_inspect_missing_store_fails(self, tmp_path, capsys):
        assert main(["store", "inspect", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_verify_detects_bit_flip(self, dataset_file, tmp_path, capsys):
        store_dir = tmp_path / "trips.store"
        assert (
            main(["store", "build", str(dataset_file), "--out", str(store_dir)]) == 0
        )
        capsys.readouterr()
        victim = next(store_dir.rglob("coords.npy"))
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        assert main(["store", "verify", str(store_dir)]) == 1
        assert "CRC32" in capsys.readouterr().err


class TestGenerations:
    """The two commands that write a generational store root: each commits
    a generation, and the root reopens holding exactly what went in."""

    def test_store_merge_seeds_root_from_dataset(self, dataset_file, tmp_path, capsys):
        from repro import DITAEngine

        root = tmp_path / "gens"
        args = ["store", "merge", str(root), "--dataset", str(dataset_file), "--partitions", "2"]
        assert main(args) == 0
        assert "committed generation 1" in capsys.readouterr().out
        assert main(args) == 0  # a second merge advances the same root
        assert "committed generation 2" in capsys.readouterr().out
        reopened = DITAEngine.from_generations(root)
        assert reopened.generations.generation == 2
        assert len(reopened) == len(load_jsonl(dataset_file))

    def test_ingest_merges_everything_into_root(self, dataset_file, tmp_path, capsys):
        from repro import DITAEngine

        root = tmp_path / "gens"
        code = main(
            ["ingest", str(dataset_file), "--n", "12", "--query-every", "5",
             "--root", str(root), "--partitions", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        reopened = DITAEngine.from_generations(root)
        assert f"generation: {reopened.generations.generation}" in out
        assert reopened.generations.generation >= 1
        assert len(reopened) == len(load_jsonl(dataset_file)) + 12
