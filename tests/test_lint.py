"""ditalint: every rule fires on its bad fixture, stays quiet on the good
one, the reporters are byte-stable, and the tree itself lints clean."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

# the linter is a developer tool outside the runtime package
sys.path.insert(0, str(REPO_ROOT / "tools"))

from ditalint.cli import main as lint_main  # noqa: E402
from ditalint.registry import all_rules  # noqa: E402
from ditalint.reporters import json_report, sarif_report, text_report  # noqa: E402
from ditalint.runner import SYNTAX_ERROR_ID, lint_paths, lint_source  # noqa: E402


def lint_fixture(rel):
    """Lint one fixture; ``rel`` doubles as the path rules scope on."""
    return lint_source((FIXTURES / rel).read_text(), rel)


def rule_ids(findings):
    return {f.rule_id for f in findings}


# --------------------------------------------------------------------- #
# one bad + one good fixture per rule
# --------------------------------------------------------------------- #

class TestRuleFixtures:
    def test_dit003_float_equality(self):
        hits = [f for f in lint_fixture("distances/bad_float_eq.py") if f.rule_id == "DIT003"]
        assert len(hits) == 3  # == 0.0, == math.inf, != 1.5

    def test_dit003_clean(self):
        assert lint_fixture("distances/good_float_eq.py") == []

    def test_dit004_set_order(self):
        hits = [f for f in lint_fixture("anywhere/bad_set_order.py") if f.rule_id == "DIT004"]
        assert len(hits) == 4  # for-over-set, min(set), min(keys, key=), listcomp

    def test_dit004_clean(self):
        assert lint_fixture("anywhere/good_set_order.py") == []

    def test_dit006_hygiene(self):
        hits = [f for f in lint_fixture("anywhere/bad_hygiene.py") if f.rule_id == "DIT006"]
        # two mutable defaults, the `filter` argument, the local `type =`
        assert len(hits) == 4

    def test_dit006_clean(self):
        assert lint_fixture("anywhere/good_hygiene.py") == []

    def test_dit011_dtype_contracts(self):
        hits = [f for f in lint_fixture("kernels/bad_dtypes.py") if f.rule_id == "DIT011"]
        messages = "\n".join(f.message for f in hits)
        assert len(hits) == 5
        assert "without an explicit dtype" in messages
        assert "float32" in messages and "float16" in messages
        assert "int32" in messages and "int16" in messages

    def test_dit011_clean_allows_tag_arrays(self):
        assert lint_fixture("kernels/good_dtypes.py") == []

    def test_dit011_raw_byte_readers(self):
        hits = [f for f in lint_fixture("storage/bad_raw_readers.py") if f.rule_id == "DIT011"]
        messages = "\n".join(f.message for f in hits)
        assert len(hits) == 2
        assert "numpy.memmap() reads raw bytes" in messages
        assert "numpy.fromfile() reads raw bytes" in messages

    def test_dit011_raw_readers_clean_with_pinned_or_npy(self):
        assert lint_fixture("storage/good_raw_readers.py") == []

    def test_scoped_rules_skip_other_dirs(self):
        """Float equality is fine outside distances/geometry."""
        source = (FIXTURES / "distances" / "bad_float_eq.py").read_text()
        assert "DIT003" not in rule_ids(lint_source(source, "tools/profiler.py"))

    def test_syntax_error_reported(self):
        assert rule_ids(lint_source("def broken(:\n", "kernels/broken.py")) == {SYNTAX_ERROR_ID}


# --------------------------------------------------------------------- #
# reporters + CLI
# --------------------------------------------------------------------- #

class TestReporting:
    def test_json_report_shape(self):
        result = lint_paths([FIXTURES / "distances"], root=REPO_ROOT)
        payload = json.loads(json_report(result))
        assert payload["ok"] is False
        assert payload["files_checked"] == 2
        assert {"rule", "path", "line", "col", "message"} <= set(payload["findings"][0])
        assert all(f["path"].startswith("tests/lint_fixtures/") for f in payload["findings"])

    def test_text_report_mentions_counts(self):
        result = lint_paths([FIXTURES / "distances"], root=REPO_ROOT)
        assert text_report(result).endswith("2 files checked: 3 findings")

    def test_cli_exit_codes(self, capsys):
        assert lint_main([str(FIXTURES / "kernels" / "bad_dtypes.py")]) == 1
        assert lint_main([str(FIXTURES / "kernels" / "good_dtypes.py")]) == 0
        capsys.readouterr()

    def test_cli_missing_path_is_a_usage_error(self, capsys):
        assert lint_main(["/nonexistent/nope.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == ["DIT003", "DIT004", "DIT006", "DIT011"]
        assert all(rule_id in out for rule_id in ids)

    def test_cli_json_format(self, capsys):
        lint_main([str(FIXTURES / "kernels" / "bad_dtypes.py"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]


# --------------------------------------------------------------------- #
# SARIF, determinism, --explain
# --------------------------------------------------------------------- #

class TestSarif:
    def test_sarif_validates_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        result = lint_paths([FIXTURES], root=REPO_ROOT)
        payload = json.loads(sarif_report(result))
        schema = json.loads(
            (REPO_ROOT / "tests" / "data" / "sarif-2.1.0-subset.schema.json").read_text()
        )
        jsonschema.validate(payload, schema)

    def test_sarif_carries_rules_and_results(self):
        result = lint_paths([FIXTURES], root=REPO_ROOT)
        payload = json.loads(sarif_report(result))
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "ditalint"
        descriptors = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert descriptors == [rule.rule_id for rule in all_rules()]
        assert all(r["fullDescription"]["text"] for r in run["tool"]["driver"]["rules"])
        assert len(run["results"]) == len(result.findings)
        assert {r["ruleId"] for r in run["results"]} == set(descriptors)


class TestDeterminism:
    def run_once(self):
        result = lint_paths([*LINTED_TREES, FIXTURES], root=REPO_ROOT)
        return json_report(result), sarif_report(result)

    def test_json_and_sarif_are_byte_identical_across_runs(self):
        assert self.run_once() == self.run_once()

    def test_sarif_contains_no_volatile_fields(self):
        _, sarif = self.run_once()
        for needle in ("timestamp", "startTimeUtc", "endTimeUtc", str(REPO_ROOT)):
            assert needle not in sarif


class TestCLIModes:
    def test_cli_sarif_format(self, capsys):
        lint_main([str(FIXTURES / "kernels" / "bad_dtypes.py"), "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"]

    def test_cli_explain_known_rule(self, capsys):
        assert lint_main(["--explain", "DIT011"]) == 0
        out = capsys.readouterr().out
        assert "DIT011" in out
        assert "2^31" in out  # the PR-claim explanation, not the summary

    def test_cli_explain_every_rule(self, capsys):
        for rule in all_rules():
            assert lint_main(["--explain", rule.rule_id]) == 0
        capsys.readouterr()

    def test_cli_explain_unknown_rule(self, capsys):
        assert lint_main(["--explain", "DIT999"]) == 2
        assert "unknown rule" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# the acceptance bar: the tree itself lints clean
# --------------------------------------------------------------------- #

LINTED_TREES = [REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]


class TestRepositoryIsClean:
    def test_tree_has_no_unsuppressed_findings(self):
        """src, benchmarks and examples lint clean (the CI invocation)."""
        result = lint_paths(LINTED_TREES, root=REPO_ROOT)
        assert result.ok, "\n".join(f.render() for f in result.findings)
