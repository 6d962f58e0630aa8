"""Finding reporters: human text, machine JSON, and SARIF 2.1.0.

All machine formats serialise with sorted keys and contain no timestamps,
hostnames or absolute paths, so two runs over the same tree are
byte-identical — the determinism test in ``tests/test_lint.py`` and the
CI gate both rely on this.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .findings import Finding
from .registry import Rule, all_rules
from .runner import LintResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "ditalint"
TOOL_VERSION = "3.0.0"
TOOL_URI = "docs/STATIC_ANALYSIS.md"


def text_report(result: LintResult) -> str:
    lines = [f.render() for f in result.findings]
    lines.append(f"{result.files_checked} files checked: {len(result.findings)} findings")
    return "\n".join(lines)


def json_report(result: LintResult) -> str:
    payload = {
        "files_checked": result.files_checked,
        "findings": [f.to_dict() for f in result.findings],
        "ok": result.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_result(finding: Finding, rule_index: int) -> dict:
    return {
        "ruleId": finding.rule_id,
        "ruleIndex": rule_index,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(1, finding.line),
                        "startColumn": max(1, finding.col),
                    },
                }
            }
        ],
    }


def sarif_report(
    result: LintResult, rules: Optional[Sequence[Rule]] = None
) -> str:
    """SARIF 2.1.0 for CI code-scanning upload: one ``error`` result per
    finding, in (path, line, column, rule) order."""
    rules = list(rules) if rules is not None else all_rules()
    rules = sorted(rules, key=lambda r: r.rule_id)
    rule_index = {rule.rule_id: i for i, rule in enumerate(rules)}
    descriptors = [
        {
            "id": rule.rule_id,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.explanation or rule.summary},
            "helpUri": TOOL_URI,
            "defaultConfiguration": {"level": "error"},
        }
        for rule in rules
    ]
    results = [_sarif_result(f, rule_index.get(f.rule_id, -1)) for f in result.findings]
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": TOOL_VERSION,
                        "rules": descriptors,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
