"""``ditalint`` command line: ``PYTHONPATH=tools python -m ditalint``."""

from __future__ import annotations

import argparse
import sys
import textwrap
from typing import List, Optional

from .registry import all_rules, get_rule
from .reporters import json_report, sarif_report, text_report
from .runner import lint_paths


def _explain(rule_id: str) -> int:
    try:
        rule = get_rule(rule_id.upper())
    except KeyError:
        known = ", ".join(r.rule_id for r in all_rules())
        print(f"ditalint: error: unknown rule {rule_id!r} (known: {known})", file=sys.stderr)
        return 2
    scope = ", ".join(rule.scopes) if rule.scopes else "everywhere"
    print(f"{rule.rule_id}: {rule.summary}")
    print(f"scope: {scope}")
    print()
    body = rule.explanation or "(no extended explanation recorded)"
    print(textwrap.fill(body, width=78))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ditalint",
        description="Project-specific static analysis for the DITA reproduction.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories to lint")
    parser.add_argument("--format", choices=["text", "json", "sarif"], default="text")
    parser.add_argument(
        "--explain",
        metavar="DIT0xx",
        default=None,
        help="print the invariant a rule protects (the paper/PR claim) and exit",
    )
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.explain:
        return _explain(args.explain)
    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scopes) if rule.scopes else "everywhere"
            print(f"{rule.rule_id}  {rule.summary}  [scope: {scope}]")
        return 0

    try:
        result = lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"ditalint: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json_report(result))
    elif args.format == "sarif":
        print(sarif_report(result))
    else:
        print(text_report(result))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
