"""File collection and rule execution.

Every registered rule runs over each parsed file, and findings are sorted
before they are reported, so output is byte-stable for identical trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from .context import FileContext
from .findings import Finding
from .registry import Rule, all_rules

#: reserved id for files the linter cannot parse
SYNTAX_ERROR_ID = "DIT000"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def iter_python_files(paths: Sequence["str | Path"]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        elif path.suffix == ".py":
            yield path


def _rel_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _check(path: str, source: str, rules: Sequence[Rule]) -> List[Finding]:
    try:
        ctx = FileContext.parse(path, source)
    except SyntaxError as exc:
        return [
            Finding(
                rule_id=SYNTAX_ERROR_ID,
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    return [f for rule in rules if rule.applies_to(ctx) for f in rule.check(ctx)]


def lint_source(
    source: str, path: str, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Lint one in-memory file; ``path`` is what the rules scope on."""
    rules = list(rules) if rules is not None else all_rules()
    return sorted(_check(path, source, rules), key=Finding.sort_key)


def lint_paths(
    paths: Sequence["str | Path"],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional["str | Path"] = None,
) -> LintResult:
    """Lint files/directories; paths are reported relative to ``root``
    (default: the working directory)."""
    rules = list(rules) if rules is not None else all_rules()
    root_path = Path(root) if root is not None else Path.cwd()
    result = LintResult()
    for file_path in iter_python_files(paths):
        rel = _rel_posix(file_path, root_path)
        result.files_checked += 1
        result.findings.extend(_check(rel, file_path.read_text(encoding="utf-8"), rules))
    result.findings.sort(key=Finding.sort_key)
    return result
