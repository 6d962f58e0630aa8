"""The unit of lint output: one finding at one source location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    ``path`` is stored POSIX-style relative to the lint root so findings
    are stable across machines and operating systems.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
