"""Rule interface and the rule registry.

A rule sees one :class:`FileContext` at a time via ``check(ctx)``.
Registering it with :func:`register` makes the runner and the CLI pick it
up — adding a rule to the suite is exactly one decorated class (see
``docs/STATIC_ANALYSIS.md``).  Every rule carries an ``explanation`` — the
paper/PR claim it protects — surfaced by ``--explain DIT0xx`` and embedded
in the SARIF rule metadata.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Type

from .context import FileContext
from .findings import Finding


class Rule(ABC):
    """One static check, identified by a stable ``DITxxx`` id."""

    rule_id: str = "DIT000"
    summary: str = ""
    #: the paper claim / PR invariant this rule protects (``--explain``)
    explanation: str = ""
    #: directory names the rule is confined to (any path component match);
    #: empty means the rule applies everywhere.
    scopes: tuple = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if not self.scopes:
            return True
        return any(part in self.scopes for part in ctx.path_parts)

    @abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file (already scope-filtered)."""

    def finding(self, ctx: FileContext, node, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            message=message,
        )


_RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id or cls.rule_id == "DIT000":
        raise ValueError(f"{cls.__name__} must define a non-reserved rule_id")
    if cls.rule_id in _RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _RULES[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, ordered by id."""
    return [_RULES[rid]() for rid in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    return _RULES[rule_id]()
