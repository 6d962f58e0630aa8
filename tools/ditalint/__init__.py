"""ditalint — project-specific static analysis for the DITA reproduction.

An AST-based rule suite for the invariants no tier-1 test catches a
violation of: no exact float equality in distance/geometry code (DIT003),
no ordered decision fed by set iteration order (DIT004), general hygiene
(DIT006) and the kernel dtype contracts (DIT011).  See
``docs/STATIC_ANALYSIS.md`` for the experiment that decided which rules
stay.

Run from the repository root::

    PYTHONPATH=tools python -m ditalint src/ benchmarks/ examples/

Programmatic use::

    from ditalint import lint_paths
    result = lint_paths(["src"])
    assert result.ok, [f.render() for f in result.findings]
"""

from . import rules  # noqa: F401  -- importing registers the rules
from .context import FileContext
from .findings import Finding
from .registry import Rule, all_rules, get_rule, register
from .runner import LintResult, lint_paths, lint_source

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register",
]
