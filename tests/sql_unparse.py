"""AST → SQL text, the parser's inverse: the fuzz suite's round-trip tool.

``parse(unparse(stmt)) == stmt`` for every statement the parser itself
produces; ``test_sql_fuzz.py`` sweeps that round trip to check the
production parser.  Two grammar quirks shape the implementation:

* the parser desugars unary minus into ``BinaryOp("*", Literal(-1.0), x)``
  — the unparser recognizes that exact pattern and emits prefix ``-``,
  because the literal text ``-1.0 * x`` would re-parse into a *different*
  (doubly nested) tree;
* operator precedence is re-established with parentheses only where the
  child could not have appeared in that position unparenthesized, so the
  emitted text stays close to what a person would write.

The guarantee covers parser-produced ASTs; hand-built trees with literals
whose ``repr`` the lexer cannot re-lex (``inf``, ``nan``) are out of scope.
"""

from __future__ import annotations

from repro.sql.ast import (
    BinaryOp,
    BoolOp,
    ColumnRef,
    Comparison,
    CreateIndex,
    Expr,
    FunctionCall,
    Literal,
    NotOp,
    OrderItem,
    Param,
    Select,
    Statement,
    TableRef,
    TrajectoryLiteral,
)

# grammar levels, loosest-binding first; a child is parenthesized exactly
# when its level is below what its syntactic slot requires
_OR, _AND, _NOT, _CMP, _ADD, _MUL, _UNARY, _ATOM = range(1, 9)


def _is_unary_minus(expr: Expr) -> bool:
    return (
        isinstance(expr, BinaryOp)
        and expr.op == "*"
        and isinstance(expr.left, Literal)
        and expr.left.value == -1.0
    )


def _level(expr: Expr) -> int:
    if isinstance(expr, BoolOp):
        return _OR if expr.op == "or" else _AND
    if isinstance(expr, NotOp):
        return _NOT
    if isinstance(expr, Comparison):
        return _CMP
    if isinstance(expr, BinaryOp):
        if _is_unary_minus(expr):
            return _UNARY
        return _ADD if expr.op in ("+", "-") else _MUL
    return _ATOM


def unparse_expr(expr: Expr, need: int = _OR) -> str:
    """Render one expression for a slot requiring at least level ``need``."""
    text = _render(expr)
    if _level(expr) < need:
        return f"({text})"
    return text


def _render(expr: Expr) -> str:
    if isinstance(expr, Literal):
        return f"'{expr.value}'" if isinstance(expr.value, str) else repr(expr.value)
    if isinstance(expr, Param):
        return f":{expr.name}"
    if isinstance(expr, ColumnRef):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, TrajectoryLiteral):
        pts = ", ".join("(" + ", ".join(repr(c) for c in p) + ")" for p in expr.points)
        return f"[{pts}]"
    if isinstance(expr, FunctionCall):
        args = ", ".join(unparse_expr(a, _OR) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, BinaryOp):
        if _is_unary_minus(expr):
            return "-" + unparse_expr(expr.right, _UNARY)
        lvl = _level(expr)
        return (
            f"{unparse_expr(expr.left, lvl)} {expr.op} "
            f"{unparse_expr(expr.right, lvl + 1)}"
        )
    if isinstance(expr, Comparison):
        # comparison is non-associative: both operands are additive slots
        return (
            f"{unparse_expr(expr.left, _ADD)} {expr.op} "
            f"{unparse_expr(expr.right, _ADD)}"
        )
    if isinstance(expr, BoolOp):
        lvl = _level(expr)
        kw = expr.op.upper()
        return (
            f"{unparse_expr(expr.left, lvl)} {kw} "
            f"{unparse_expr(expr.right, lvl + 1)}"
        )
    if isinstance(expr, NotOp):
        return "NOT " + unparse_expr(expr.operand, _NOT)
    raise TypeError(f"cannot unparse expression {expr!r}")


def _table_ref(ref: TableRef) -> str:
    return f"{ref.name} AS {ref.alias}" if ref.alias else ref.name


def _order_item(item: OrderItem) -> str:
    return unparse_expr(item.expr, _OR) + ("" if item.ascending else " DESC")


def unparse(stmt: Statement) -> str:
    """Render one statement back to SQL text."""
    if isinstance(stmt, CreateIndex):
        return f"CREATE INDEX {stmt.index_name} ON {stmt.table} USE {stmt.method.upper()}"
    if isinstance(stmt, Select):
        items = "*" if not stmt.items else ", ".join(
            unparse_expr(e, _OR) for e in stmt.items
        )
        parts = [f"SELECT {items} FROM {_table_ref(stmt.table)}"]
        if stmt.join_table is not None:
            parts.append(f"TRA-JOIN {_table_ref(stmt.join_table)}")
            parts.append(f"ON {unparse_expr(stmt.join_condition, _OR)}")
        if stmt.where is not None:
            parts.append(f"WHERE {unparse_expr(stmt.where, _OR)}")
        if stmt.order_by:
            parts.append("ORDER BY " + ", ".join(_order_item(i) for i in stmt.order_by))
        if stmt.limit is not None:
            parts.append(f"LIMIT {stmt.limit}")
        return " ".join(parts)
    raise TypeError(f"cannot unparse statement {stmt!r}")
