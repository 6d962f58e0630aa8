"""Recursive-descent parser for the extended SQL dialect.

Supported grammar (case-insensitive keywords)::

    statement    := [EXPLAIN [ANALYZE]] (select | create_index)
    create_index := CREATE INDEX ident ON ident USE TRIE
    select       := SELECT items FROM table_ref
                    [TRA-JOIN table_ref ON predicate]
                    [WHERE predicate]
                    [ORDER BY order_items] [LIMIT number]
    items        := '*' | expr (',' expr)*
    table_ref    := ident [AS] [ident]
    predicate    := or_expr
    or_expr      := and_expr (OR and_expr)*
    and_expr     := not_expr (AND not_expr)*
    not_expr     := NOT not_expr | comparison
    comparison   := additive [(<=|<|>=|>|=|!=|<>) additive]
    additive     := multiplicative ((+|-) multiplicative)*
    multiplicative := unary ((*|/) unary)*
    unary        := '-' unary | primary
    primary      := NUMBER | STRING | PARAM | trajectory_literal
                  | ident '(' args ')' | ident ['.' ident] | '(' predicate ')'
    trajectory_literal := '[' '(' n ',' n [',' n]* ')' (',' '(' ... ')')* ']'
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .ast import (
    BinaryOp,
    BoolOp,
    ColumnRef,
    Comparison,
    CreateIndex,
    Explain,
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
from .lexer import tokenize
from .tokens import SQLError, Token, TokenType

_CMP_TOKENS = {
    TokenType.LE: "<=",
    TokenType.LT: "<",
    TokenType.GE: ">=",
    TokenType.GT: ">",
    TokenType.EQ: "=",
    TokenType.NE: "!=",
}


class Parser:
    """One-statement recursive-descent parser over a token list."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------------ #
    # token helpers
    # ------------------------------------------------------------------ #

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _accept(self, ttype: TokenType) -> Optional[Token]:
        if self._peek().type is ttype:
            return self._next()
        return None

    def _expect(self, ttype: TokenType, what: str = "") -> Token:
        tok = self._peek()
        if tok.type is not ttype:
            raise SQLError(
                f"expected {what or ttype.name} at position {tok.pos}, got {tok.value!r}"
            )
        return self._next()

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def parse(self) -> Statement:
        tok = self._peek()
        if tok.type is TokenType.EXPLAIN:
            self._next()
            analyze = self._accept(TokenType.ANALYZE) is not None
            stmt: Statement = Explain(self._statement(), analyze=analyze)
        else:
            stmt = self._statement()
        self._expect(TokenType.EOF, "end of statement")
        return stmt

    def _statement(self):
        tok = self._peek()
        if tok.type is TokenType.CREATE:
            return self._create_index()
        if tok.type is TokenType.SELECT:
            return self._select()
        raise SQLError(f"expected SELECT or CREATE at position {tok.pos}")

    def _create_index(self) -> CreateIndex:
        self._expect(TokenType.CREATE)
        self._expect(TokenType.INDEX)
        name = self._expect(TokenType.IDENT, "index name").value
        self._expect(TokenType.ON)
        table = self._expect(TokenType.IDENT, "table name").value
        self._expect(TokenType.USE)
        self._expect(TokenType.TRIE, "TRIE")
        return CreateIndex(index_name=name, table=table)

    def _select(self) -> Select:
        self._expect(TokenType.SELECT)
        items: Tuple[Expr, ...] = ()
        if self._accept(TokenType.STAR) is None:
            exprs: List[Expr] = [self._expr()]
            while self._accept(TokenType.COMMA):
                exprs.append(self._expr())
            items = tuple(exprs)
        self._expect(TokenType.FROM)
        table = self._table_ref()
        join_table = None
        join_condition = None
        if self._accept(TokenType.TRA_JOIN):
            join_table = self._table_ref()
            self._expect(TokenType.ON)
            join_condition = self._expr()
        where = None
        if self._accept(TokenType.WHERE):
            where = self._expr()
        order_by: Tuple[OrderItem, ...] = ()
        if self._accept(TokenType.ORDER):
            self._expect(TokenType.BY)
            order_items = [self._order_item()]
            while self._accept(TokenType.COMMA):
                order_items.append(self._order_item())
            order_by = tuple(order_items)
        limit = None
        if self._accept(TokenType.LIMIT):
            count = self._expect(TokenType.NUMBER, "limit count")
            if not (count.value.isascii() and count.value.isdigit()):
                raise SQLError(
                    f"LIMIT expects a non-negative integer at position {count.pos}, got {count.value!r}"
                )
            limit = int(count.value)
        return Select(
            items=items,
            table=table,
            join_table=join_table,
            join_condition=join_condition,
            where=where,
            order_by=order_by,
            limit=limit,
        )

    def _order_item(self) -> OrderItem:
        expr = self._expr()
        asc = True
        if self._accept(TokenType.DESC):
            asc = False
        else:
            self._accept(TokenType.ASC)
        return OrderItem(expr=expr, ascending=asc)

    def _table_ref(self) -> TableRef:
        name = self._expect(TokenType.IDENT, "table name").value
        alias = None
        if self._accept(TokenType.AS):
            alias = self._expect(TokenType.IDENT, "alias").value
        elif self._peek().type is TokenType.IDENT:
            alias = self._next().value
        return TableRef(name=name, alias=alias)

    # ------------------------------------------------------------------ #
    # expressions (precedence climbing)
    # ------------------------------------------------------------------ #

    def _expr(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._accept(TokenType.OR):
            left = BoolOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self._accept(TokenType.AND):
            left = BoolOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> Expr:
        if self._accept(TokenType.NOT):
            return NotOp(self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._additive()
        tok = self._peek()
        if tok.type in _CMP_TOKENS:
            self._next()
            right = self._additive()
            return Comparison(_CMP_TOKENS[tok.type], left, right)
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while True:
            if self._accept(TokenType.PLUS):
                left = BinaryOp("+", left, self._multiplicative())
            elif self._accept(TokenType.MINUS):
                left = BinaryOp("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while True:
            if self._accept(TokenType.STAR):
                left = BinaryOp("*", left, self._unary())
            elif self._accept(TokenType.SLASH):
                left = BinaryOp("/", left, self._unary())
            else:
                return left

    def _unary(self) -> Expr:
        if self._accept(TokenType.MINUS):
            operand = self._unary()
            return BinaryOp("*", Literal(-1.0), operand)
        return self._primary()

    def _primary(self) -> Expr:
        tok = self._peek()
        if tok.type is TokenType.NUMBER:
            self._next()
            return Literal(float(tok.value))
        if tok.type is TokenType.STRING:
            self._next()
            return Literal(tok.value)
        if tok.type is TokenType.PARAM:
            self._next()
            return Param(tok.value)
        if tok.type is TokenType.LBRACKET:
            return self._trajectory_literal()
        if tok.type is TokenType.LPAREN:
            self._next()
            inner = self._expr()
            self._expect(TokenType.RPAREN, "')'")
            return inner
        if tok.type is TokenType.IDENT:
            self._next()
            if self._peek().type is TokenType.LPAREN:
                self._next()
                args: List[Expr] = []
                if self._accept(TokenType.STAR):
                    args.append(ColumnRef("*"))
                elif self._peek().type is not TokenType.RPAREN:
                    args.append(self._expr())
                    while self._accept(TokenType.COMMA):
                        args.append(self._expr())
                self._expect(TokenType.RPAREN, "')'")
                return FunctionCall(tok.value.lower(), tuple(args))
            if self._accept(TokenType.DOT):
                col = self._expect(TokenType.IDENT, "column name").value
                return ColumnRef(name=col, table=tok.value)
            return ColumnRef(name=tok.value)
        raise SQLError(f"unexpected token {tok.value!r} at position {tok.pos}")

    def _trajectory_literal(self) -> TrajectoryLiteral:
        self._expect(TokenType.LBRACKET)
        points: List[Tuple[float, ...]] = []
        while True:
            self._expect(TokenType.LPAREN, "'('")
            coords: List[float] = [self._number()]
            while self._accept(TokenType.COMMA):
                coords.append(self._number())
            self._expect(TokenType.RPAREN, "')'")
            points.append(tuple(coords))
            if not self._accept(TokenType.COMMA):
                break
        self._expect(TokenType.RBRACKET, "']'")
        return TrajectoryLiteral(points=tuple(points))

    def _number(self) -> float:
        sign = -1.0 if self._accept(TokenType.MINUS) else 1.0
        tok = self._expect(TokenType.NUMBER, "number")
        return sign * float(tok.value)


def parse(text: str) -> Statement:
    """Parse a single SQL statement."""
    return Parser(text).parse()
