"""Hand-written lexer for the extended SQL dialect.

``TRA-JOIN`` is a single keyword token (the paper's join syntax), which the
lexer recognizes before treating ``-`` as an operator.
"""

from __future__ import annotations

from typing import List

from .tokens import KEYWORDS, SQLError, Token, TokenType

_SINGLE = {
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    "*": TokenType.STAR,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "/": TokenType.SLASH,
}

#: a number's digits: ASCII only, since ``str.isdigit`` also takes "²" or
#: "٣", which ``float()`` then rejects or reads as another number
_DIGITS = frozenset("0123456789")


def tokenize(text: str) -> List[Token]:
    """Lex ``text`` into tokens, ending with an EOF token."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_"):
                j += 1
            word = text[i:j]
            # TRA-JOIN: identifier 'TRA' immediately followed by '-JOIN'
            if word.lower() == "tra" and text[j : j + 5].lower() == "-join":
                tokens.append(Token(TokenType.TRA_JOIN, text[i : j + 5], start))
                i = j + 5
                continue
            ttype = KEYWORDS.get(word.lower(), TokenType.IDENT)
            tokens.append(Token(ttype, word, start))
            i = j
            continue
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                ch = text[j]
                if ch in _DIGITS:
                    j += 1
                elif ch == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif ch in "eE" and not seen_exp and j > i:
                    # only a real exponent ("e", optional sign, >= 1 digit)
                    # extends the number — otherwise "9e-" would lex as one
                    # NUMBER token that float() later rejects
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k] in _DIGITS:
                        seen_exp = True
                        j = k
                    else:
                        break
                else:
                    break
            tokens.append(Token(TokenType.NUMBER, text[i:j], start))
            i = j
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 1
            if j >= n:
                raise SQLError(f"unterminated string literal at position {start}")
            tokens.append(Token(TokenType.STRING, text[i + 1 : j], start))
            i = j + 1
            continue
        if c == ":":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise SQLError(f"empty parameter name at position {start}")
            tokens.append(Token(TokenType.PARAM, text[i + 1 : j], start))
            i = j
            continue
        if c == "<":
            if i + 1 < n and text[i + 1] == "=":
                tokens.append(Token(TokenType.LE, "<=", start))
                i += 2
            elif i + 1 < n and text[i + 1] == ">":
                tokens.append(Token(TokenType.NE, "<>", start))
                i += 2
            else:
                tokens.append(Token(TokenType.LT, "<", start))
                i += 1
            continue
        if c == ">":
            if i + 1 < n and text[i + 1] == "=":
                tokens.append(Token(TokenType.GE, ">=", start))
                i += 2
            else:
                tokens.append(Token(TokenType.GT, ">", start))
                i += 1
            continue
        if c == "=":
            tokens.append(Token(TokenType.EQ, "=", start))
            i += 1
            continue
        if c == "!":
            if i + 1 < n and text[i + 1] == "=":
                tokens.append(Token(TokenType.NE, "!=", start))
                i += 2
                continue
            raise SQLError(f"unexpected character {c!r} at position {start}")
        if c in _SINGLE:
            tokens.append(Token(_SINGLE[c], c, start))
            i += 1
            continue
        raise SQLError(f"unexpected character {c!r} at position {start}")
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens
