"""Grammar fuzz for the SQL front end.

A seeded ``random.Random`` generator derives ~200 statements straight from
the grammar productions (so every one is syntactically valid by
construction) and asserts the parse → unparse → parse round trip yields an
identical AST.  A second battery pins the parser's error *positions* for
malformed input — "somewhere in the string" regressions fail loudly.
"""

import random

import pytest

from repro.sql import parse
from repro.sql.ast import BinaryOp, ColumnRef, FunctionCall, Literal, Select
from repro.sql.tokens import SQLError
from sql_unparse import unparse, unparse_expr

# identifier pools chosen to dodge every keyword
TABLES = ["taxi", "trips", "geolife", "fleet", "t1"]
ALIASES = ["a", "b", "x", "lhs", "rhs"]
COLUMNS = ["traj_id", "trajectory", "distance", "speed", "len_m"]
FUNCS = ["dtw", "frechet", "lcss", "edr", "erp", "length", "abs", "myfunc"]
WORDS = ["beijing", "chengdu", "osm", "route"]


# --------------------------------------------------------------------- #
# grammar-directed text generator
# --------------------------------------------------------------------- #


def gen_number(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return str(rng.randint(0, 999))
    if kind == 1:
        return f"{rng.randint(0, 9)}.{rng.randint(0, 9999)}"
    if kind == 2:
        return f"0.{rng.randint(1, 99):02d}"
    return f"{rng.randint(1, 9)}e-{rng.randint(1, 6)}"


def gen_trajectory(rng: random.Random) -> str:
    pts = []
    for _ in range(rng.randint(1, 4)):
        coords = [
            ("-" if rng.random() < 0.3 else "") + gen_number(rng)
            for _ in range(rng.choice([2, 2, 3]))
        ]
        pts.append("(" + ", ".join(coords) + ")")
    return "[" + ", ".join(pts) + "]"


def gen_primary(rng: random.Random, depth: int) -> str:
    kind = rng.randrange(8 if depth > 0 else 6)
    if kind == 0:
        return gen_number(rng)
    if kind == 1:
        return f"'{rng.choice(WORDS)}'"
    if kind == 2:
        return f":{rng.choice(COLUMNS)}"
    if kind == 3:
        col = rng.choice(COLUMNS)
        return f"{rng.choice(ALIASES)}.{col}" if rng.random() < 0.5 else col
    if kind == 4:
        return gen_trajectory(rng)
    if kind == 5:
        return "-" + gen_primary(rng, depth)
    if kind == 6:
        name = rng.choice(FUNCS)
        if name == "count" or rng.random() < 0.1:
            return "count(*)"
        args = ", ".join(gen_arith(rng, depth - 1) for _ in range(rng.randint(1, 2)))
        return f"{name}({args})"
    return "(" + gen_predicate(rng, depth - 1) + ")"


def gen_arith(rng: random.Random, depth: int) -> str:
    left = gen_primary(rng, depth)
    while depth > 0 and rng.random() < 0.4:
        op = rng.choice(["+", "-", "*", "/"])
        left = f"{left} {op} {gen_primary(rng, depth)}"
    return left


def gen_comparison(rng: random.Random, depth: int) -> str:
    left = gen_arith(rng, depth)
    if rng.random() < 0.7:
        op = rng.choice(["<=", "<", ">=", ">", "=", "!=", "<>"])
        return f"{left} {op} {gen_arith(rng, depth)}"
    return left


def gen_predicate(rng: random.Random, depth: int) -> str:
    parts = [gen_comparison(rng, depth)]
    while depth > 0 and rng.random() < 0.35:
        parts.append(rng.choice(["AND", "OR"]))
        nxt = gen_comparison(rng, depth)
        if rng.random() < 0.2:
            nxt = "NOT " + nxt
        parts.append(nxt)
    return " ".join(parts)


def gen_table_ref(rng: random.Random) -> str:
    name = rng.choice(TABLES)
    r = rng.random()
    if r < 0.33:
        return name
    if r < 0.66:
        return f"{name} {rng.choice(ALIASES)}"
    return f"{name} AS {rng.choice(ALIASES)}"


def gen_statement(seed: int) -> str:
    """One statement per seed: CREATE INDEX, TRA-JOIN or plain SELECT."""
    rng = random.Random(seed)
    if seed % 10 == 0:
        return f"CREATE INDEX {rng.choice(COLUMNS)}_idx ON {rng.choice(TABLES)} USE TRIE"
    items = "*" if rng.random() < 0.3 else ", ".join(
        gen_arith(rng, 2) for _ in range(rng.randint(1, 3))
    )
    parts = [f"SELECT {items} FROM {gen_table_ref(rng)}"]
    if seed % 3 == 0:
        parts.append(f"TRA-JOIN {gen_table_ref(rng)} ON {gen_predicate(rng, 2)}")
    if rng.random() < 0.7:
        parts.append(f"WHERE {gen_predicate(rng, 2)}")
    if rng.random() < 0.4:
        orders = []
        for _ in range(rng.randint(1, 2)):
            orders.append(gen_arith(rng, 1) + rng.choice(["", " ASC", " DESC"]))
        parts.append("ORDER BY " + ", ".join(orders))
    if rng.random() < 0.4:
        parts.append(f"LIMIT {rng.randint(1, 100)}")
    return " ".join(parts)


# --------------------------------------------------------------------- #
# round trip: parse -> unparse -> parse is the identity on ASTs
# --------------------------------------------------------------------- #


N_STATEMENTS = 220


class TestRoundTrip:
    def test_fuzz_sweep(self):
        joins = creates = 0
        for seed in range(N_STATEMENTS):
            text = gen_statement(seed)
            ast1 = parse(text)
            text2 = unparse(ast1)
            ast2 = parse(text2)
            assert ast2 == ast1, f"seed={seed}\n  in:  {text}\n  out: {text2}"
            # the round trip must also be a fixpoint: unparsing the
            # re-parsed tree reproduces the same text
            assert unparse(ast2) == text2, f"seed={seed}"
            if isinstance(ast1, Select) and ast1.join_table is not None:
                joins += 1
            if not isinstance(ast1, Select):
                creates += 1
        assert joins >= 50  # the sweep genuinely covers TRA-JOIN ...
        assert creates >= 20  # ... and CREATE INDEX ... USE TRIE

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT * FROM taxi",
            "SELECT taxi.traj_id, distance FROM taxi WHERE DTW(taxi, :q) <= 0.005",
            "SELECT a.traj_id, b.traj_id, distance FROM taxi a TRA-JOIN taxi b "
            "ON DTW(a, b) <= 0.002",
            "CREATE INDEX taxi_idx ON taxi USE TRIE",
            "SELECT count(*) FROM trips WHERE NOT (speed > 3 OR speed < 1) AND len_m != 0",
            "SELECT * FROM trips ORDER BY distance DESC, traj_id LIMIT 5",
            "SELECT * FROM t WHERE DTW(t, [(0.1, 0.2), (-0.3, 0.4)]) <= 1e-3",
            "SELECT -speed, 2 * -(speed + 1) FROM trips WHERE -speed <= --3",
            "SELECT * FROM t WHERE (a <= b) + 1 = 2 - 3 - 4",
        ],
    )
    def test_canonical_statements(self, text):
        ast1 = parse(text)
        assert parse(unparse(ast1)) == ast1

    def test_unary_minus_pattern_emits_prefix(self):
        # the parser's unary-minus desugaring must round-trip as prefix "-":
        # the literal text "-1.0 * x" re-parses to a *different* tree
        ast = parse("SELECT -speed FROM t")
        expr = ast.items[0]
        assert expr == BinaryOp("*", Literal(-1.0), ColumnRef("speed"))
        assert unparse_expr(expr) == "-speed"
        nested = parse("SELECT -1.0 * speed FROM t").items[0]
        assert nested != expr  # the trap the special case exists for
        assert parse(f"SELECT {unparse_expr(nested)} FROM t").items[0] == nested

    def test_count_star_round_trips(self):
        ast = parse("SELECT count(*) FROM t")
        assert ast.items[0] == FunctionCall("count", (ColumnRef("*"),))
        assert "count(*)" in unparse(ast)
        assert parse(unparse(ast)) == ast

    def test_precedence_parens_preserved(self):
        ast = parse("SELECT * FROM t WHERE (a OR b) AND c * (1 + 2) >= 3")
        text = unparse(ast)
        assert parse(text) == ast
        assert "(a OR b)" in text and "(1.0 + 2.0)" in text


# --------------------------------------------------------------------- #
# error positions: malformed input must point at the offending character
# --------------------------------------------------------------------- #


class TestErrorPositions:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("SELEC * FROM t", "expected SELECT or CREATE at position 0"),
            ("SELECT * FRM t", "expected FROM at position 9"),
            ("SELECT a b FROM t", "expected FROM at position 9"),
            ("SELECT * FROM t WHERE", "unexpected token '' at position 21"),
            ("SELECT * FROM t TRA-JOIN s ON", "unexpected token '' at position 29"),
            ("CREATE INDEX i ON t USE HASH", "expected TRIE at position 24"),
            ("CREATE INDEX ON t USE TRIE", "expected index name at position 13"),
            ("SELECT * FROM t LIMIT x", "expected limit count at position 22"),
            ("SELECT * FROM t WHERE a <= 1 )", "expected end of statement at position 29"),
            ("SELECT DTW(a, FROM t", "unexpected token 'FROM' at position 14"),
            ("SELECT * FROM t WHERE a <= (1 + 2", "expected ')' at position 33"),
            ("SELECT * FROM t WHERE q <= [(1, 2", "expected ')' at position 33"),
        ],
    )
    def test_parse_errors_carry_positions(self, text, message):
        with pytest.raises(SQLError) as exc:
            parse(text)
        assert message in str(exc.value), f"got: {exc.value}"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("SELECT 'abc FROM t", "unterminated string literal at position 7"),
            ("SELECT : FROM t", "empty parameter name at position 7"),
            ("SELECT # FROM t", "unexpected character '#' at position 7"),
            ("SELECT ! FROM t", "unexpected character '!' at position 7"),
        ],
    )
    def test_lexer_errors_carry_positions(self, text, message):
        with pytest.raises(SQLError) as exc:
            parse(text)
        assert message in str(exc.value)

    def test_dangling_exponent_is_not_a_number(self):
        """Regression (found by the mutation sweep): "9e-" used to lex as a
        single NUMBER token that float() rejected with a bare ValueError;
        the exponent must only be consumed when digits follow."""
        from repro.sql import tokenize

        values = [t.value for t in tokenize("9e- 4")]
        assert values[0] == "9"  # the "e" is a separate identifier
        with pytest.raises(SQLError, match="position"):
            parse("SELECT * FROM t LIMIT 9e-")

    @pytest.mark.parametrize("count,pos", [("2.5", 22), ("1e3", 22), ("0.0", 22)])
    def test_limit_count_must_be_an_integer(self, count, pos):
        """Regression: a fractional or exponent LIMIT count reached int()
        and escaped as a bare ValueError instead of an SQLError."""
        with pytest.raises(SQLError, match=f"LIMIT .* at position {pos}"):
            parse(f"SELECT * FROM t LIMIT {count}")

    @pytest.mark.parametrize(
        "literal,pos",
        [("²", 27), ("٣", 27), ("1٣", 28), ("3.٣", 29), ("١٢", 27)],
    )
    def test_numbers_take_ascii_digits_only(self, literal, pos):
        """Regression: the lexer took any Unicode digit (``str.isdigit``),
        so "²" escaped as a bare ValueError from float() and "٣" (Arabic-
        Indic three) silently read as 3.0."""
        with pytest.raises(SQLError, match=f"unexpected character '.' at position {pos}"):
            parse(f"SELECT * FROM t WHERE x <= {literal}")

    def test_an_exponent_takes_ascii_digits_only(self):
        """float() reads "2e٣" as 2000.0; the lexer stops the number at "2"
        and the "e٣" after it is not a statement's end."""
        with pytest.raises(SQLError, match="at position 28"):
            parse("SELECT * FROM t WHERE x <= 2e٣")

    def test_every_error_names_a_position(self):
        """Property over a corpus of mutations: whatever the failure, the
        message must localize it."""
        rng = random.Random(99)
        broken = 0
        for seed in range(120):
            text = gen_statement(seed)
            cut = rng.randint(1, max(1, len(text) - 1))
            mutated = text[:cut] + " ) ] <= " + text[cut:]
            try:
                parse(mutated)
            except SQLError as exc:
                assert "position" in str(exc), mutated
                broken += 1
        assert broken > 80  # the mutation really does break most statements
