import random
import re
import time
from collections import Counter
from contextlib import closing

import pytest
from hypothesis import given, strategies as st

from fixtures import GOLDEN_CORPUS, SEED_QUESTIONS, STAGE_SQL_0, STAGE_SQL_3
from sqlgrow import render
from sqlgrow import tree as t
from sqlgrow.errors import (
    InfeasibleOperatorError,
    SqlgrowError,
    SqlSyntaxError,
    StructuralError,
    UnsupportedSqlError,
)
from sqlgrow.features import tokenize_sql
from sqlgrow.lexer import KEYWORDS, tokenize
from sqlgrow.operators import OperatorId, analyze, apply_mutation, plan_mutation
from sqlgrow.parser import parse_sql
from sqlgrow.render import render_sql
from sqlgrow.sqlite import sqlite3


def test_stage0_shape():
    ast = parse_sql(STAGE_SQL_0)
    assert ast.kind == t.SELECT
    kinds = [c.value[0] for c in ast.children]
    assert kinds == ["select", "from", "order_by", "limit"]


def test_empty_select_list_is_syntax_error():
    with pytest.raises(SqlSyntaxError):
        parse_sql("SELECT")


@pytest.mark.parametrize("text, last_token", [
    ("SELECT a FROM", "FROM"),                       # expect_ident
    ("SELECT a FROM t AS", "AS"),                    # expect_ident, alias
    ("SELECT CAST(a AS", "AS"),                      # CAST type name
    ("SELECT a FROM t WHERE a BETWEEN 1", "1"),      # expect_kw
    ("SELECT (a", "a"),                              # expect_punct
    ("SELECT CASE a END", "END"),                    # CASE without WHEN
])
def test_error_at_end_of_input_points_at_the_last_token(text, last_token):
    with pytest.raises(SqlSyntaxError) as info:
        parse_sql(text)
    assert info.value.position == text.rindex(last_token)


def test_empty_text_is_syntax_error():
    with pytest.raises(SqlSyntaxError):
        parse_sql("   ")


def test_stage3_having_contains_count_comparison():
    ast = parse_sql(STAGE_SQL_3)
    found = t.get_clause(ast, "having")
    assert found is not None
    pred = found[1].children[0]
    assert pred.kind == t.OPERATOR and pred.value[0] == ">="
    func = pred.children[0]
    assert func.kind == t.FUNCTION and func.value[0] == "count"


@pytest.mark.parametrize("schema_id,sql", GOLDEN_CORPUS)
def test_round_trip_on_corpus(schema_id, sql):
    ast = parse_sql(sql)
    rendered = render_sql(ast)
    assert parse_sql(rendered) == ast
    # rendering is a fixpoint
    assert render_sql(parse_sql(rendered)) == rendered


def test_clause_order_canonical_regardless_of_input_order():
    # the grammar forces clause order; construction re-sorts
    shuffled = t.select_core([
        t.clause("limit", [t.literal("1")]),
        t.clause("select", [t.star()]),
        t.clause("from", [t.table("person")]),
    ])
    assert render_sql(shuffled) == "SELECT * FROM person LIMIT 1"


def test_minimal_literal_select():
    assert render_sql(parse_sql("select 1")) == "SELECT 1"


def test_unsupported_statements_rejected():
    with pytest.raises(UnsupportedSqlError):
        parse_sql("DELETE FROM person")
    with pytest.raises(UnsupportedSqlError):
        parse_sql("WITH RECURSIVE r AS (SELECT 1) SELECT * FROM r")
    with pytest.raises(UnsupportedSqlError):
        parse_sql("SELECT * FROM a NATURAL JOIN b")


def test_set_operands_may_not_carry_trailing_clauses():
    left = parse_sql("SELECT 1 ORDER BY 1")
    right = parse_sql("SELECT 2")
    with pytest.raises(StructuralError):
        render_sql(t.setop("union", left, right))


def test_identifiers_lowercased_literals_verbatim():
    ast = parse_sql("SELECT Full_Name FROM PERSON WHERE note = 'MiXeD'")
    assert render_sql(ast) == "SELECT full_name FROM person WHERE note = 'MiXeD'"


def test_quoted_identifier_preserves_case():
    ast = parse_sql('SELECT "Weird Col" FROM person')
    assert render_sql(ast) == 'SELECT "Weird Col" FROM person'


def test_not_flattening_and_n_ary_logic():
    ast = parse_sql("SELECT 1 FROM t WHERE a = 1 AND b = 2 AND c = 3")
    pred = t.get_clause(ast, "where")[1].children[0]
    assert pred.kind == t.LOGICAL and pred.value[0] == "and"
    assert len(pred.children) == 3


def test_limit_comma_normalizes_to_offset():
    a = parse_sql("SELECT x FROM t LIMIT 2, 5")
    b = parse_sql("SELECT x FROM t LIMIT 5 OFFSET 2")
    assert a == b


def test_parenthesization_survives_round_trip():
    sql = "SELECT (a + b) * c FROM t WHERE (x OR y) AND z"
    ast = parse_sql(sql)
    again = parse_sql(render_sql(ast))
    assert again == ast


def test_tokenize_counts_qualified_names_as_three():
    assert len(tokenize_sql("SELECT a.b")) == 4
    assert len(tokenize_sql("SELECT 1")) == 2
    assert tokenize_sql(STAGE_SQL_0) == [
        "SELECT", "full_name", "FROM", "person",
        "ORDER", "BY", "weight", "DESC", "LIMIT", "1",
    ]


@pytest.mark.parametrize("text, expected", [
    ("'it''s'", [("string", "'it''s'", 0)]),
    ("SELECT 1 --", [("kw", "SELECT", 0), ("number", "1", 7)]),
    ("x -- c\nFROM", [("ident", "x", 0), ("kw", "FROM", 7)]),
    ("a /* c */ <= b", [("ident", "a", 0), ("op", "<=", 10), ("ident", "b", 13)]),
    ("SELECT 1;", [("kw", "SELECT", 0), ("number", "1", 7)]),
    ("a == 1 <> b", [("ident", "a", 0), ("op", "=", 2), ("number", "1", 5),
                     ("op", "!=", 7), ("ident", "b", 10)]),
    ("x||y >= 2 % 3", [("ident", "x", 0), ("op", "||", 1), ("ident", "y", 3),
                       ("op", ">=", 5), ("number", "2", 8), ("op", "%", 10),
                       ("number", "3", 12)]),
    (".5", [("number", ".5", 0)]),
    ("1.", [("number", "1.", 0)]),
    ("1e", [("number", "1e", 0)]),
    ("1.5e+3", [("number", "1.5e+3", 0)]),
    ("1.2.3", [("number", "1.2", 0), ("number", ".3", 3)]),
    ("1e5.3", [("number", "1e5", 0), ("number", ".3", 3)]),
    ("t.1", [("ident", "t", 0), ("number", ".1", 1)]),
    ("(a, b.c)", [("punct", "(", 0), ("ident", "a", 1), ("punct", ",", 2),
                  ("ident", "b", 4), ("punct", ".", 5), ("ident", "c", 6),
                  ("punct", ")", 7)]),
    ("SeLeCt Full_Name FROM Person", [("kw", "SELECT", 0), ("ident", "full_name", 7),
                                      ("kw", "FROM", 17), ("ident", "person", 22)]),
    ('"Weird Col" [Mixed Case] `Back Tick`', [("ident", "Weird Col", 0),
                                              ("ident", "Mixed Case", 12),
                                              ("ident", "Back Tick", 25)]),
    # SQLite reads every non-ASCII character as an identifier character
    ("²", [("ident", "²", 0)]),
    ("½", [("ident", "½", 0)]),
    # as in SQLite, "" inside double quotes is one "; other quotes keep it
    ('"a""b" "c""" [d""e]', [("ident", 'a"b', 0), ("ident", 'c"', 7),
                             ("ident", 'd""e', 13)]),
    # and a doubled backtick inside backticks is one backtick
    ("`a``b` ```` `c\"`", [("ident", "a`b", 0), ("ident", "`", 7), ("ident", 'c"', 12)]),
])
def test_token_stream(text, expected):
    assert [(tok.type, tok.text, tok.pos) for tok in tokenize(text)] == expected


@pytest.mark.parametrize("text, message, position", [
    ("'''x", "unterminated string literal", 0),
    ("'a''", "unterminated string literal", 0),
    ("SELECT /* x", "unterminated comment", 7),
    ('SELECT "a', "unterminated quoted identifier", 7),
    ('SELECT "a""', "unterminated quoted identifier", 7),
    ("SELECT `a", "unterminated quoted identifier", 7),
    ("SELECT `a``", "unterminated quoted identifier", 7),
    ("SELECT [a", "unterminated quoted identifier", 7),
    ("SELECT ?", "unexpected character '?'", 7),
    ("SELECT @x", "unexpected character '@'", 7),
    ("a ! b", "unexpected character '!'", 2),
    ("a|||b", "bitwise operator '|' is not supported", 3),  # || lexes first
])
def test_lexer_error(text, message, position):
    with pytest.raises(SqlSyntaxError) as info:
        tokenize(text)
    assert info.value.position == position
    assert str(info.value) == f"{message} (at position {position})"


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60))
def test_lexer_is_total_or_raises_cleanly(text):
    # arbitrary printable input either tokenizes or raises a syntax error
    try:
        first = tokenize_sql(text)
        second = tokenize_sql(text)
    except SqlSyntaxError:
        return
    assert first == second


def test_mutating_a_memoized_tree_leaves_the_memo_intact(olympics_schema, connections):
    # callers share trees (one parent's analysis serves each of its
    # children), so apply_mutation must build a new tree and never change
    # the one it was given
    ast = parse_sql(STAGE_SQL_0)
    before = render_sql(ast)
    mutated = 0
    for op in OperatorId:
        try:
            plan = plan_mutation(analyze(ast, olympics_schema), op, 0,
                                 connections["olympics"])
        except InfeasibleOperatorError:
            continue
        assert render_sql(apply_mutation(ast, plan)) != before
        mutated += 1
    assert mutated
    assert render_sql(ast) == before
    assert ast == parse_sql(STAGE_SQL_0)


# -- equivalence pins for the parse stack ---------------------------------------

# The token table as it stood before whitespace and comments were read as a
# prefix of each token, with its alternatives in their first order, and the
# blob and bitwise refusals and the ``""`` escape in double quotes added. The
# differential test below holds ``tokenize`` to its output.
_REFERENCE_TOKEN = re.compile(r"""
    (?P<skip> \s+ | --[^\n]* | /\*(?s:.*?)\*/ | ; )
  | (?P<string> '[^']*(?:''[^']*)*'(?!') )
  | (?P<quoted> "[^"]*(?:""[^"]*)*"(?!") | `[^`]*(?:``[^`]*)*`(?!`) | \[[^\]]*\] )
  | (?P<number> (?:\d+(?:\.\d*)? | \.\d+) (?:[eE][+-]?\d*)? )
  | (?P<blob> [xX]'[^']*' )
  | (?P<word> [^\W\d]\w* )
  | (?P<unclosed> /\* | ['"`\[] )
  | (?P<bitwise> << | >> | [~&] | \|(?!\|) )
  | (?P<op> != | <> | <= | >= | \|\| | == | [=<>+\-*/%] )
  | (?P<punct> [(),.] )
  | (?P<bad> (?s:.) )
""", re.VERBOSE)


def _reference_tokenize(sql):
    tokens = []
    for match in _REFERENCE_TOKEN.finditer(sql):
        kind, text, pos = match.lastgroup, match.group(), match.start()
        if kind == "skip":
            continue
        if kind == "word":
            low = text.lower()
            tokens.append(("kw", low.upper(), pos) if low in KEYWORDS
                          else ("ident", low, pos))
        elif kind == "quoted":
            inner, quote = text[1:-1], text[0]
            tokens.append(("ident", inner if quote == "[" else inner.replace(quote * 2, quote),
                           pos))
        elif kind == "op":
            tokens.append(("op", {"==": "=", "<>": "!="}.get(text, text), pos))
        elif kind == "unclosed":
            return ("error", {"/*": "unterminated comment",
                              "'": "unterminated string literal"}.get(
                                  text, "unterminated quoted identifier"), pos)
        elif kind == "bad":
            return ("error", f"unexpected character {text!r}", pos)
        elif kind in ("blob", "bitwise"):
            construct = "blob literal" if kind == "blob" else "bitwise operator"
            return ("error", f"{construct} {text!r} is not supported", pos)
        else:
            tokens.append((kind, text, pos))
    return tokens


def _lexed(sql):
    try:
        return [tuple(tok) for tok in tokenize(sql)]
    except SqlSyntaxError as exc:
        return ("error", str(exc).rsplit(" (at position", 1)[0], exc.position)


_LEX_ALPHABET = [*"ab_Z19.eE+-*/%|<>=!'\"`[](),; \n\t²½?xX~&", "--", "/*", "*/", "''",
                 "SELECT", "from", "NOT", "in", "é"]


def test_tokenize_matches_the_reference_table():
    rng = random.Random(20260117)
    for _ in range(20_000):
        sql = "".join(rng.choice(_LEX_ALPHABET) for _ in range(rng.randrange(30)))
        assert _lexed(sql) == _reference_tokenize(sql), sql


def test_whitespace_and_comments_lex_in_linear_time():
    # the skipped prefix repeats \s+; it must never be backtracked into
    unit = " \t\n-- note\n/* block */;"
    filler = unit * (100_000 // len(unit))
    for text in (" " * 100_000, filler, "SELECT 1" + filler, filler + "x"):
        start = time.perf_counter()
        tokens = tokenize(text)
        assert time.perf_counter() - start < 1.0
        assert len(tokens) == len(_reference_tokenize(text))


_COLUMNS = st.sampled_from([t.column("", "a"), t.column("", "b"), t.column("p", "c")])
_LITERALS = st.sampled_from([t.literal("0"), t.literal("17"), t.literal("2.5"),
                             t.literal("'x'"), t.literal("NULL")])
_BINARY = ("<", "<=", ">", ">=", "+", "-", "*", "/", "%", "||")

_EXPRESSIONS = st.recursive(
    _COLUMNS | _LITERALS,
    lambda inner: (
        st.tuples(st.sampled_from(_BINARY), inner, inner).map(
            lambda parts: t.operator(parts[0], [parts[1], parts[2]]))
        | st.tuples(st.sampled_from(("neg", "pos")), inner).map(
            lambda parts: t.operator(parts[0], [parts[1]]))
    ),
    max_leaves=12,
)


@given(_EXPRESSIONS)
def test_expression_trees_round_trip(expr):
    query = t.select_core([t.clause("select", [expr]),
                           t.clause("from", [t.table("p")])])
    assert parse_sql(render_sql(query)) == query


# Constructs the corpus does not reach, each run on its fixture database:
# the rendered query must be a parse -> render fixpoint and return SQLite's
# rows for the query as written.
_ORACLE_QUERIES = [
    ("olympics", "SELECT p.full_name, g.season FROM person p, games_competitor gc, games g "
                 "WHERE p.id = gc.person_id AND gc.games_id = g.id ORDER BY gc.id"),
    ("library", "SELECT b.title, a.name FROM book b INNER JOIN author a "
                "ON b.author_id = a.id ORDER BY b.id"),
    ("olympics", "SELECT s.sport_name, g.games_year FROM sport s CROSS JOIN games g "
                 "ORDER BY s.id, g.id"),
    ("library", "SELECT title FROM book WHERE NOT (genre = 'novel' OR price < 10) ORDER BY id"),
    ("shop", "SELECT COUNT(DISTINCT customer_id), COUNT(customer_id) FROM orders"),
    ("library", "SELECT CAST(price AS INTEGER), CAST(published_year AS TEXT) "
                "FROM book ORDER BY id"),
    ("library", "SELECT m.full_name FROM member m LEFT JOIN loan l ON l.member_id = m.id "
                "AND l.loan_date > '2022-03-01' WHERE l.id IS NULL ORDER BY m.id"),
    ("library", "SELECT m.full_name FROM member m LEFT JOIN loan l ON l.member_id = m.id "
                "AND l.loan_date > '2022-03-01' WHERE l.id IS NOT NULL ORDER BY m.id"),
    ("library", "SELECT title, CASE genre WHEN 'novel' THEN 1 WHEN 'science' THEN 2 "
                "ELSE 0 END FROM book ORDER BY id"),
    ("olympics", "SELECT full_name FROM person ORDER BY weight LIMIT 2 OFFSET 1"),
    ("olympics", "SELECT full_name FROM person ORDER BY weight LIMIT 1, 3"),
    ("shop", "SELECT o.customer_id, oi.product_id, SUM(oi.quantity) FROM orders o "
             "JOIN order_item oi ON oi.order_id = o.id "
             "GROUP BY o.customer_id, oi.product_id ORDER BY o.customer_id, oi.product_id"),
    ("library", "SELECT id, ROW_NUMBER() OVER (PARTITION BY member_id, book_id "
                "ORDER BY loan_date DESC) FROM loan ORDER BY id"),
    ("olympics", "SELECT +weight, -(+weight), + + id FROM person WHERE +weight > 60 ORDER BY id"),
    # unary + strips affinity: without it the text ids would equal the integer ones
    ("olympics", "SELECT COUNT(*) FROM (SELECT CAST(id AS TEXT) AS s FROM person) d "
                 "JOIN person p ON +d.s = +p.id"),
    ("library", "SELECT t.genre, t.n FROM (SELECT genre, COUNT(*) AS n FROM book "
                "GROUP BY genre) AS t WHERE t.n > 1 ORDER BY t.genre"),
    ("shop", "SELECT big.name FROM (SELECT c.name, c.id FROM customer c WHERE c.city = 'Lyon') "
             "big ORDER BY big.id"),
    ("olympics", "SELECT id FROM person WHERE weight > 60 UNION "
                 "SELECT person_id FROM games_competitor ORDER BY 1 DESC LIMIT 2"),
    ("library", "SELECT id, title FROM book EXCEPT SELECT id, title FROM book "
                "WHERE genre = 'novel' ORDER BY id LIMIT 1 OFFSET 1"),
    ("shop", "WITH lyon AS (SELECT id, name FROM customer WHERE city = 'Lyon') "
             "SELECT name FROM lyon UNION ALL SELECT name FROM customer ORDER BY name LIMIT 3"),
]


@pytest.mark.parametrize("schema_id,sql", _ORACLE_QUERIES)
def test_round_trip_returns_sqlite_rows(connections, schema_id, sql):
    ast = parse_sql(sql)
    rendered = render_sql(ast)
    assert parse_sql(rendered) == ast
    assert render_sql(parse_sql(rendered)) == rendered
    conn = connections[schema_id]
    expected = conn.execute(sql).fetchall()
    assert expected
    assert conn.execute(rendered).fetchall() == expected


def _oracle_database(ddl):
    conn = sqlite3.connect(":memory:")
    conn.executescript(ddl)
    return closing(conn)


@pytest.mark.parametrize("sql, name", [
    ('SELECT "a""b" FROM t', 'a"b'),
    ('SELECT x AS [p"q] FROM t', 'p"q'),
    ('SELECT t."a""b" AS "c""" FROM t WHERE "a""b" > 0', 'c"'),
])
def test_a_double_quote_in_a_name_round_trips(sql, name):
    # SQLite reads "a""b" as one column named a"b; a bracketed alias may hold a "
    ast = parse_sql(sql)
    rendered = render_sql(ast)
    assert parse_sql(rendered) == ast
    assert len(tokenize(rendered)) == len(tokenize(sql))
    with _oracle_database('''CREATE TABLE t ("a""b" INTEGER, x INTEGER);
                             INSERT INTO t VALUES (1, 2), (3, 4);''') as conn:
        expected = conn.execute(sql)
        got = conn.execute(rendered)
        assert got.fetchall() == expected.fetchall()
        assert got.description[0][0] == expected.description[0][0] == name


# Characters and words a quoted name may hold: quotes of every style, spaces,
# dots, keywords, upper case and a non-ASCII letter.
_NAME_PARTS = [*"aZ_9 .\"'`[]-é", " select ", "FROM", "order", "x"]


def _quoted(name, style):
    if style == '"':
        return '"' + name.replace('"', '""') + '"'
    if style == "`":
        return "`" + name.replace("`", "``") + "`"
    return "[" + name + "]"


def test_quoted_names_render_to_the_column_sqlite_names():
    # SQLite is the oracle: a name in any of its quoting styles renders to
    # a query whose result column SQLite names as it names the query written
    rng = random.Random(20261021)
    with _oracle_database("") as conn:
        for _ in range(600):
            style = rng.choice(['"', "`", "["])
            name = "".join(rng.choice(_NAME_PARTS) for _ in range(rng.randint(1, 6)))
            if style == "[":
                name = name.replace("]", "")
            if not name:
                continue
            conn.executescript(f"DROP TABLE IF EXISTS t; CREATE TABLE t (k INTEGER, "
                               f"{render.quote_ident(name)} INTEGER); "
                               "INSERT INTO t VALUES (1, 2);")
            for sql in (f"SELECT {_quoted(name, style)} FROM t",
                        f"SELECT k AS {_quoted(name, style)} FROM t"):
                rendered = render_sql(parse_sql(sql))
                expected, got = conn.execute(sql), conn.execute(rendered)
                assert got.description[0][0] == expected.description[0][0] == name, sql
                assert got.fetchall() == expected.fetchall(), sql


def test_every_sqlite_keyword_renders_quoted():
    # SQLite refuses some keywords as bare names (index, values, default, ...)
    words = sorted(render._QUOTED_WORDS)
    assert len(words) == 149  # SQLite's 147 and the subset's TRUE and FALSE
    with _oracle_database(
            "CREATE TABLE t (" + ", ".join(f'"{w}" INTEGER' for w in words) + ");"
            f"INSERT INTO t VALUES ({', '.join(map(str, range(len(words))))});") as conn:
        for i, word in enumerate(words):
            rendered = render_sql(parse_sql(f'SELECT "{word}" FROM t'))
            assert conn.execute(rendered).fetchall() == [(i,)], rendered


@pytest.mark.parametrize("sql, construct", [
    ("SELECT full_name FROM person JOIN games_competitor USING (id)", "USING joins"),
    ("SELECT SUM(weight) OVER (ORDER BY id ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) "
     "FROM person", "window frames"),
])
def test_unsupported_construct_is_named(sql, construct):
    with pytest.raises(UnsupportedSqlError, match=f"^{construct} are not supported"):
        parse_sql(sql)


@pytest.mark.parametrize("sql, message", [
    ("SELECT ~weight FROM person", "bitwise operator '~' is not supported"),
    ("SELECT weight & 1 FROM person", "bitwise operator '&' is not supported"),
    ("SELECT weight | 1 FROM person", "bitwise operator '|' is not supported"),
    ("SELECT weight << 1 FROM person", "bitwise operator '<<' is not supported"),
    ("SELECT weight >> 1 FROM person", "bitwise operator '>>' is not supported"),
    ("SELECT X'00' FROM person", "blob literal \"X'00'\" is not supported"),
    ("SELECT id FROM person WHERE weight IS 1", "IS comparison with '1' is not supported"),
    ("SELECT id FROM person WHERE weight IS NOT 1",
     "IS NOT comparison with '1' is not supported"),
    ("SELECT id FROM person WHERE weight NOT NULL", "postfix NOT NULL is not supported"),
    ("SELECT id FROM person WHERE weight NOTNULL", "postfix NOTNULL is not supported"),
    ("SELECT weight ISNULL FROM person", "postfix ISNULL is not supported"),
    ("SELECT weight 'w' FROM person", "string-literal alias \"'w'\" is not supported"),
    ("SELECT weight AS 'w' FROM person", "string-literal alias \"'w'\" is not supported"),
    ("SELECT p.id FROM person AS 'p'", "string-literal alias \"'p'\" is not supported"),
])
def test_each_refusal_names_its_construct(connections, sql, message):
    # SQLite runs every one of these; the subset refuses each by name
    connections["olympics"].execute(sql).fetchall()
    with pytest.raises(UnsupportedSqlError) as info:
        parse_sql(sql)
    assert str(info.value).startswith(message + " (at position")


def test_random_token_edits_run_as_sqlite_runs_them_or_are_refused(connections):
    # Replace, insert or delete 1-3 tokens of the seeds' and the queries
    # above, drawing from their own tokens. An edit SQLite runs must either
    # be refused with a package error or render to a parse -> render
    # fixpoint that returns SQLite's rows for the edit as written.
    queries = [(schema_id, sql) for schema_id, pairs in SEED_QUESTIONS.items()
               for _, sql in pairs] + _ORACLE_QUERIES
    corpus = [(schema_id, [tok.text for tok in tokenize(sql)]) for schema_id, sql in queries]
    pool = list(dict.fromkeys(text for _, tokens in corpus for text in tokens))
    rng = random.Random(20261020)
    accepted = refused = 0
    for _ in range(10_000):
        schema_id, tokens = rng.choice(corpus)
        tokens = list(tokens)
        for _ in range(rng.randint(1, 3)):
            edit = rng.choice("rid")
            if edit == "i":
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(pool))
            elif edit == "r":
                tokens[rng.randrange(len(tokens))] = rng.choice(pool)
            else:
                del tokens[rng.randrange(len(tokens))]
        sql, conn = " ".join(tokens), connections[schema_id]
        try:
            expected = conn.execute(sql).fetchall()
        except sqlite3.Error:
            continue
        try:
            rendered = render_sql(parse_sql(sql))
        except SqlgrowError:
            refused += 1
            continue
        assert render_sql(parse_sql(rendered)) == rendered, sql
        assert Counter(conn.execute(rendered).fetchall()) == Counter(expected), sql
        accepted += 1
    assert accepted >= 250 and refused >= 20, (accepted, refused)
