import pytest
from hypothesis import given, strategies as st

from fixtures import GOLDEN_CORPUS, STAGE_SQL_0, STAGE_SQL_3
from sqlgrow import parser, tree as t
from sqlgrow.errors import (
    InfeasibleOperatorError,
    SqlSyntaxError,
    StructuralError,
    UnsupportedSqlError,
)
from sqlgrow.features import tokenize_sql
from sqlgrow.operators import OperatorId, analyze, apply_mutation, plan_mutation
from sqlgrow.parser import PARSE_MEMO_SIZE, parse_cached, parse_sql
from sqlgrow.render import render_sql


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


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60))
def test_lexer_is_total_or_raises_cleanly(text):
    # arbitrary printable input either tokenizes or raises a syntax error
    try:
        first = tokenize_sql(text)
        second = tokenize_sql(text)
    except SqlSyntaxError:
        return
    assert first == second


# -- memo ------------------------------------------------------------------

def test_memo_returns_the_identical_tree():
    assert parse_cached(STAGE_SQL_3) is parse_cached(STAGE_SQL_3)


def test_memo_raises_a_parse_error_again():
    text = "SELECT name FROM person WHERE"
    raised = []
    for _ in range(2):
        with pytest.raises(SqlSyntaxError) as info:
            parse_cached(text)
        raised.append(info.value)
    assert type(raised[0]) is type(raised[1])
    assert str(raised[0]) == str(raised[1])
    assert raised[0].position == raised[1].position


def test_mutating_a_memoized_tree_leaves_the_memo_intact(olympics_schema):
    ast = parse_cached(STAGE_SQL_0)
    before = render_sql(ast)
    mutated = 0
    for op in OperatorId:
        try:
            plan = plan_mutation(analyze(ast, olympics_schema), op, 0)
        except InfeasibleOperatorError:
            continue
        assert render_sql(apply_mutation(ast, plan)) != before
        mutated += 1
    assert mutated
    assert render_sql(parse_cached(STAGE_SQL_0)) == before


def test_memo_is_bounded():
    assert parse_cached.cache_info().maxsize == PARSE_MEMO_SIZE
    assert PARSE_MEMO_SIZE is not None and PARSE_MEMO_SIZE > 0


def test_memo_parses_only_on_a_miss(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_sql(text)

    monkeypatch.setattr(parser, "parse_sql", counting)
    parse_cached.cache_clear()
    text = "SELECT 1 AS memo_probe"
    assert parse_cached(text) is parse_cached(text)
    assert calls == [text]
    assert parse_sql(text) is not parse_cached(text)
