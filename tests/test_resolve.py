import pytest

from fixtures import GOLDEN_CORPUS, STAGE_SQL_2
from sqlgrow import harness, resolve
from sqlgrow import tree as t
from sqlgrow.errors import AmbiguousColumnError
from sqlgrow.parser import parse_sql
from sqlgrow.resolve import resolve_references


def test_stage2_fully_resolves(olympics_schema):
    report = resolve_references(parse_sql(STAGE_SQL_2), olympics_schema)
    assert report.unresolved == []
    relations = {}
    for binding in report.resolved:
        relations.setdefault(binding.qualifier, set()).add(binding.relation)
    assert relations["p"] == {"person"}
    assert relations["gc"] == {"games_competitor"}


def test_unknown_column_reported(olympics_schema):
    report = resolve_references(parse_sql("SELECT nonexistent FROM person"),
                                olympics_schema)
    assert [b.name for b in report.unresolved] == ["nonexistent"]


def test_correlated_subquery_resolves_outer_alias(olympics_schema):
    sql = ("SELECT p.full_name FROM person p WHERE EXISTS "
           "(SELECT 1 FROM games_competitor gc WHERE gc.person_id = p.id)")
    report = resolve_references(parse_sql(sql), olympics_schema)
    assert report.unresolved == []
    inner = [b for b in report.resolved if b.qualifier == "p" and b.name == "id"]
    assert any(b.relation == "person" for b in inner)


def test_ambiguous_unqualified_column_raises(olympics_schema):
    # full_name exists only in person; id exists in several joined tables
    sql = ("SELECT id FROM person p JOIN games_competitor gc "
           "ON p.id = gc.person_id")
    with pytest.raises(AmbiguousColumnError) as exc:
        resolve_references(parse_sql(sql), olympics_schema)
    assert "person" in exc.value.candidates
    assert "games_competitor" in exc.value.candidates


def test_alias_hides_table_name(olympics_schema):
    report = resolve_references(
        parse_sql("SELECT person.id FROM person p"), olympics_schema)
    assert [b.name for b in report.unresolved] == ["id"]


def test_select_alias_usable_in_order_by(olympics_schema):
    sql = ("SELECT full_name, weight AS kg FROM person ORDER BY kg DESC")
    report = resolve_references(parse_sql(sql), olympics_schema)
    assert report.unresolved == []


def test_cte_columns_visible(library_schema):
    sql = ("WITH recent AS (SELECT id, title FROM book WHERE published_year > 2000) "
           "SELECT title FROM recent")
    report = resolve_references(parse_sql(sql), library_schema)
    assert report.unresolved == []


_LEAD_CTE = "WITH c AS (SELECT id FROM person) "


@pytest.mark.parametrize("sql", [
    _LEAD_CTE + "SELECT id FROM c UNION SELECT id FROM c",
    _LEAD_CTE + "SELECT id FROM c UNION SELECT id FROM c ORDER BY id",
    _LEAD_CTE + "SELECT c.id FROM c UNION SELECT c.id FROM c ORDER BY id",
], ids=["right-operand", "trailing-order-by", "qualified"])
def test_a_compound_sees_the_columns_of_its_lead_core_ctes(sql, olympics_schema,
                                                          connections):
    assert connections["olympics"].execute(sql).fetchall()  # SQLite runs it
    reason = harness._grounding_problem(sql, olympics_schema)[0]
    assert reason == ""


def test_derived_table_columns_visible(shop_schema):
    sql = ("SELECT sub.product_name FROM "
           "(SELECT product_name FROM product WHERE price > 5) AS sub")
    report = resolve_references(parse_sql(sql), shop_schema)
    assert report.unresolved == []


@pytest.mark.parametrize("schema_id,sql", GOLDEN_CORPUS)
def test_corpus_resolves_cleanly(schema_id, sql, schemas):
    report = resolve_references(parse_sql(sql), schemas[schema_id])
    assert report.unresolved == []


@pytest.mark.parametrize("schema_id,sql", GOLDEN_CORPUS[:10])
def test_resolved_and_unresolved_disjoint(schema_id, sql, schemas):
    report = resolve_references(parse_sql(sql), schemas[schema_id])
    resolved_paths = {b.path for b in report.resolved}
    unresolved_paths = {b.path for b in report.unresolved}
    assert not resolved_paths & unresolved_paths


# -- where each node sits ------------------------------------------------------

def _nth(ast, kind, name, n):
    """Path of the n-th node (pre-order) of ``kind`` named ``name``."""
    paths = [p for p, node in t.walk(ast) if node.kind == kind and name in node.value[:2]]
    return paths[n]


# (clause, select_path, depth, grouped, in_aggregate, in_window)
_CTE_BODY = (0, 0, 0, 0)
_DERIVED_BODY = (1, 0, 0)
_CORRELATED_BODY = (2, 0, 0, 0)
_SCALAR_BODY = (*_CORRELATED_BODY, 2, 0, 1, 1, 0)
CONTEXT_CASES = [
    pytest.param(
        "WITH heavy AS (SELECT id, weight FROM person WHERE weight > 60) "
        "SELECT COUNT(*) FROM heavy WHERE id > 1",
        [((), False), (_CTE_BODY, False)], 2,
        [((t.OPERATOR, ">", 0), ("where", _CTE_BODY, 2, False, False, False)),
         ((t.TABLE, "person", 0), ("from", _CTE_BODY, 2, False, False, False)),
         ((t.OPERATOR, ">", 1), ("where", (), 1, False, False, False)),
         ((t.TABLE, "heavy", 0), ("from", (), 1, False, False, False))],
        id="cte"),
    pytest.param(
        "SELECT sub.full_name FROM (SELECT full_name, weight FROM person "
        "WHERE weight < 90) AS sub WHERE sub.full_name LIKE 'A%'",
        [((), False), (_DERIVED_BODY, False)], 2,
        [((t.COLUMN, "full_name", 0), ("select", (), 1, False, False, False)),
         ((t.COLUMN, "full_name", 1),
          ("select", _DERIVED_BODY, 2, False, False, False)),
         ((t.OPERATOR, "<", 0), ("where", _DERIVED_BODY, 2, False, False, False)),
         ((t.COLUMN, "full_name", 2), ("where", (), 1, False, False, False))],
        id="derived-table"),
    pytest.param(
        "SELECT p.full_name FROM person p WHERE EXISTS (SELECT 1 FROM "
        "games_competitor gc WHERE gc.person_id = p.id AND gc.age > "
        "(SELECT MIN(age) FROM games_competitor))",
        [((), False), (_CORRELATED_BODY, False), (_SCALAR_BODY, False)], 3,
        [((t.COLUMN, "full_name", 0), ("select", (), 1, False, False, False)),
         ((t.OPERATOR, "=", 0),
          ("where", _CORRELATED_BODY, 2, False, False, False)),
         ((t.COLUMN, "id", 0), ("where", _CORRELATED_BODY, 2, False, False, False)),
         ((t.COLUMN, "age", 1), ("select", _SCALAR_BODY, 3, False, True, False))],
        id="correlated-where"),
    pytest.param(
        "SELECT p.full_name, gc.age FROM person p JOIN games_competitor gc "
        "ON p.id = gc.person_id WHERE gc.age >= 25",
        [((), False)], 1,
        [((t.TABLE, "person", 0), ("from", (), 1, False, False, False)),
         ((t.TABLE, "games_competitor", 0), ("from", (), 1, False, False, False)),
         ((t.OPERATOR, "=", 0), ("on", (), 1, False, False, False)),
         ((t.COLUMN, "person_id", 0), ("on", (), 1, False, False, False)),
         ((t.OPERATOR, ">=", 0), ("where", (), 1, False, False, False))],
        id="join-on"),
    pytest.param(
        "SELECT full_name FROM person WHERE weight > 60 UNION "
        "SELECT full_name FROM person WHERE weight < 70 ORDER BY full_name",
        [((0,), True), ((1,), True)], 1,
        [((t.OPERATOR, ">", 0), ("where", (0,), 1, False, False, False)),
         ((t.OPERATOR, "<", 0), ("where", (1,), 1, False, False, False)),
         ((t.SORT, "asc", 0), ("setop_trailing", (), 1, False, False, False)),
         ((t.COLUMN, "full_name", 2),
          ("setop_trailing", (), 1, False, False, False))],
        id="compound-order-by"),
    pytest.param(
        "SELECT games_id, AVG(age) FROM games_competitor GROUP BY games_id "
        "HAVING MAX(age) > 20 ORDER BY games_id",
        [((), False)], 1,
        [((t.COLUMN, "games_id", 0), ("select", (), 1, True, False, False)),
         ((t.COLUMN, "age", 0), ("select", (), 1, True, True, False)),
         ((t.OPERATOR, ">", 0), ("having", (), 1, True, False, False)),
         ((t.COLUMN, "age", 1), ("having", (), 1, True, True, False)),
         ((t.COLUMN, "games_id", 2), ("order_by", (), 1, True, False, False))],
        id="aggregate"),
    pytest.param(
        "SELECT age, SUM(age) OVER (PARTITION BY games_id ORDER BY id) "
        "FROM games_competitor",
        [((), False)], 1,
        [((t.COLUMN, "age", 0), ("select", (), 1, False, False, False)),
         ((t.COLUMN, "age", 1), ("select", (), 1, False, True, True)),
         ((t.COLUMN, "games_id", 0), ("select", (), 1, False, False, True))],
        id="window"),
]


@pytest.mark.parametrize("sql,cores,max_depth,picks", CONTEXT_CASES)
def test_report_records_where_each_node_sits(sql, cores, max_depth, picks,
                                             olympics_schema):
    ast = parse_sql(sql)
    report = resolve_references(ast, olympics_schema)
    assert report.cores == cores
    assert report.max_depth == max_depth
    for (kind, name, n), expected in picks:
        assert tuple(report.contexts[_nth(ast, kind, name, n)]) == expected


# -- star expansion: the output columns of derived tables and CTE bodies -------

_PERSON = ["id", "full_name", "weight"]
_COMPETITOR = ["id", "person_id", "games_id", "age"]
_ON = "ON p.id = gc.person_id"
STAR_CASES = [
    pytest.param("SELECT * FROM person", {}, _PERSON, id="one-table"),
    pytest.param(f"SELECT * FROM person p JOIN games_competitor gc {_ON}", {},
                 _PERSON + _COMPETITOR, id="join"),
    pytest.param(f"SELECT p.* FROM person p JOIN games_competitor gc {_ON}", {},
                 _PERSON, id="alias-qualified"),
    pytest.param("SELECT games_competitor.*, p.weight FROM person p JOIN "
                 "games_competitor ON p.id = games_competitor.person_id", {},
                 _COMPETITOR + ["weight"], id="table-qualified"),
    pytest.param("SELECT * FROM (SELECT full_name, weight AS kg FROM person) AS sub",
                 {}, ["full_name", "kg"], id="derived-table"),
    pytest.param("SELECT sub.* FROM (SELECT * FROM person) AS sub", {}, _PERSON,
                 id="derived-table-star"),
    pytest.param("SELECT * FROM heavy", {"heavy": ("id", "weight")}, ["id", "weight"],
                 id="cte"),
    pytest.param("SELECT * FROM nowhere", {}, [], id="unknown-table"),
]


@pytest.mark.parametrize("sql,cte_env,expected", STAR_CASES)
def test_star_expands_to_the_columns_in_scope(sql, cte_env, expected, olympics_schema):
    assert resolve._output_columns(parse_sql(sql), olympics_schema, cte_env) == expected


def test_star_over_a_cte_body_binds_through_the_cte(library_schema):
    sql = ("WITH recent AS (SELECT id, title FROM book), "
           "copy AS (SELECT * FROM recent) SELECT copy.title, copy.genre FROM copy")
    report = resolve_references(parse_sql(sql), library_schema)
    assert [b.name for b in report.resolved if b.qualifier == "copy"] == ["title"]
    assert [b.name for b in report.unresolved] == ["genre"]
