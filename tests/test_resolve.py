import pytest

from fixtures import GOLDEN_CORPUS, STAGE_SQL_2
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
