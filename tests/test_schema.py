import sqlite3

import pytest

from sqlgrow.errors import SchemaValidationError
from sqlgrow.schema import (
    DatabaseSchema,
    TableDef,
    ColumnDef,
    ForeignKey,
    fk_join_graph,
    load_schema,
    render_schema_prompt,
    validate_schema,
)


def test_load_mini_olympics(mini_olympics_db):
    schema = load_schema(mini_olympics_db)
    assert len(schema.tables) == 2
    fk_count = sum(len(t.foreign_keys) for t in schema.tables)
    assert fk_count == 1
    gc = schema.table("games_competitor")
    assert gc.foreign_keys[0].ref_table == "person"
    assert gc.foreign_keys[0].columns == ("person_id",)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IOError):
        load_schema(tmp_path / "nope.db")


def test_empty_database_fails_validation(tmp_path):
    path = tmp_path / "empty.db"
    sqlite3.connect(path).close()
    with pytest.raises(SchemaValidationError, match="no tables"):
        load_schema(path)


def test_dangling_fk_named_in_validation_error():
    schema = DatabaseSchema("broken", (
        TableDef("child", (ColumnDef("id", "integer"), ColumnDef("pid", "integer")),
                 primary_key=("id",),
                 foreign_keys=(ForeignKey(("pid",), "missing_parent", ("id",)),)),
    ))
    with pytest.raises(SchemaValidationError, match="missing_parent"):
        validate_schema(schema)


def test_schema_lookups_ignore_case_and_take_the_first_definition():
    first = TableDef("Person", (ColumnDef("ID", "integer"), ColumnDef("id", "text")))
    second = TableDef("person", (ColumnDef("x", "integer"),))
    schema = DatabaseSchema("s", (first, second))
    assert schema.table("PERSON") is first and schema.table("person") is first
    assert schema.table("nobody") is None
    assert first.column("Id") is first.columns[0]
    assert first.column("nothing") is None
    assert fk_join_graph(schema) is fk_join_graph(schema)


def test_schema_values_hold_no_dict_and_refuse_assignment(olympics_schema):
    # like the NamedTuple records, though they keep lookups in __slots__
    table = olympics_schema.tables[0]
    for value in (olympics_schema, table):
        assert not hasattr(value, "__dict__")
        for name in (*value._fields, "_by_name", "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(value, name, ())
    assert repr(table).startswith(f"TableDef(name={table.name!r}, columns=(ColumnDef(")


def test_a_double_quote_in_a_table_name_is_read(tmp_path):
    path = tmp_path / "quote.db"
    conn = sqlite3.connect(path)
    conn.executescript('''
        CREATE TABLE "pa""rent" (id INTEGER PRIMARY KEY);
        CREATE TABLE "ch""ild" ("p""id" INTEGER REFERENCES "pa""rent"(id));
    ''')
    conn.close()
    schema = load_schema(path)
    child = schema.table('ch"ild')
    assert child.column_names() == ['p"id']
    assert child.foreign_keys == (ForeignKey(('p"id',), 'pa"rent', ("id",)),)
    assert schema.table('pa"rent').primary_key == ("id",)


def test_join_graph_mini(mini_olympics_db):
    schema = load_schema(mini_olympics_db)
    graph = fk_join_graph(schema)
    edges = graph["person"]
    assert len(edges) == 1
    assert edges[0].table_b == "games_competitor"
    assert edges[0].table_a == "person" and edges[0].columns_a == ("id",)
    assert edges[0].columns_b == ("person_id",)
    # symmetric
    back = graph["games_competitor"]
    assert any(e.table_b == "person" for e in back)


def test_join_graph_empty_without_fks(tmp_path):
    path = tmp_path / "flat.db"
    conn = sqlite3.connect(path)
    conn.executescript("CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER);")
    conn.close()
    graph = fk_join_graph(load_schema(path))
    assert graph == {"a": [], "b": []}


def test_join_graph_two_hop_path(olympics_schema):
    # person -> games_competitor -> competitor_event via breadth-first search
    graph = fk_join_graph(olympics_schema)
    frontier, seen, hops = {"person"}, {"person"}, {}
    depth = 0
    while frontier:
        depth += 1
        nxt = set()
        for node in frontier:
            for edge in graph[node]:
                if edge.table_b not in seen:
                    seen.add(edge.table_b)
                    hops[edge.table_b] = depth
                    nxt.add(edge.table_b)
        frontier = nxt
    assert hops["games_competitor"] == 1
    assert hops["competitor_event"] == 2


def test_render_schema_prompt_mentions_fk(mini_olympics_db):
    schema = load_schema(mini_olympics_db)
    text = render_schema_prompt(schema)
    assert "FOREIGN KEY (person_id) REFERENCES person(id)" in text
    assert text.count("CREATE TABLE") == 2


def test_render_schema_prompt_single_table():
    schema = DatabaseSchema("one", (
        TableDef("solo", (ColumnDef("x", "integer"),)),
    ))
    text = render_schema_prompt(schema)
    assert text.startswith("CREATE TABLE solo (")
    assert text.count("CREATE TABLE") == 1


def test_render_schema_prompt_deterministic(olympics_schema):
    assert render_schema_prompt(olympics_schema) == render_schema_prompt(olympics_schema)


def test_date_like_detection(library_schema):
    assert library_schema.is_date_like("loan", "loan_date")
    assert library_schema.is_date_like("book", "published_year")
    assert not library_schema.is_date_like("book", "title")


def test_join_graph_symmetric_on_all_fixtures(schemas):
    for schema in schemas.values():
        graph = fk_join_graph(schema)
        for table, edges in graph.items():
            for edge in edges:
                assert edge.table_a == table
                mirrored = [
                    e for e in graph[edge.table_b]
                    if e.table_b == table
                    and e.columns_a == edge.columns_b
                    and e.columns_b == edge.columns_a
                ]
                assert mirrored, f"missing mirror of {edge}"
