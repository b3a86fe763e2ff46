import json
import random
import re
import sqlite3

import pytest

from sqlgrow.cli import main
from sqlgrow.errors import SchemaValidationError
from sqlgrow.parser import parse_sql
from sqlgrow.resolve import resolve_references
from sqlgrow.schema import (
    DatabaseSchema,
    TableDef,
    ColumnDef,
    ForeignKey,
    JoinEdge,
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


def _database(path, ddl):
    conn = sqlite3.connect(path)
    conn.executescript(ddl)
    conn.close()
    return path


def test_a_foreign_key_without_columns_pairs_with_the_primary_key_or_is_named(tmp_path):
    # a key that names no columns stands for the referenced table's primary key
    schema = load_schema(_database(tmp_path / "bare.db", """
        CREATE TABLE p (id INTEGER PRIMARY KEY, b TEXT);
        CREATE TABLE c (id INTEGER PRIMARY KEY, y INTEGER REFERENCES p);"""))
    assert fk_join_graph(schema)["c"] == [JoinEdge("c", ("y",), "p", ("id",))]
    assert "FOREIGN KEY (y) REFERENCES p(id)" in render_schema_prompt(schema)
    # with no primary key, or one of another width, there is no column to pair with
    for name, parent, problem in (
            ("nopk", "p (a INTEGER, b TEXT)", "no primary key"),
            ("wide", "p (a INTEGER, b TEXT, PRIMARY KEY (a, b))", "a 2-column primary key")):
        path = _database(tmp_path / f"{name}.db", f"""
            CREATE TABLE {parent};
            CREATE TABLE c (id INTEGER PRIMARY KEY, y INTEGER REFERENCES p);""")
        with pytest.raises(SchemaValidationError) as info:
            load_schema(path)
        assert info.value.violations == [f"foreign key c(y) names no column of p, "
                                         f"which has {problem}"]


def test_generated_columns_are_read_and_views_are_named(tmp_path):
    schema = load_schema(_database(tmp_path / "gen.db", """
        CREATE TABLE g (a INTEGER, b INTEGER GENERATED ALWAYS AS (a * 2),
                        s TEXT GENERATED ALWAYS AS (a || 'x') STORED);
        CREATE VIEW v AS SELECT a FROM g;"""))
    assert schema.table_names() == ["g"] and schema.views == ("v",)
    assert [(c.name, c.affinity) for c in schema.table("g").columns] == [
        ("a", "integer"), ("b", "integer"), ("s", "text")]
    assert resolve_references(parse_sql("SELECT b, s FROM g"), schema).unresolved == []
    assert schema.view("V") == "v" and schema.view("g") is None


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


def _random_ddl(rng):
    """A schema of one to four tables: keys with and without columns, to
    themselves, to tables with no primary key or to none, WITHOUT ROWID,
    generated columns and a view. Returns the DDL, t0's stored columns and
    the tables that have a generated column."""
    names = [f"t{i}" for i in range(rng.randint(1, 4))]
    statements, first, generated = [], None, set()
    for name in names:
        cols = [f"c{j}" for j in range(rng.randint(1, 4))]
        first = first or cols
        parts = [f"{c} {rng.choice(['INTEGER', 'TEXT', 'REAL', ''])}".strip() for c in cols]
        if rng.random() < 0.3:
            generated.add(name)
            parts.append(f"g INTEGER GENERATED ALWAYS AS ({cols[0]} + 1)"
                         + rng.choice(["", " STORED"]))
        key = rng.choice([(), cols[:1], cols[:2]])
        if key:
            parts.append(f"PRIMARY KEY ({', '.join(key)})")
        for _ in range(rng.randint(0, 2)):
            local = cols[:rng.choice([1, 2])]
            ref = rng.choice(names + ["missing"])
            named = f"({', '.join(f'c{k}' for k in range(len(local)))})"
            parts.append(f"FOREIGN KEY ({', '.join(local)}) REFERENCES {ref}"
                         + rng.choice(["", named]))
        rowid = " WITHOUT ROWID" if key and rng.random() < 0.3 else ""
        statements.append(f"CREATE TABLE {name} ({', '.join(parts)}){rowid};")
    if rng.random() < 0.5:
        statements.append("CREATE VIEW v AS SELECT * FROM t0;")
    return "\n".join(statements), first, generated


def test_random_schemas_load_or_name_the_table(tmp_path):
    rng = random.Random(20261021)
    loaded = refused = 0
    for i in range(200):
        ddl, _, generated = _random_ddl(rng)
        path = _database(tmp_path / f"r{i}.db", ddl)
        try:
            schema = load_schema(path)
        except SchemaValidationError as exc:
            assert all(re.search(r"\bt\d\b", v) for v in exc.violations), (ddl, exc)
            refused += 1
            continue
        loaded += 1
        assert schema.views == (("v",) if "VIEW" in ddl else ())
        assert {tab.name for tab in schema.tables if tab.column("g")} == generated
        for edges in fk_join_graph(schema).values():
            for edge in edges:
                assert all(schema.table(edge.table_a).column(c) for c in edge.columns_a)
                assert all(schema.table(edge.table_b).column(c) for c in edge.columns_b)
    assert loaded >= 40 and refused >= 40, (loaded, refused)


def test_a_run_on_a_random_schema_finishes_or_fails_in_one_line(tmp_path, capsys):
    rng = random.Random(20261022)
    finished = failed = 0
    for i in range(12):
        ddl, cols, _ = _random_ddl(rng)
        dbs = tmp_path / f"dbs{i}"
        dbs.mkdir()
        values = ", ".join(str(k + 1) for k in range(len(cols)))
        _database(dbs / "r.db", ddl + f"INSERT INTO t0 ({', '.join(cols)}) VALUES ({values});")
        seeds = tmp_path / f"seeds{i}.json"
        seeds.write_text(json.dumps([{"question": "Which c0?", "db_id": "r",
                                      "SQL": "SELECT c0 FROM t0"}]))
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({"seeds": str(seeds), "db_dir": str(dbs),
                                   "out_dir": str(tmp_path / f"out{i}"), "rounds": 1}))
        capsys.readouterr()
        code = main(["run", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code in (0, 2), (ddl, err)
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("stage failure: "), err
        finished, failed = finished + (code == 0), failed + (code == 2)
    assert finished >= 3 and failed >= 3, (finished, failed)
