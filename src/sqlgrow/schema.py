"""Database schema loading, validation, and derived structures.

Schemas are introspected from live SQLite files so the schema object and
the database the harness executes against can never disagree. Schema
values are immutable after load and safe to share across workers.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .errors import SchemaValidationError
from .sqlite import sqlite3

AFFINITIES = ("integer", "real", "text", "blob", "numeric")

# Text/numeric columns whose names match are treated as date-like when
# planning function wrapping.
DATE_LIKE_PATTERNS = ("date", "time", "year")


class ColumnDef(NamedTuple):
    name: str
    affinity: str
    nullable: bool = True


class ForeignKey(NamedTuple):
    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


class TableDef(NamedTuple):
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...] = ()
    foreign_keys: tuple[ForeignKey, ...] = ()

    def column(self, name: str) -> ColumnDef | None:
        low = name.lower()
        for col in self.columns:
            if col.name.lower() == low:
                return col
        return None

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


class DatabaseSchema(NamedTuple):
    schema_id: str
    tables: tuple[TableDef, ...]

    def table(self, name: str) -> TableDef | None:
        low = name.lower()
        for tab in self.tables:
            if tab.name.lower() == low:
                return tab
        return None

    def table_names(self) -> list[str]:
        return [t.name for t in self.tables]

    def is_date_like(self, table_name: str, column_name: str) -> bool:
        tab = self.table(table_name)
        col = tab.column(column_name) if tab else None
        if col is None:
            return False
        low = column_name.lower()
        return any(pat in low for pat in DATE_LIKE_PATTERNS)


class JoinEdge(NamedTuple):
    """An undirected FK edge; ``a``/``b`` sides keep their column pairing."""

    table_a: str
    columns_a: tuple[str, ...]
    table_b: str
    columns_b: tuple[str, ...]


def _affinity_of(declared: str) -> str:
    """SQLite type affinity rules, reduced to the five storage classes."""
    decl = (declared or "").upper()
    if "INT" in decl:
        return "integer"
    if any(s in decl for s in ("CHAR", "CLOB", "TEXT")):
        return "text"
    if not decl or "BLOB" in decl:
        return "blob"
    if any(s in decl for s in ("REAL", "FLOA", "DOUB")):
        return "real"
    return "numeric"


def load_schema(db_file) -> DatabaseSchema:
    """Introspect a SQLite database file into a validated schema."""
    path = Path(db_file)
    if not path.is_file():
        raise IOError(f"database file not found: {path}")
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise IOError(f"cannot open database {path}: {exc}")
    try:
        return _introspect(conn, path.stem)
    except sqlite3.DatabaseError as exc:
        raise IOError(f"not a readable SQLite database: {path}: {exc}")
    finally:
        conn.close()


def _introspect(conn: sqlite3.Connection, schema_id: str) -> DatabaseSchema:
    cur = conn.cursor()
    names = [
        r[0]
        for r in cur.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name"
        )
    ]
    tables = []
    for name in names:
        cols = []
        pk_cols: list[tuple[int, str]] = []
        for _, col_name, decl, notnull, _, pk in cur.execute(f'PRAGMA table_info("{name}")'):
            cols.append(ColumnDef(col_name, _affinity_of(decl), nullable=not notnull))
            if pk:
                pk_cols.append((pk, col_name))
        fks: dict[int, dict] = {}
        for row in cur.execute(f'PRAGMA foreign_key_list("{name}")'):
            fk_id, seq, ref_table, local, ref = row[0], row[1], row[2], row[3], row[4]
            entry = fks.setdefault(fk_id, {"table": ref_table, "local": [], "ref": []})
            entry["local"].append((seq, local))
            entry["ref"].append((seq, ref))
        fk_list = []
        for entry in fks.values():
            local = tuple(c for _, c in sorted(entry["local"]))
            ref = tuple(c for _, c in sorted(entry["ref"]))
            fk_list.append(ForeignKey(local, entry["table"], ref))
        fk_list.sort(key=lambda f: (f.ref_table, f.columns))
        tables.append(
            TableDef(
                name=name,
                columns=tuple(cols),
                primary_key=tuple(c for _, c in sorted(pk_cols)),
                foreign_keys=tuple(fk_list),
            )
        )
    schema = DatabaseSchema(schema_id, tuple(tables))
    validate_schema(schema)
    return schema


def validate_schema(schema: DatabaseSchema) -> None:
    """Raise SchemaValidationError listing every invariant violation."""
    violations = []
    if not schema.tables:
        violations.append("no tables")
    seen = set()
    for tab in schema.tables:
        low = tab.name.lower()
        if low in seen:
            violations.append(f"duplicate table name {tab.name!r}")
        seen.add(low)
        if not tab.columns:
            violations.append(f"table {tab.name!r} has no columns")
        col_names = set()
        for col in tab.columns:
            if col.name.lower() in col_names:
                violations.append(f"duplicate column {tab.name}.{col.name}")
            col_names.add(col.name.lower())
            if col.affinity not in AFFINITIES:
                violations.append(f"bad affinity {col.affinity!r} on {tab.name}.{col.name}")
        for pk in tab.primary_key:
            if pk.lower() not in col_names:
                violations.append(f"primary key {tab.name}.{pk} is not a column")
        for fk in tab.foreign_keys:
            if len(fk.columns) != len(fk.ref_columns):
                violations.append(
                    f"foreign key arity mismatch on {tab.name} -> {fk.ref_table}"
                )
            ref = schema.table(fk.ref_table)
            if ref is None:
                violations.append(
                    f"foreign key on {tab.name} references missing table {fk.ref_table!r}"
                )
                continue
            for col in fk.columns:
                if tab.column(col) is None:
                    violations.append(f"foreign key column {tab.name}.{col} does not exist")
            for col in fk.ref_columns:
                if col is not None and ref.column(col) is None:
                    violations.append(
                        f"foreign key on {tab.name} references missing column "
                        f"{fk.ref_table}.{col}"
                    )
    if violations:
        raise SchemaValidationError(violations)


def fk_join_graph(schema: DatabaseSchema) -> dict[str, list[JoinEdge]]:
    """Undirected FK adjacency: table name -> edges touching it."""
    adjacency: dict[str, list[JoinEdge]] = {tab.name: [] for tab in schema.tables}
    for tab in schema.tables:
        for fk in tab.foreign_keys:
            ref = schema.table(fk.ref_table)
            if ref is None:
                continue
            ref_cols = tuple(
                c if c is not None else ref.primary_key[i]
                for i, c in enumerate(fk.ref_columns)
            )
            edge = JoinEdge(tab.name, fk.columns, ref.name, ref_cols)
            adjacency[tab.name].append(edge)
            adjacency[ref.name].append(
                JoinEdge(ref.name, ref_cols, tab.name, fk.columns)
            )
    for edges in adjacency.values():
        edges.sort(key=lambda e: (e.table_b, e.columns_a, e.columns_b))
    return adjacency


def render_schema_prompt(schema: DatabaseSchema) -> str:
    """Deterministic CREATE TABLE rendering for prompt substitution."""
    statements = []
    for tab in schema.tables:
        lines = []
        inline_pk = tab.primary_key if len(tab.primary_key) == 1 else ()
        for col in tab.columns:
            parts = [col.name, col.affinity.upper()]
            if col.name in inline_pk:
                parts.append("PRIMARY KEY")
            if not col.nullable and col.name not in inline_pk:
                parts.append("NOT NULL")
            lines.append("  " + " ".join(parts))
        if len(tab.primary_key) > 1:
            lines.append("  PRIMARY KEY (" + ", ".join(tab.primary_key) + ")")
        for fk in tab.foreign_keys:
            lines.append(
                "  FOREIGN KEY ("
                + ", ".join(fk.columns)
                + f") REFERENCES {fk.ref_table}("
                + ", ".join(c or "" for c in fk.ref_columns)
                + ")"
            )
        statements.append(f"CREATE TABLE {tab.name} (\n" + ",\n".join(lines) + "\n);")
    return "\n".join(statements)
