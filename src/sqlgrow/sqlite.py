"""SQLite's connection API from CPython's own C module, without ``datetime``.

``import sqlite3`` runs ``sqlite3.dbapi2``, which imports ``datetime`` (about
0.4 MiB of resident memory) only to register the default adapters and
converters for date and timestamp values. sqlgrow passes no date objects as
parameters and never asks for type detection, so neither ever runs: the
connection, its authorizer, progress handler and errors are ``_sqlite3``'s
either way. ``sqlite3`` is the fallback for a build that names its C module
differently.

``quote_ident`` is SQLite's quoting of a name: the renderer and every query
sqlgrow builds from schema names quote through it.
"""

from pathlib import Path

try:
    import _sqlite3 as sqlite3
except ImportError:
    import sqlite3


def readonly_uri(path) -> str:
    """A read-only URI of the database file at ``path``; ``as_uri`` escapes a
    ``?``, ``#`` or ``%`` in the path, which would end it or start an escape."""
    return Path(path).resolve().as_uri() + "?mode=ro"


def quote_ident(name: str) -> str:
    """``name`` as a double-quoted SQLite identifier, each ``"`` in it doubled."""
    return '"' + name.replace('"', '""') + '"'
