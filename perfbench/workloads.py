"""Workload definitions and their input generators.

Every workload starts from the fixture schemas and the 54 seed questions
in ``tests/fixtures.py`` and runs the mock pipeline with ``global_seed`` 42
and ``expansions_per_seed=2``. The inputs are pinned, not drawn from the
benchmark's ``--seed``: check 5 compares ``dataset.jsonl`` with a fixed
reference hash, and a run's timed work must be the same in every run for
two sets of runs to be comparable.
"""

from __future__ import annotations

import importlib.util
import random
import sqlite3
from dataclasses import dataclass
from pathlib import Path

GLOBAL_SEED = 42
EXPANSIONS_PER_SEED = 2
BIGDB_SEED = 20260117

# Rows added to each fixture table by the bigdb generator, per schema.
BIGDB_ROWS = {
    "olympics": {"person": 500, "games": 20, "sport": 10, "event": 60,
                 "games_competitor": 750, "competitor_event": 750},
    "library": {"author": 150, "book": 500, "member": 350, "loan": 750},
    "shop": {"customer": 350, "product": 200, "orders": 600,
             "order_item": 750},
}


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int
    bigdb: bool
    resume: bool
    dataset_sha256: str


WORKLOADS = {
    w.name: w for w in (
        Workload("evolve-deep", rounds=2, bigdb=False, resume=False,
                 dataset_sha256="5435febcdedca568d7b6ca6613c7fc4f"
                                "89b1ad4c16de89ed199330ed48f94103"),
        Workload("bigdb", rounds=2, bigdb=True, resume=False,
                 dataset_sha256="ac6d93b118df6b1d66dd0ec03b4c5f25"
                                "e28a789d7104140ba98d79564225e881"),
        Workload("resume", rounds=2, bigdb=False, resume=True,
                 dataset_sha256="5435febcdedca568d7b6ca6613c7fc4f"
                                "89b1ad4c16de89ed199330ed48f94103"),
    )
}


def load_fixtures(root: Path):
    """Import ``tests/fixtures.py`` from the checkout without sqlgrow."""
    path = root / "tests" / "fixtures.py"
    spec = importlib.util.spec_from_file_location("perfbench_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_inputs(workload: Workload, fixtures, pass_dir: Path) -> dict:
    """Write databases and the seed file; return the run config as a dict."""
    db_dir = pass_dir / "db"
    fixtures.build_all(db_dir)
    if workload.bigdb:
        grow_databases(db_dir)
    seeds = fixtures.write_seed_file(pass_dir / "seeds.json")
    return {
        "seeds": str(seeds),
        "db_dir": str(db_dir),
        "out_dir": str(pass_dir / "out"),
        "rounds": workload.rounds,
        "expansions_per_seed": EXPANSIONS_PER_SEED,
        "global_seed": GLOBAL_SEED,
    }


# ---------------------------------------------------------------------------
# bigdb: the fixture tables grown by a seeded generator
# ---------------------------------------------------------------------------

_FIRST = ("Alice", "Bob", "Carol", "Dan", "Erin", "Felix", "Gina", "Hugo",
          "Ines", "Jon", "Kira", "Lars", "Mona", "Nils", "Olga", "Pavel")
_LAST = ("Swift", "Stone", "Reed", "Flood", "Vale", "Marsh", "Bell", "Ortiz",
         "Lim", "Adler", "Keane", "Park", "Diaz", "Voss", "Chen", "Aoki")
_WORDS = ("the", "long", "river", "night", "harbor", "glass", "door", "city",
          "rain", "stars", "logic", "roots", "stone", "field", "winter", "light")
_SPORTS = ("Swimming", "Athletics", "Skating", "Rowing", "Fencing", "Judo")
_EVENTS = ("100m freestyle", "200m medley", "marathon", "400m freestyle",
           "short track", "high jump", "sprint", "relay")
_GENRES = ("novel", "science", "mystery", "poetry", "history")
_CITIES = ("Lyon", "Oslo", "Kyoto", "Porto", "Quito", "Riga")
_CATEGORIES = ("garden", "kitchen", "office", "toys")
_GOODS = ("ladder", "pot", "knife", "pan", "lamp", "block", "chair", "brush")


def _name(rng):
    return f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"


def _title(rng):
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 4)))


def _date(rng, first_year, last_year):
    return (f"{rng.randint(first_year, last_year)}-"
            f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}")


def _max_id(conn, table):
    return conn.execute(f"SELECT COALESCE(MAX(id), 0) FROM {table}").fetchone()[0]


def _append(conn, table, rows_fn, count):
    """Insert ``count`` rows after the table's current largest id."""
    start = _max_id(conn, table) + 1
    conn.executemany(
        f"INSERT INTO {table} VALUES ({', '.join('?' * _width(conn, table))})",
        [(i, *rows_fn()) for i in range(start, start + count)],
    )
    return start + count - 1


def _width(conn, table):
    return len(conn.execute(f"PRAGMA table_info({table})").fetchall())


def _append_pairs(conn, table, left_max, right_max, extra_fn, count, rng):
    """Insert ``count`` new (left, right) key pairs absent from the table."""
    taken = {row[:2] for row in conn.execute(f"SELECT * FROM {table}")}
    rows = []
    while len(rows) < count:
        key = (rng.randint(1, left_max), rng.randint(1, right_max))
        if key in taken:
            continue
        taken.add(key)
        rows.append((*key, *extra_fn()))
    conn.executemany(
        f"INSERT INTO {table} VALUES ({', '.join('?' * len(rows[0]))})", rows)


def _grow_olympics(conn, rng, n):
    persons = _append(conn, "person", lambda: (_name(rng), rng.randint(45, 120)),
                      n["person"])
    games = _append(conn, "games", lambda: (
        rng.choice(("Summer", "Winter")), rng.randint(1896, 2024)), n["games"])
    sports = _append(conn, "sport", lambda: (
        f"{rng.choice(_SPORTS)} {rng.randint(1, 99)}",), n["sport"])
    events = _append(conn, "event", lambda: (
        rng.randint(1, sports), rng.choice(_EVENTS)), n["event"])
    competitors = _append(conn, "games_competitor", lambda: (
        rng.randint(1, persons), rng.randint(1, games), rng.randint(16, 45)),
        n["games_competitor"])
    _append_pairs(conn, "competitor_event", competitors, events,
                  lambda: (rng.randint(1, 3),), n["competitor_event"], rng)


def _grow_library(conn, rng, n):
    authors = _append(conn, "author", lambda: (_name(rng), rng.randint(1900, 2000)),
                      n["author"])
    books = _append(conn, "book", lambda: (
        _title(rng), rng.randint(1, authors), rng.randint(1950, 2024),
        round(rng.uniform(2.0, 60.0), 2), rng.choice(_GENRES)), n["book"])
    members = _append(conn, "member", lambda: (_name(rng), rng.randint(2000, 2024)),
                      n["member"])
    _append(conn, "loan", lambda: (
        rng.randint(1, books), rng.randint(1, members), _date(rng, 2015, 2024)),
        n["loan"])


def _grow_shop(conn, rng, n):
    customers = _append(conn, "customer", lambda: (_name(rng), rng.choice(_CITIES)),
                        n["customer"])
    products = _append(conn, "product", lambda: (
        f"{rng.choice(_WORDS)} {rng.choice(_GOODS)}", rng.choice(_CATEGORIES),
        round(rng.uniform(1.0, 80.0), 2)), n["product"])
    orders = _append(conn, "orders", lambda: (
        rng.randint(1, customers), _date(rng, 2020, 2024)), n["orders"])
    _append_pairs(conn, "order_item", orders, products,
                  lambda: (rng.randint(1, 12),), n["order_item"], rng)


_GROWERS = {"olympics": _grow_olympics, "library": _grow_library,
            "shop": _grow_shop}


def grow_databases(db_dir: Path) -> None:
    """Append seeded rows to every fixture table; original rows stay."""
    for schema_id, grow in _GROWERS.items():
        rng = random.Random(f"{BIGDB_SEED}:{schema_id}")
        conn = sqlite3.connect(db_dir / f"{schema_id}.db")
        try:
            grow(conn, rng, BIGDB_ROWS[schema_id])
            conn.commit()
        finally:
            conn.close()

