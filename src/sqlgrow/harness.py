"""Read-only SQL execution with structured feedback and result comparison.

All execution failures are data, not exceptions: the feedback object
carries either the engine's error message or the shape of the result.
Acceptance means the query ran and returned at least one row. Grounding
reads at most ``SAMPLE_ROWS + 1`` rows of a result, so the row count it
reports is exact only up to ``SAMPLE_ROWS``. ``collect_result`` reads up to
``MAX_ROWS`` rows, for comparison; a longer result is too large to compare.

Queries whose result depends on the clock or on chance are refused:
the authorizer denies ``random``, ``randomblob`` and the ``CURRENT_*``
keywords when the statement is prepared, and grounding rejects a date and
time function called with a ``'now'`` literal or without its time-value.
So the same text on the same database gives the same result.

A query may take at most ``MAX_VM_STEPS`` SQLite virtual-machine steps,
counted by the progress handler, so whether it is accepted depends only on
the query and the database, not on the speed of the host. ``WALL_CAP_S`` is
a safety net for queries that are slow per step (huge strings): past it the
run ends with ``TimeoutError`` instead of rejecting the candidate.

A ``ResultMultiset`` holds the rows SQLite returned and the query's SQL.
``results_equivalent`` settles most comparisons on those rows as they are;
it normalizes cells only when the rows differ, and it parses the SQL to
ask whether order matters only when both hold the same multiset in a
different order.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from .errors import SqlgrowError
from .lexer import tokenize
from .parser import parse_sql
from .resolve import resolve_references
from .sqlite import readonly_uri, sqlite3
from . import tree as t

MAX_VM_STEPS = 200_000_000
MAX_ROWS = 1000
SAMPLE_ROWS = 5
WALL_CAP_S = 120.0

# The progress handler runs about every this many VM steps; the step count
# is kept in these units.
_PROGRESS_OPCODES = 2000


class ExecutionFeedback(NamedTuple):
    """One grounding run; ``row_count`` is at most ``SAMPLE_ROWS + 1``."""

    ok: bool
    error: str = ""
    columns: tuple[str, ...] = ()
    row_count: int = 0


class ResultMultiset(NamedTuple):
    """The rows SQLite returned for one query, and that query's SQL text.

    ``collect_result`` keeps at most ``MAX_ROWS + 1`` rows: a result with
    more than ``MAX_ROWS`` is ``too_large``, and it holds only a prefix.
    """

    rows: tuple[tuple, ...]
    sql: str

    @property
    def too_large(self) -> bool:
        return len(self.rows) > MAX_ROWS


class RefinementOutcome(NamedTuple):
    """An accepted outcome carries the tree grounding checked and the number
    of tokens it lexed from ``sql``; a failed one None and 0."""

    accepted: bool
    sql: str
    attempts: int
    feedback: ExecutionFeedback
    reason: str = ""
    tree: t.Node | None = None
    tokens: int = 0


# Statements may only read. Recursive CTEs read too; the VM step budget
# bounds them. Everything else, ATTACH and PRAGMA included, is denied when
# the statement is prepared, so nothing reaches a file.
_ALLOWED_ACTIONS = frozenset({
    sqlite3.SQLITE_SELECT,
    sqlite3.SQLITE_READ,
    sqlite3.SQLITE_FUNCTION,
    sqlite3.SQLITE_RECURSIVE,
})


# Functions whose result varies between runs; SQLite reports the CURRENT_*
# keywords as functions of the same name.
_NONDETERMINISTIC_FUNCTIONS = frozenset({
    "random", "randomblob", "current_date", "current_time", "current_timestamp",
})
# The date and time functions, which read the clock when given 'now' or no
# time-value (SQLite reads an omitted time-value as 'now').
_CLOCK_FUNCTIONS = frozenset({
    "date", "time", "datetime", "julianday", "strftime", "unixepoch", "timediff",
})
_NAMES_A_CLOCK_FUNCTION = re.compile(
    r"\b(?:" + "|".join(sorted(_CLOCK_FUNCTIONS)) + r")\b", re.IGNORECASE)


def _authorize(action, _arg1, name, *_rest) -> int:
    if action not in _ALLOWED_ACTIONS or (
            action == sqlite3.SQLITE_FUNCTION
            and name.lower() in _NONDETERMINISTIC_FUNCTIONS):
        return sqlite3.SQLITE_DENY
    return sqlite3.SQLITE_OK


def open_readonly(db_file) -> sqlite3.Connection:
    path = Path(db_file)
    if not path.is_file():
        raise IOError(f"database file not found: {path}")
    # No statement cache: a cached statement carries its VM step count over
    # from earlier runs, which would shift where the progress handler fires.
    conn = sqlite3.connect(readonly_uri(path), uri=True, cached_statements=0)
    conn.set_authorizer(_authorize)
    return conn


def execute_sql(conn: sqlite3.Connection, sql: str) -> ExecutionFeedback:
    """Run a query read-only, as far as ``SAMPLE_ROWS + 1`` rows.

    Every failure comes back as feedback.
    """
    try:
        columns, rows = _run_query(conn, sql, SAMPLE_ROWS + 1)
    except sqlite3.Error as exc:
        return ExecutionFeedback(ok=False, error=str(exc))
    return ExecutionFeedback(ok=True, columns=columns, row_count=len(rows))


def _run_query(conn: sqlite3.Connection, sql: str, limit: int):
    """Column names and up to ``limit`` rows; SQLite errors propagate.

    Grounding, result collection, value sampling and the mock refiner's
    lookups all run here, under one step budget and wall cap.

    A query past ``MAX_VM_STEPS`` is interrupted and raises an
    OperationalError that names the step budget. A query still running
    ``WALL_CAP_S`` after it started raises ``TimeoutError``.
    """
    deadline = time.monotonic() + WALL_CAP_S
    steps = 0
    past_deadline = False

    def progress() -> bool:
        nonlocal steps, past_deadline
        steps += _PROGRESS_OPCODES
        past_deadline = time.monotonic() > deadline
        return steps > MAX_VM_STEPS or past_deadline

    conn.set_progress_handler(progress, _PROGRESS_OPCODES)
    try:
        cur = conn.execute(sql)
        rows = cur.fetchmany(limit)
        return tuple(d[0] for d in cur.description or ()), rows
    except sqlite3.OperationalError:
        if past_deadline:
            raise TimeoutError(f"query ran past the {WALL_CAP_S:g} s wall cap") from None
        if steps > MAX_VM_STEPS:
            raise sqlite3.OperationalError(
                f"over the step budget of {MAX_VM_STEPS} VM steps") from None
        raise
    finally:
        conn.set_progress_handler(None, 0)


def execution_problem(feedback: ExecutionFeedback) -> str:
    """Why an execution is not accepted: the engine's error or "empty result".

    "" means the query ran and returned rows. A failure never maps to "".
    """
    if not feedback.ok:
        return feedback.error or "execution error"
    return "" if feedback.row_count else "empty result"


def render_feedback(feedback: ExecutionFeedback) -> str:
    """Compact text form for prompt injection."""
    if not feedback.ok:
        return f"Execution error: {feedback.error}"
    at_least = "at least " if feedback.row_count > SAMPLE_ROWS else ""
    return (f"Execution succeeded: {at_least}{feedback.row_count} row(s)\n"
            "Columns: " + ", ".join(feedback.columns))


# ---------------------------------------------------------------------------
# Result comparison
# ---------------------------------------------------------------------------

def normalize_cell(value):
    """Comparable form: reals rounded to 1e-6, numeric text de-zeroed."""
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("num", int(value))
    if isinstance(value, int):
        return ("num", value)
    if isinstance(value, float):
        if value.is_integer():
            return ("num", int(value))
        return ("num", round(value, 6))
    if isinstance(value, bytes):
        return ("bytes", value)
    text = str(value)
    if _looks_numeric(text):
        trimmed = text.rstrip("0").rstrip(".") if "." in text else text
        return ("text", trimmed or "0")
    return ("text", text)


def _looks_numeric(text: str) -> bool:
    body = text[1:] if text[:1] in "+-" else text
    if not body:
        return False
    parts = body.split(".")
    return len(parts) <= 2 and all(p.isdigit() for p in parts if p) and any(
        p for p in parts
    )


def collect_result(conn: sqlite3.Connection, sql: str) -> ResultMultiset | None:
    """The result rows as SQLite returned them, or None when execution fails.

    One row past ``MAX_ROWS`` is read, so a longer result is ``too_large``.
    """
    try:
        _, rows = _run_query(conn, sql, MAX_ROWS + 1)
    except sqlite3.Error:
        return None
    return ResultMultiset(tuple(rows), sql)


def _is_ordered(sql: str) -> bool:
    """Whether ``sql`` orders its result. SQL the parser refuses, which only
    model SQL can be, reads as ordered, so it must match row for row."""
    try:
        ast = parse_sql(sql)
    except SqlgrowError:
        return True
    if ast.kind == t.SETOP:
        return any(c.value[0] == "order_by" for c in ast.children[2:])
    found = t.get_clause(ast, "order_by")
    return found is not None


def _normalized(rows: tuple[tuple, ...]) -> list[tuple]:
    return [tuple(normalize_cell(c) for c in row) for row in rows]


def results_equivalent(a: ResultMultiset, b: ResultMultiset) -> bool:
    """Sequence comparison when either query is ordered, else multisets.

    The rows decide first. Equal rows are equivalent, since equal cells
    normalize to equal cells, so rows are normalized only when they differ.
    Then identical normalized sequences are equivalent and different
    multisets are not. Only two results that hold the same multiset in a
    different order parse their SQL to ask whether either is ordered.
    A result that is too large is equivalent to none: two results that
    differ past ``MAX_ROWS`` rows would otherwise compare equal.
    """
    if a.too_large or b.too_large:
        return False
    if a.rows == b.rows:
        return True
    a_rows, b_rows = _normalized(a.rows), _normalized(b.rows)
    if a_rows == b_rows:
        return True
    if len(a_rows) != len(b_rows) or Counter(a_rows) != Counter(b_rows):
        return False
    return not (_is_ordered(a.sql) or _is_ordered(b.sql))


# ---------------------------------------------------------------------------
# Execution-grounded refinement
# ---------------------------------------------------------------------------

def refine_until_valid(
    question: str,
    draft_sql: str,
    schema,
    conn: sqlite3.Connection,
    refiner,
    max_attempts: int = 3,
) -> RefinementOutcome:
    """Execute, and on failure ask the refiner for a revision, up to a bound.

    Acceptance requires a non-empty result plus a clean parse and
    reference resolution, so everything downstream can rely on the tree
    that an accepted outcome carries. A revision equal to the text it
    revises ends refinement: the same text on the same database fails the
    same way. ``attempts`` counts the texts actually tried.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    sql = draft_sql
    for attempt in range(1, max_attempts + 1):
        feedback = execute_sql(conn, sql)
        reason = execution_problem(feedback)
        if not reason:
            reason, tree, tokens = _grounding_problem(sql, schema)
            if not reason:
                return RefinementOutcome(True, sql, attempt, feedback, tree=tree,
                                         tokens=tokens)
            feedback = ExecutionFeedback(ok=False, error=reason)
        if attempt == max_attempts:
            break
        revised = refiner(question, sql, schema, feedback)
        if revised == sql:
            break
        sql = revised
    return RefinementOutcome(False, sql, attempt, feedback, reason)


def _grounding_problem(sql: str, schema) -> tuple[str, t.Node | None, int]:
    """Why ``sql`` does not ground ("" when it does), the tree it parsed to
    and the number of tokens it lexed to.

    The text is lexed once, here; the parser reads those tokens. The tree
    is None, and the count 0, when the text does not parse.
    """
    try:
        tokens = tokenize(sql)
        ast = parse_sql(sql, tokens)
    except SqlgrowError as exc:
        return f"parse failure: {exc}", None, 0
    count = len(tokens)
    clock = _reads_the_clock(sql, ast)
    if clock:
        return f"nondeterministic: {clock}('now')", ast, count
    views = _views_read(ast, schema)
    if views:
        return "reads a view, which is not supported: " + ", ".join(views), ast, count
    try:
        report = resolve_references(ast, schema)
    except SqlgrowError as exc:
        return f"resolution failure: {exc}", ast, count
    if report.unresolved:
        names = sorted({b.name for b in report.unresolved})
        return "unresolved columns: " + ", ".join(names), ast, count
    return "", ast, count


def _views_read(ast: t.Node, schema) -> list[str]:
    """The views of ``schema`` that ``ast`` reads, as the database names them.

    A CTE named like a view hides it; the tree is walked only when the
    database has views.
    """
    if not schema.views:
        return []
    nodes = [node for _, node in t.walk(ast)]
    ctes = {node.value[0].lower() for node in nodes if node.kind == t.CTE}
    views = {schema.view(node.value[0]) for node in nodes
             if node.kind == t.TABLE and node.value[0].lower() not in ctes}
    views.discard(None)
    return sorted(views)


def _reads_the_clock(sql: str, ast: t.Node) -> str:
    """The date or time function in ``ast`` that reads the clock, or "".

    A call reads the clock when it leaves out its time-value (no argument at
    all, or ``strftime`` with only a format) or when a 'now' literal, in any
    case, sits anywhere in its arguments. A 'now' the query computes, such
    as ``'n' || 'ow'``, or one a column holds, stays out of reach. The tree
    is walked only when the text names a clock function.
    """
    if not _NAMES_A_CLOCK_FUNCTION.search(sql):
        return ""
    for _, node in t.walk(ast):
        if node.kind != t.FUNCTION or node.value[0] not in _CLOCK_FUNCTIONS:
            continue
        name = node.value[0]
        if len(node.children) < (2 if name == "strftime" else 1) or any(
                sub.kind == t.LITERAL and sub.value[0].lower() == "'now'"
                for arg in node.children for _, sub in t.walk(arg)):
            return name
    return ""
