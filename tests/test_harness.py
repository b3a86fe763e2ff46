import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fixtures import MINI_OLYMPICS_DDL, STAGE_SQL_2, build_database
from sqlgrow import harness
from sqlgrow.harness import (
    ExecutionFeedback,
    ResultMultiset,
    collect_result,
    execute_sql,
    execution_problem,
    normalize_cell,
    open_readonly,
    refine_until_valid,
    render_feedback,
    results_equivalent,
)
from sqlgrow.parser import parse_sql
from sqlgrow.schema import load_schema


def test_constant_query(connections):
    fb = execute_sql(connections["olympics"], "SELECT 1")
    assert fb.ok and fb.row_count == 1


def test_missing_table_error_names_table(connections):
    fb = execute_sql(connections["olympics"], "SELECT * FROM missing_table")
    assert not fb.ok
    assert "missing_table" in fb.error


def test_stage2_returns_rows(connections):
    fb = execute_sql(connections["olympics"], STAGE_SQL_2)
    assert fb.ok and fb.row_count >= 1


def test_step_budget_stops_runaway_query(connections, monkeypatch):
    monkeypatch.setattr(harness, "MAX_VM_STEPS", 1_000_000)
    runaway = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
               "SELECT COUNT(*) FROM c")
    fb = execute_sql(connections["olympics"], runaway)
    assert not fb.ok
    assert fb.error == "over the step budget of 1000000 VM steps"
    assert collect_result(connections["olympics"], runaway) is None
    assert execute_sql(connections["olympics"], "SELECT 1").ok


def test_grounding_reads_one_row_past_the_sample(connections):
    conn = connections["olympics"]
    cross = "SELECT gc.id FROM games_competitor gc, games_competitor g2"
    fb = execute_sql(conn, cross)
    assert fb.ok and fb.row_count == harness.SAMPLE_ROWS + 1
    assert len(collect_result(conn, cross).rows) > harness.SAMPLE_ROWS + 1
    assert "Execution succeeded: at least 6 row(s)" in render_feedback(fb)
    exact = execute_sql(conn, f"SELECT id FROM person LIMIT {harness.SAMPLE_ROWS}")
    assert (f"Execution succeeded: {harness.SAMPLE_ROWS} row(s)"
            in render_feedback(exact))


# A query of some tens of thousands of VM steps.
_LOOP_SQL = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
             "WHERE x < 5000) SELECT COUNT(*) FROM c")


def _counted_steps(conn, sql):
    """The query's VM steps as the harness counts them."""
    calls = []
    conn.set_progress_handler(lambda: calls.append(1), harness._PROGRESS_OPCODES)
    try:
        conn.execute(sql).fetchall()
    finally:
        conn.set_progress_handler(None, 0)
    return len(calls) * harness._PROGRESS_OPCODES


def _clock(monkeypatch, step):
    """Patch the harness clock to advance by ``step`` seconds per reading."""
    ticks = itertools.count()
    monkeypatch.setattr(harness.time, "monotonic", lambda: next(ticks) * step)


def test_acceptance_depends_only_on_the_step_budget(db_dir, monkeypatch):
    conn = open_readonly(db_dir / "olympics.db")
    try:
        steps = _counted_steps(conn, _LOOP_SQL)
        assert _counted_steps(conn, _LOOP_SQL) == steps  # no carry-over
        readings = steps // harness._PROGRESS_OPCODES + 1
        assert readings >= 10
        fast = harness.WALL_CAP_S / (2 * readings)  # stays below the cap

        monkeypatch.setattr(harness, "MAX_VM_STEPS", steps // 2)
        _clock(monkeypatch, 0.0)
        frozen = execute_sql(conn, _LOOP_SQL)
        _clock(monkeypatch, fast)
        racing = execute_sql(conn, _LOOP_SQL)
        assert frozen == racing
        assert frozen == ExecutionFeedback(
            ok=False, error=f"over the step budget of {steps // 2} VM steps")

        monkeypatch.setattr(harness, "MAX_VM_STEPS", steps - 1)
        assert not execute_sql(conn, _LOOP_SQL).ok
        monkeypatch.setattr(harness, "MAX_VM_STEPS", steps)
        accepted = execute_sql(conn, _LOOP_SQL)
        _clock(monkeypatch, 0.0)
        assert execute_sql(conn, _LOOP_SQL) == accepted
        assert accepted.ok and accepted.row_count == 1
        assert collect_result(conn, _LOOP_SQL).rows == ((5000,),)
    finally:
        conn.close()


def test_wall_cap_raises_timeout_error(connections, monkeypatch):
    _clock(monkeypatch, harness.WALL_CAP_S + 1)  # every reading past the last cap
    conn = connections["olympics"]
    with pytest.raises(TimeoutError, match="wall cap"):
        execute_sql(conn, _LOOP_SQL)
    with pytest.raises(TimeoutError, match="wall cap"):
        collect_result(conn, _LOOP_SQL)
    # a query too short to reach the progress handler never reads the clock twice
    assert execute_sql(conn, "SELECT 1").ok


def test_execution_problem_rules():
    assert execution_problem(ExecutionFeedback(ok=True, row_count=0)) == "empty result"
    assert execution_problem(ExecutionFeedback(ok=False, error="boom")) == "boom"
    assert execution_problem(ExecutionFeedback(ok=False)) == "execution error"
    assert execution_problem(ExecutionFeedback(ok=True, row_count=7)) == ""


def test_execute_never_writes(db_dir, connections):
    path = db_dir / "olympics.db"
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    execute_sql(connections["olympics"], "SELECT * FROM person")
    fb = execute_sql(connections["olympics"], "DELETE FROM person")
    assert not fb.ok  # read-only connection refuses writes
    after = hashlib.sha256(path.read_bytes()).hexdigest()
    assert before == after


@pytest.mark.parametrize("sql", [
    "ATTACH DATABASE '{target}' AS e",
    "CREATE TABLE e.t(x)",
    "CREATE TEMP TABLE scratch(x)",
    "INSERT INTO person (id, full_name) VALUES (999, 'x')",
    "PRAGMA user_version = 7",
])
def test_readonly_harness_refuses_writes(db_dir, tmp_path, sql):
    path = db_dir / "olympics.db"
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    target = tmp_path / "attached.db"
    conn = open_readonly(path)
    try:
        fb = execute_sql(conn, sql.format(target=target))
        assert not fb.ok
        if "e.t" not in sql:  # with ATTACH denied, schema "e" does not exist
            assert "not authorized" in fb.error
        assert execute_sql(conn, "SELECT COUNT(*) FROM person").ok
    finally:
        conn.close()
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before


@pytest.mark.parametrize("dirname", ["a#b", "a?b", "a%20b", "sp ace"])
def test_readonly_opens_read_the_named_file(tmp_path, dirname):
    # In a bare "file:" URI, "?" and "#" would end the path and drop
    # mode=ro, and "%20" would be read as an escape for a space.
    (tmp_path / dirname).mkdir()
    path = build_database(tmp_path / dirname / "mini.db", MINI_OLYMPICS_DDL)
    before = sorted(tmp_path.rglob("*"))
    assert [t.name for t in load_schema(path).tables] == ["games_competitor", "person"]
    conn = open_readonly(path)
    try:
        assert conn.execute("SELECT full_name FROM person ORDER BY id").fetchall() == [
            ("Alice Swift",), ("Bob Stone",)]
        conn.set_authorizer(None)  # the file itself must refuse the write
        with pytest.raises(harness.sqlite3.OperationalError, match="readonly"):
            conn.execute("DELETE FROM person")
    finally:
        conn.close()
    assert sorted(tmp_path.rglob("*")) == before
    with pytest.raises(IOError):
        open_readonly(tmp_path / dirname / "missing.db")
    with pytest.raises(IOError):
        load_schema(tmp_path / dirname / "missing.db")


# -- result comparison --------------------------------------------------------

def rs(rows, ordered=False):
    """A result of ``rows`` whose SQL is ordered or not, as asked."""
    sql = "SELECT 1 ORDER BY 1" if ordered else "SELECT 1"
    return ResultMultiset(tuple(tuple(r) for r in rows), sql)


def test_multiset_ignores_order():
    assert results_equivalent(rs([(1, "x"), (2, "y")]), rs([(2, "y"), (1, "x")]))


def test_ordered_comparison_is_sequence():
    assert not results_equivalent(rs([(1,), (2,)], ordered=True),
                                  rs([(2,), (1,)], ordered=True))


def test_sql_the_parser_refuses_reads_as_ordered():
    natural = "SELECT id FROM person NATURAL JOIN games_competitor"
    assert not results_equivalent(ResultMultiset(((1,), (2,)), natural), rs([(2,), (1,)]))
    assert not results_equivalent(ResultMultiset(((1,), (2,)), natural),
                                  rs([(2,), (1,)], ordered=True))
    using = "SELECT id FROM person JOIN games_competitor USING (id) ORDER BY id"
    assert not results_equivalent(ResultMultiset(((1,), (2,)), using), rs([(2,), (1,)]))


def test_duplicate_multiplicity_matters():
    assert not results_equivalent(rs([(1,), (1,)]), rs([(1,)]))


def test_float_tolerance_and_numeric_text():
    assert normalize_cell(2.0) == normalize_cell(2)
    assert normalize_cell(0.30000000001) == normalize_cell(0.3)
    assert normalize_cell(0.1234561) == normalize_cell(0.1234564)  # 6 decimals
    assert normalize_cell("1.50") == normalize_cell("1.5")
    assert normalize_cell("-1.50") == normalize_cell("-1.5")
    assert normalize_cell("+2.0") == normalize_cell("+2")
    assert normalize_cell("0.000") == normalize_cell("0")
    assert normalize_cell(".000") == normalize_cell("0")
    assert normalize_cell(None) == normalize_cell(None)
    assert normalize_cell("1.5") != normalize_cell(1.5)  # text stays text
    # rows that differ only where cells normalize alike are equivalent
    assert results_equivalent(rs([(0.30000000001, "1.50")]), rs([(0.3, "1.5")]))
    assert not results_equivalent(rs([("1.5",)]), rs([(1.5,)]))
    # a compound's trailing ORDER BY orders the whole result
    union = "SELECT 1 AS x UNION SELECT 2 ORDER BY x"
    assert not results_equivalent(ResultMultiset(((2,), (1,)), union + " DESC"),
                                  ResultMultiset(((1,), (2,)), union))


def test_redundant_join_same_multiset(connections):
    base = "SELECT p.full_name FROM person p"
    joined = ("SELECT p.full_name FROM person p "
              "LEFT JOIN games_competitor gc ON gc.id = -1")
    a = collect_result(connections["olympics"], base)
    b = collect_result(connections["olympics"], joined)
    assert results_equivalent(a, b)


@given(st.lists(st.tuples(st.integers(-5, 5), st.text(max_size=3)), max_size=6))
def test_results_equivalent_reflexive_symmetric(rows):
    a = rs(rows)
    b = rs(list(reversed(rows)))
    assert results_equivalent(a, a)
    assert results_equivalent(a, b) == results_equivalent(b, a)


def _sequence_or_multiset(a_rows, b_rows, a_ordered, b_ordered):
    """The comparison rule before ordering was read on demand."""
    if a_ordered or b_ordered:
        return a_rows == b_rows
    return len(a_rows) == len(b_rows) and Counter(a_rows) == Counter(b_rows)


_row_lists = st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(["x", "y", None])),
                      max_size=5)


@given(_row_lists, st.data(), st.booleans(), st.booleans())
def test_rows_first_comparison_matches_the_flag_first_rule(rows, data, a_ord, b_ord):
    other = data.draw(st.one_of(st.just(rows), st.permutations(rows), _row_lists))
    # these cells normalize one-to-one, so the rule may read them as they are
    assert results_equivalent(rs(rows, a_ord), rs(other, b_ord)) == \
        _sequence_or_multiset(list(rows), list(other), a_ord, b_ord)


def _normalise_first(a_raw, b_raw, a_ordered, b_ordered):
    """The comparison rule before raw rows were compared first."""
    a = [tuple(normalize_cell(c) for c in row) for row in a_raw]
    b = [tuple(normalize_cell(c) for c in row) for row in b_raw]
    if a == b:
        return True
    if len(a) != len(b) or Counter(a) != Counter(b):
        return False
    return not (a_ordered or b_ordered)


def _twin(cell):
    """An equal cell of another Python type, where SQLite can return one."""
    if isinstance(cell, bool):
        return int(cell)
    if isinstance(cell, int) and float(cell) == cell:
        return float(cell)
    if isinstance(cell, float) and cell.is_integer():
        return int(cell)
    return cell


_sqlite_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(2**53 - 2, 2**53 + 2),
    st.floats(allow_nan=False),
    st.floats(2.0**53 - 4, 2.0**53 + 4),
    st.sampled_from([0.0, -0.0, 2.0, 1.5, 0.30000000001, 0.3]),
    st.sampled_from(["1.50", "1.5", "1", "01", "-0", "0.0", "x", ""]),
    st.binary(max_size=2),
)
_raw_rows = st.lists(st.tuples(_sqlite_cells, _sqlite_cells), max_size=4)


@given(_raw_rows, st.data(), st.booleans(), st.booleans())
def test_raw_first_comparison_matches_normalising_first(rows, data, a_ord, b_ord):
    twins = [tuple(_twin(c) for c in row) for row in rows]
    other = data.draw(st.one_of(st.just(rows), st.just(twins),
                                st.permutations(twins), _raw_rows))
    assert results_equivalent(rs(rows, a_ord), rs(other, b_ord)) == \
        _normalise_first(rows, other, a_ord, b_ord)


def test_equal_raw_rows_compare_without_normalizing(connections, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "normalize_cell", lambda c: calls.append(c) or c)
    conn = connections["olympics"]
    a = collect_result(conn, "SELECT full_name, weight FROM person ORDER BY id")
    b = collect_result(conn, "SELECT p.full_name, p.weight FROM person AS p ORDER BY p.id")
    assert len(a.rows) > 1
    assert results_equivalent(a, b) and results_equivalent(a, a)
    assert calls == []
    fewer = collect_result(conn, "SELECT full_name, weight FROM person ORDER BY id LIMIT 1")
    assert not results_equivalent(a, fewer)
    assert calls


def test_collected_rows_are_sqlite_rows_without_normalizing(connections, monkeypatch):
    def no_normalize(cell):
        raise AssertionError(f"normalized {cell!r}")

    monkeypatch.setattr(harness, "normalize_cell", no_normalize)
    conn = connections["olympics"]
    sql = "SELECT full_name, weight FROM person ORDER BY id"
    expected = tuple(conn.execute(sql).fetchall())
    result = collect_result(conn, sql)
    assert result.rows == expected and result.sql == sql
    assert len(result.rows) == len(expected) > 1


def test_identical_rows_compare_without_parsing(connections, monkeypatch):
    def no_parse(text):
        raise AssertionError(f"parsed {text!r}")

    monkeypatch.setattr(harness, "parse_sql", no_parse)
    conn = connections["olympics"]
    a = collect_result(conn, "SELECT full_name FROM person ORDER BY id")
    b = collect_result(conn, "SELECT p.full_name FROM person AS p ORDER BY p.id")
    assert len(a.rows) > 1
    assert results_equivalent(a, b)
    assert results_equivalent(a, a)


def test_ordered_results_in_another_order_differ(connections):
    conn = connections["olympics"]
    up = collect_result(conn, "SELECT full_name FROM person ORDER BY full_name")
    down = collect_result(conn, "SELECT full_name FROM person ORDER BY full_name DESC")
    unordered = collect_result(conn, "SELECT full_name FROM person")
    assert sorted(up.rows) == sorted(down.rows) and up.rows != down.rows
    assert harness._is_ordered(up.sql) and harness._is_ordered(down.sql)
    assert not harness._is_ordered(unordered.sql)
    assert not results_equivalent(up, down)
    assert not results_equivalent(down, up)


def test_result_multiset_is_a_frozen_value():
    sql = "SELECT x FROM t ORDER BY x"
    result = ResultMultiset(((1,), (2,)), sql)
    same = ResultMultiset(((1,), (2,)), sql)
    assert result == same and hash(result) == hash(same)
    assert result != ResultMultiset(((2,), (1,)), sql)
    assert result != ResultMultiset(((1,), (2,)), "SELECT x FROM t")
    assert repr(result) == f"ResultMultiset(rows=((1,), (2,)), sql={sql!r})"
    with pytest.raises(AttributeError):
        result.rows = ()
    with pytest.raises(AttributeError):
        result.sql = ""
    assert result.rows == ((1,), (2,)) and result.sql == sql


# -- refinement loop ----------------------------------------------------------

def test_valid_draft_returned_unchanged(connections, olympics_schema):
    calls = []

    def refiner(q, s, sc, fb):
        calls.append(s)
        return s

    outcome = refine_until_valid(
        "who", "SELECT full_name FROM person", olympics_schema,
        connections["olympics"], refiner)
    assert outcome.accepted and outcome.attempts == 1
    assert outcome.sql == "SELECT full_name FROM person"
    assert calls == []


def test_misspelled_column_fixed_on_second_attempt(connections, olympics_schema):
    def refiner(q, s, sc, fb):
        assert "full_nam" in fb.error
        return s.replace("full_nam", "full_name")

    outcome = refine_until_valid(
        "who", "SELECT full_nam FROM person", olympics_schema,
        connections["olympics"], refiner)
    assert outcome.accepted and outcome.attempts == 2
    assert outcome.tree == parse_sql(outcome.sql)


def test_rejection_after_max_attempts(connections, olympics_schema):
    drafts = []

    def hopeless(q, s, sc, fb):
        drafts.append(s)
        return s + " AND weight < 0"  # a new text each time, still empty

    outcome = refine_until_valid(
        "who", "SELECT full_name FROM person WHERE weight < 0",
        olympics_schema, connections["olympics"], hopeless, max_attempts=3)
    assert not outcome.accepted
    assert outcome.attempts == 3
    assert outcome.reason == "empty result"
    assert outcome.tree is None
    assert len(drafts) == len(set(drafts)) == 2
    assert outcome.sql == drafts[-1] + " AND weight < 0"


def test_unchanged_revision_ends_refinement(connections, olympics_schema,
                                            monkeypatch):
    executed, refined = [], []
    real_execute = harness.execute_sql

    def counting_execute(conn, sql):
        executed.append(sql)
        return real_execute(conn, sql)

    def echo(q, s, sc, fb):
        refined.append(s)
        return s

    monkeypatch.setattr(harness, "execute_sql", counting_execute)
    draft = "SELECT full_name FROM person WHERE weight < 0"
    outcome = refine_until_valid(
        "who", draft, olympics_schema, connections["olympics"], echo,
        max_attempts=3)
    assert refined == [draft] and executed == [draft]
    assert not outcome.accepted and outcome.attempts == 1
    assert outcome.reason == "empty result" and outcome.sql == draft
    assert outcome.feedback.ok and outcome.feedback.row_count == 0


def test_accepted_sql_must_resolve(connections, olympics_schema):
    # executes fine (engine treats double-quoted unknowns as strings would
    # fail; use a query that runs but does not resolve: alias misuse)
    def refiner(q, s, sc, fb):
        return "SELECT full_name FROM person"

    outcome = refine_until_valid(
        "who", "SELECT p.full_name FROM person AS q JOIN person AS p ON p.id = q.id WHERE q.missing_col IS NULL OR 1",
        olympics_schema, connections["olympics"], refiner)
    assert outcome.accepted
    assert outcome.sql == "SELECT full_name FROM person"
    assert outcome.tree == parse_sql(outcome.sql)


@pytest.mark.parametrize("sql", [
    "SELECT full_name FROM person WHERE date('2020-01-01') > '2019'",
    "SELECT strftime('%Y', '2020-01-01'), full_name FROM person",
    "SELECT full_name FROM person WHERE full_name <> 'now'",
])
def test_fixed_dates_and_other_now_literals_ground(connections, olympics_schema, sql):
    outcome = refine_until_valid("who", sql, olympics_schema, connections["olympics"],
                                 lambda q, s, sc, fb: s, max_attempts=1)
    assert outcome.accepted, outcome.reason


@pytest.mark.parametrize("sql,clock", [
    ("SELECT date() FROM author", "date"),
    ("SELECT time() FROM author", "time"),
    ("SELECT datetime() FROM author", "datetime"),
    ("SELECT julianday() FROM author", "julianday"),
    ("SELECT unixepoch() FROM author", "unixepoch"),
    ("SELECT strftime('%s') FROM author", "strftime"),
    ("SELECT date(CAST('now' AS TEXT)) FROM author", "date"),
    ("SELECT date(lower('NOW')) FROM author", "date"),
    ("SELECT timediff('now', '2020-01-01') FROM author", "timediff"),
])
def test_clock_reads_without_a_bare_now_argument_are_refused(library_schema, sql, clock):
    # SQLite reads an omitted time-value as 'now', so each returns the current time
    reason = harness._grounding_problem(sql, library_schema)[0]
    assert reason == f"nondeterministic: {clock}('now')"


@given(st.lists(st.tuples(st.integers(-3, 3)), min_size=0, max_size=5))
def test_results_equivalent_transitive_on_unordered(rows):
    a, b, c = rs(rows), rs(list(reversed(rows))), rs(sorted(rows))
    if results_equivalent(a, b) and results_equivalent(b, c):
        assert results_equivalent(a, c)
