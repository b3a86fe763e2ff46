import pytest

from fixtures import STAGE_SQL_0
from sqlgrow import cot, harness
from sqlgrow.cot import CotDeferral, CotDiscard, CotRecord, synthesize_cot
from sqlgrow.errors import TransportError
from sqlgrow.gateway import CotCandidate, LlmGateway
from sqlgrow.harness import collect_result, results_equivalent
from sqlgrow.instances import QueryInstance


def make_instance(sql, iid="q1"):
    return QueryInstance(id=iid, schema_id="olympics", question="who?",
                         evidence="", sql=sql, stage="seed")


class ScriptedTeacher:
    """Returns a fixed candidate list; used to force specific verdicts."""

    def __init__(self, candidates):
        self.candidates = candidates

    def generate_cot_candidates(self, question, evidence, schema, n, gold_sql=""):
        return self.candidates[:n]


class FailingTeacher:
    def generate_cot_candidates(self, *args, **kwargs):
        raise TransportError("backend down")


def test_mock_teacher_first_candidate_wins(connections, olympics_schema):
    gateway = LlmGateway()
    outcome = synthesize_cot(make_instance(STAGE_SQL_0),
                             connections["olympics"], gateway,
                             olympics_schema, n=4)
    assert isinstance(outcome, CotRecord)
    assert outcome.attempts_used == 1
    assert outcome.verified_sql == STAGE_SQL_0


def test_all_invalid_candidates_discarded(connections, olympics_schema):
    teacher = ScriptedTeacher([
        CotCandidate("bad one", "SELECT nope FROM nothing"),
        CotCandidate("bad two", "SELEC broken"),
        CotCandidate("bad three", "SELECT * FROM missing"),
        CotCandidate("bad four", "SELECT ("),
    ])
    outcome = synthesize_cot(make_instance(STAGE_SQL_0),
                             connections["olympics"], teacher,
                             olympics_schema, n=4)
    assert isinstance(outcome, CotDiscard)
    assert len(outcome.failure_reasons) == 4
    assert all("execution error" in r for r in outcome.failure_reasons)


def test_third_candidate_correct(connections, olympics_schema):
    gold = "SELECT full_name FROM person WHERE weight > 90"
    teacher = ScriptedTeacher([
        CotCandidate("wrong rows", "SELECT full_name FROM person WHERE weight < 60"),
        CotCandidate("engine error", "SELECT broken FROM person"),
        CotCandidate("right", "SELECT full_name FROM person WHERE weight >= 91"),
        CotCandidate("also right but later", gold),
    ])
    outcome = synthesize_cot(make_instance(gold), connections["olympics"],
                             teacher, olympics_schema, n=4)
    assert isinstance(outcome, CotRecord)
    assert outcome.attempts_used == 3
    assert outcome.trace == "right"


def test_transport_failure_defers(connections, olympics_schema):
    outcome = synthesize_cot(make_instance(STAGE_SQL_0),
                             connections["olympics"], FailingTeacher(),
                             olympics_schema, n=4)
    assert isinstance(outcome, CotDeferral)


def test_kept_record_reverifies(connections, olympics_schema):
    gateway = LlmGateway()
    inst = make_instance(STAGE_SQL_0)
    outcome = synthesize_cot(inst, connections["olympics"], gateway,
                             olympics_schema, n=4)
    conn = connections["olympics"]
    assert results_equivalent(collect_result(conn, outcome.verified_sql),
                              collect_result(conn, inst.sql))


def test_gold_runs_once_for_all_differing_candidates(
        connections, olympics_schema, monkeypatch):
    gold = "SELECT full_name FROM person WHERE weight > 90"
    runs = []
    monkeypatch.setattr(cot, "collect_result",
                        lambda conn, sql: runs.append(sql) or collect_result(conn, sql))
    teacher = ScriptedTeacher([
        CotCandidate("wrong rows", "SELECT full_name FROM person WHERE weight < 60"),
        CotCandidate("engine error", "SELECT broken FROM person"),
        CotCandidate("right", "SELECT full_name FROM person WHERE weight >= 91"),
    ])
    outcome = synthesize_cot(make_instance(gold), connections["olympics"],
                             teacher, olympics_schema, n=4)
    assert isinstance(outcome, CotRecord) and outcome.attempts_used == 3
    assert runs == [gold] + [c.predicted_sql for c in teacher.candidates]


def test_gold_that_fails_its_full_read_is_discarded(
        connections, olympics_schema, monkeypatch):
    # grounding reads a handful of rows within the step budget; CoT's full
    # read of the same gold runs past it
    monkeypatch.setattr(harness, "MAX_VM_STEPS", harness._PROGRESS_OPCODES)
    gold = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
            "WHERE x < 5000) SELECT x FROM c")
    assert harness.execute_sql(connections["olympics"], gold).ok
    teacher = ScriptedTeacher([CotCandidate("other", "SELECT 1"),
                               CotCandidate("gold", gold)])
    outcome = synthesize_cot(make_instance(gold), connections["olympics"],
                             teacher, olympics_schema, n=4)
    assert outcome == CotDiscard("q1", ("gold SQL: execution error",))


def test_a_gold_that_returns_no_rows_is_discarded(connections, olympics_schema):
    gold = "SELECT full_name FROM person WHERE weight < 0"
    teacher = ScriptedTeacher([CotCandidate("other", "SELECT full_name FROM person")])
    outcome = synthesize_cot(make_instance(gold), connections["olympics"],
                             teacher, olympics_schema, n=4)
    assert outcome == CotDiscard("q1", ("gold SQL no longer returns rows",))


def _counting_to(n):
    return (f"WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
            f"WHERE x < {n}) SELECT x FROM c")


def test_results_past_max_rows_are_not_compared(connections):
    conn = connections["olympics"]
    longer = collect_result(conn, _counting_to(harness.MAX_ROWS + 1))
    shorter = collect_result(conn, f"{_counting_to(harness.MAX_ROWS + 1)} WHERE x <= 1000")
    assert longer.too_large and not shorter.too_large
    assert len(longer.rows) == harness.MAX_ROWS + 1 and len(shorter.rows) == harness.MAX_ROWS
    assert not results_equivalent(longer, shorter)
    assert not results_equivalent(longer, longer)
    assert results_equivalent(shorter, collect_result(conn, _counting_to(harness.MAX_ROWS)))


def test_a_gold_past_max_rows_is_discarded(connections, olympics_schema):
    gold = _counting_to(harness.MAX_ROWS + 1)
    teacher = ScriptedTeacher([CotCandidate("first 1000", f"{gold} WHERE x <= 1000")])
    outcome = synthesize_cot(make_instance(gold), connections["olympics"],
                             teacher, olympics_schema, n=4)
    assert outcome == CotDiscard("q1", ("gold SQL: result over 1000 rows",))


def test_a_candidate_past_max_rows_fails(connections, olympics_schema):
    gold = _counting_to(harness.MAX_ROWS)
    teacher = ScriptedTeacher([
        CotCandidate("one too many", _counting_to(harness.MAX_ROWS + 1)),
        CotCandidate("right", f"{_counting_to(harness.MAX_ROWS + 1)} WHERE x <= 1000"),
    ])
    outcome = synthesize_cot(make_instance(gold), connections["olympics"],
                             teacher, olympics_schema, n=4)
    assert isinstance(outcome, CotRecord) and outcome.attempts_used == 2
    teacher.candidates.pop()
    outcome = synthesize_cot(make_instance(gold), connections["olympics"],
                             teacher, olympics_schema, n=4)
    assert outcome == CotDiscard("q1", ("candidate 1: result over 1000 rows",))
