import json
import re

import pytest

from fixtures import STAGE_SQL_0, STAGE_SQL_1
from sqlgrow.errors import ResponseFormatError
from sqlgrow.features import extract_features
from sqlgrow.gateway import (
    CotCandidate,
    ExpansionResult,
    LlmGateway,
    _first_json,
    _last_code_block,
    _parse_expansion,
)
from sqlgrow import harness
from sqlgrow.harness import ExecutionFeedback, execute_sql
from sqlgrow.operators import OperatorId
from sqlgrow.parser import parse_sql
from sqlgrow.prompts import TEMPLATES, placeholders, render_template
from sqlgrow.resolve import resolve_references
from sqlgrow.schema import render_schema_prompt

RESIDUAL = re.compile(r"\{[A-Z][A-Z_]*\}")


@pytest.fixture()
def gateway():
    return LlmGateway()  # no backends: every role is mocked


def bindings_for(template_id, schema):
    values = {
        "DATABASE_SCHEMA": render_schema_prompt(schema),
        "EVIDENCE": "none",
        "QUESTION": "Who is the heaviest athlete?",
        "GOLD_SQL": STAGE_SQL_0,
        "OPERATION": "add a join",
        "DRAFT_SQL": STAGE_SQL_0,
        "FEEDBACK": "Execution succeeded: 1 row(s)",
    }
    return {k: values[k] for k in placeholders(template_id)}


@pytest.mark.parametrize("template_id", sorted(TEMPLATES))
def test_template_fidelity(template_id, olympics_schema):
    rendered = render_template(template_id, bindings_for(template_id, olympics_schema))
    assert not RESIDUAL.findall(rendered)
    assert "CREATE TABLE" in rendered or "DATABASE_SCHEMA" not in placeholders(template_id)


def test_template_missing_binding_rejected():
    with pytest.raises(ResponseFormatError):
        render_template("expand", {"QUESTION": "q"})


def test_mock_expansion_contract(gateway, olympics_schema, connections):
    result = gateway.generate_expansion(
        "Who is the heaviest athlete?", "", STAGE_SQL_0,
        olympics_schema, db=connections["olympics"], seed=5)
    assert result.question.startswith("Rephrased: ")
    ast = parse_sql(result.sql)
    assert resolve_references(ast, olympics_schema).unresolved == []
    # one logic rewrite applied: strictly more tokens than the seed
    assert extract_features(ast).tokens > extract_features(parse_sql(STAGE_SQL_0)).tokens


def test_mock_evolution_join_adds_join(gateway, olympics_schema, connections):
    before = extract_features(parse_sql(STAGE_SQL_1)).joins
    result = gateway.generate_evolution(
        "Who won the most medals?", "", STAGE_SQL_1,
        olympics_schema, OperatorId.JOIN, db=connections["olympics"], seed=1)
    assert extract_features(parse_sql(result.sql)).joins == before + 1


def test_mock_evolution_set_produces_setop_root(gateway, olympics_schema, connections):
    result = gateway.generate_evolution(
        "Who?", "", "SELECT full_name FROM person WHERE weight > 60",
        olympics_schema, OperatorId.SET, db=connections["olympics"], seed=2)
    assert parse_sql(result.sql).kind == "setop"


def test_mock_determinism(gateway, olympics_schema, connections):
    args = ("Who?", "", STAGE_SQL_1, olympics_schema, OperatorId.FUNC)
    a = gateway.generate_evolution(*args, db=connections["olympics"], seed=9)
    b = gateway.generate_evolution(*args, db=connections["olympics"], seed=9)
    assert a == b


def test_mock_refine_fixes_identifier(gateway, olympics_schema):
    fb = ExecutionFeedback(ok=False, error="no such column: full_nam")
    fixed = gateway.refine_sql("who", "SELECT full_nam FROM person",
                               olympics_schema, fb)
    assert fixed == "SELECT full_name FROM person"
    # edit-distance oracle: full_name is the nearest schema identifier
    from sqlgrow.gateway import _edit_distance
    pool = ["full_name", "weight", "person", "id"]
    assert min(pool, key=lambda n: _edit_distance("full_nam", n)) == "full_name"


def test_mock_refine_relaxes_text_equality(gateway, olympics_schema):
    fb = ExecutionFeedback(ok=True, row_count=0)
    relaxed = gateway.refine_sql(
        "who", "SELECT full_name FROM person WHERE full_name = 'Alise Swift'",
        olympics_schema, fb)
    assert "LIKE '%Alise Swift%'" in relaxed


def test_mock_refine_identity_when_feedback_fine(gateway, olympics_schema):
    fb = ExecutionFeedback(ok=True, row_count=3)
    sql = "SELECT full_name FROM person"
    assert gateway.refine_sql("who", sql, olympics_schema, fb) == sql


def test_mock_refine_drops_sampled_out_literal(gateway, olympics_schema, connections):
    fb = ExecutionFeedback(ok=True, row_count=0)
    sql = ("SELECT full_name FROM person "
           "WHERE weight > 50 AND full_name = 'Nobody Here'")
    repaired = gateway.refine_sql("who", sql, olympics_schema, fb,
                                  db=connections["olympics"])
    assert "Nobody Here" not in repaired
    assert "weight > 50" in repaired
    fb2 = execute_sql(connections["olympics"], repaired)
    assert fb2.ok and fb2.row_count >= 1


def test_mock_refine_lookup_over_the_step_budget_drops_nothing(
        gateway, olympics_schema, connections, monkeypatch):
    # the dead-literal lookup runs under the harness's step budget; over it,
    # the lookup fails and the refiner falls back to relaxing the equality
    monkeypatch.setattr(harness, "MAX_VM_STEPS", 0)
    monkeypatch.setattr(harness, "_PROGRESS_OPCODES", 1)
    fb = ExecutionFeedback(ok=True, row_count=0)
    sql = ("SELECT full_name FROM person "
           "WHERE weight > 50 AND full_name = 'Nobody Here'")
    repaired = gateway.refine_sql("who", sql, olympics_schema, fb,
                                  db=connections["olympics"])
    assert "Nobody Here" in repaired and "LIKE" in repaired


def test_mock_cot_first_candidate_is_gold(gateway, olympics_schema):
    candidates = gateway.generate_cot_candidates(
        "who", "", olympics_schema, 4, gold_sql=STAGE_SQL_0)
    assert len(candidates) == 4
    assert candidates[0].predicted_sql == STAGE_SQL_0
    assert candidates[0].reasoning
    for extra in candidates[1:]:
        assert extra.predicted_sql != STAGE_SQL_0


def test_mock_cot_single_candidate(gateway, olympics_schema):
    candidates = gateway.generate_cot_candidates(
        "who", "", olympics_schema, 1, gold_sql="SELECT 1")
    assert len(candidates) == 1
    assert candidates[0].predicted_sql == "SELECT 1"


# -- response parsing ---------------------------------------------------------

def test_parse_expansion_happy_path():
    text = 'Sure! {"question": "Q", "evidence": "", "gold_sql": "SELECT 1"} done'
    result = _parse_expansion(text)
    assert result == ExpansionResult("Q", "", "SELECT 1")


def test_parse_expansion_missing_gold_sql():
    with pytest.raises(ResponseFormatError):
        _parse_expansion('{"question": "Q"}')


def test_first_json_object_skips_prose_braces():
    text = "ignore {not json} ... {\"a\": 1}"
    assert _first_json(text, dict) == {"a": 1}


def test_first_json_array():
    text = 'header [1, 2, {"x": 3}] trailer'
    assert _first_json(text, list) == [1, 2, {"x": 3}]


def test_first_json_skips_values_of_the_other_kind():
    assert _first_json('[1] then {"a": [2]}', dict) == {"a": [2]}
    assert _first_json('{"a": 1} then [3]', list) == [3]


def test_first_json_error_names_the_kind():
    with pytest.raises(ResponseFormatError, match="no JSON object found"):
        _first_json("[1, 2] {broken", dict)
    with pytest.raises(ResponseFormatError, match="no JSON array found"):
        _first_json("{} [broken", list)


def test_last_code_block_extraction():
    text = "steps...\n```sql\nSELECT 1\n```\nmore\n```sql\nSELECT 2\n```"
    assert _last_code_block(text) == "SELECT 2"


# -- live-backend paths via stubs ----------------------------------------------

class StubBackend:
    """Captures prompts and returns scripted responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def complete(self, messages, decoding):
        self.prompts.append(messages[-1]["content"])
        return [self.responses.pop(0)]


def test_strategize_parses_f4_array(olympics_schema):
    payload = json.dumps([
        {"operator": "Functional Wrapping", "score": 0.9, "justification": "cols"},
        {"operator": "Operator Mutation", "score": 0.2, "justification": "few"},
        {"operator": "Logical Clause Expansion", "score": 0.8, "justification": ""},
        {"operator": "Relational Expansion", "score": 0.7, "justification": ""},
        {"operator": "Nesting Evolution", "score": 0.1, "justification": ""},
        {"operator": "Set Composition", "score": 0.6, "justification": ""},
    ])
    backend = StubBackend(["Here you go:\n" + payload])
    gw = LlmGateway(backends={"strategize": backend})
    scores = gw.score_feasibility_llm("q", STAGE_SQL_0, olympics_schema)
    assert len(scores) == 6
    assert scores[OperatorId.FUNC] == 0.9
    assert "Database Schema" in backend.prompts[0]
    assert not RESIDUAL.findall(backend.prompts[0])


def test_strategize_partial_and_out_of_range_entries(olympics_schema):
    payload = json.dumps([
        {"operator": "Functional Wrapping", "score": 1.2, "justification": "too big"},
        {"operator": "Operator Mutation", "score": 0.4, "justification": "ok"},
        {"operator": "Unknown Thing", "score": 0.5, "justification": "ignored"},
    ])
    backend = StubBackend([payload])
    gw = LlmGateway(backends={"strategize": backend})
    scores = gw.score_feasibility_llm("q", STAGE_SQL_0, olympics_schema)
    # out-of-range and unknown entries dropped; missing operators fall back
    # to the rule-based score at the call site
    assert set(scores) == {OperatorId.OP}


def test_live_expansion_parses_json_response(olympics_schema):
    backend = StubBackend([
        'prose {"question": "New Q", "evidence": "", "gold_sql": "SELECT 1"} tail'
    ])
    gw = LlmGateway(backends={"expand": backend})
    result = gw.generate_expansion("old", "", STAGE_SQL_0, olympics_schema)
    assert result.question == "New Q"
    assert result.sql == "SELECT 1"


def test_live_evolution_embeds_operator_instruction(olympics_schema):
    backend = StubBackend([
        '{"question": "Q", "evidence": "", "gold_sql": "SELECT 1"}'
    ])
    gw = LlmGateway(backends={"evolve": backend})
    gw.generate_evolution("q", "", STAGE_SQL_0, olympics_schema, OperatorId.SET)
    assert "UNION, INTERSECT, EXCEPT" in backend.prompts[0]


def test_live_refine_reads_code_block(olympics_schema):
    backend = StubBackend(["thinking...\n```sql\nSELECT 42\n```"])
    gw = LlmGateway(backends={"refine": backend})
    fb = ExecutionFeedback(ok=False, error="boom")
    assert gw.refine_sql("q", "SELECT 41", olympics_schema, fb) == "SELECT 42"


def test_live_expansion_retries_malformed_then_parses(olympics_schema):
    backend = StubBackend([
        "no json here at all",
        '{"question": "fixed", "evidence": "", "gold_sql": "SELECT 2"}',
    ])
    gw = LlmGateway(backends={"expand": backend})
    result = gw.generate_expansion("old", "", STAGE_SQL_0, olympics_schema)
    assert result.sql == "SELECT 2"
    assert len(backend.prompts) == 2


def test_live_expansion_gives_up_after_parse_budget(olympics_schema):
    backend = StubBackend(["junk", "more junk", "still junk"])
    gw = LlmGateway(backends={"expand": backend})
    with pytest.raises(ResponseFormatError):
        gw.generate_expansion("old", "", STAGE_SQL_0, olympics_schema)
    assert len(backend.prompts) == 3
