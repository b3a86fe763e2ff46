import json
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import fixtures
from fixtures import STAGE_SQL_0, STAGE_SQL_1
from sqlgrow import gateway as gateway_module
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
from sqlgrow.operators import OperatorId, analyze
from sqlgrow.parser import parse_sql
from sqlgrow.pipeline import RunConfig, run_full
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


def test_a_binding_that_holds_a_placeholder_goes_in_verbatim(olympics_schema):
    bindings = {**bindings_for("teach", olympics_schema),
                "EVIDENCE": "EV", "QUESTION": "What is {EVIDENCE}?"}
    rendered = render_template("teach", bindings)
    assert "What is {EVIDENCE}?" in rendered and "EV" in rendered


def analysis_of(sql, schema):
    return analyze(parse_sql(sql), schema)


def test_mock_expansion_contract(gateway, olympics_schema, connections):
    result = gateway.generate_expansion(
        "Who is the heaviest athlete?", "", STAGE_SQL_0,
        db=connections["olympics"], seed=5,
        analysis=analysis_of(STAGE_SQL_0, olympics_schema))
    assert result.question.startswith("Rephrased: ")
    ast = parse_sql(result.sql)
    assert resolve_references(ast, olympics_schema).unresolved == []
    # one logic rewrite applied: strictly more tokens than the seed
    assert extract_features(ast).tokens > extract_features(parse_sql(STAGE_SQL_0)).tokens


def test_mock_evolution_join_adds_join(gateway, olympics_schema, connections):
    before = extract_features(parse_sql(STAGE_SQL_1)).joins
    result = gateway.generate_evolution(
        "Who won the most medals?", "", STAGE_SQL_1,
        OperatorId.JOIN, db=connections["olympics"], seed=1,
        analysis=analysis_of(STAGE_SQL_1, olympics_schema))
    assert extract_features(parse_sql(result.sql)).joins == before + 1


def test_mock_evolution_set_produces_setop_root(gateway, olympics_schema, connections):
    sql = "SELECT full_name FROM person WHERE weight > 60"
    result = gateway.generate_evolution(
        "Who?", "", sql, OperatorId.SET,
        db=connections["olympics"], seed=2, analysis=analysis_of(sql, olympics_schema))
    assert parse_sql(result.sql).kind == "setop"


def test_mock_determinism(gateway, olympics_schema, connections):
    args = ("Who?", "", STAGE_SQL_1, OperatorId.FUNC)
    kwargs = {"db": connections["olympics"], "seed": 9,
              "analysis": analysis_of(STAGE_SQL_1, olympics_schema)}
    a = gateway.generate_evolution(*args, **kwargs)
    b = gateway.generate_evolution(*args, **kwargs)
    assert a == b


def test_mock_refine_fixes_identifier(gateway, olympics_schema, connections):
    fb = ExecutionFeedback(ok=False, error="no such column: full_nam")
    fixed = gateway.refine_sql("who", "SELECT full_nam FROM person",
                               olympics_schema, fb, connections["olympics"])
    assert fixed == "SELECT full_name FROM person"
    # edit-distance oracle: full_name is the nearest schema identifier
    from sqlgrow.gateway import _edit_distance
    pool = ["full_name", "weight", "person", "id"]
    assert min(pool, key=lambda n: _edit_distance("full_nam", n)) == "full_name"


def test_mock_refine_fixes_identifier_tokens_only(gateway, olympics_schema, connections):
    # a string literal holding the misspelled name, and a longer name that
    # holds it, are not the name SQLite reported
    fb = ExecutionFeedback(ok=False, error="no such column: full_nam")
    draft = "SELECT full_nam FROM person WHERE full_name <> 'full_nam' AND full_nam <> 'x'"
    assert gateway.refine_sql("who", draft, olympics_schema, fb,
                              connections["olympics"]) == (
        "SELECT full_name FROM person WHERE full_name <> 'full_nam' AND full_name <> 'x'")


def test_mock_refine_fixes_quoted_identifier(gateway, olympics_schema, connections):
    # qualified, so SQLite reports the name instead of reading a string
    draft = 'SELECT p."full_nam" FROM person AS p'
    fb = execute_sql(connections["olympics"], draft)
    assert fb.error == "no such column: p.full_nam"
    fixed = gateway.refine_sql("who", draft, olympics_schema, fb, connections["olympics"])
    assert fixed == "SELECT p.full_name FROM person AS p"
    assert execute_sql(connections["olympics"], fixed).row_count >= 1


def test_mock_refine_repairs_table_then_column(gateway, olympics_schema, connections):
    conn = connections["olympics"]
    outcome = harness.refine_until_valid(
        "who", "SELECT p.full_nam FROM persn AS p", olympics_schema, conn,
        lambda q, s, sc, fb: gateway.refine_sql(q, s, sc, fb, db=conn), max_attempts=3)
    assert outcome.accepted and outcome.attempts == 3
    assert outcome.sql == "SELECT p.full_name FROM person AS p"


def test_mock_refine_repairs_the_name_grounding_reports(gateway, olympics_schema,
                                                         connections):
    # SQLite reads an unknown double-quoted name as a string, so the query
    # runs; grounding names the column it cannot resolve
    conn = connections["olympics"]
    outcome = harness.refine_until_valid(
        "who", 'SELECT "full_nam" FROM person', olympics_schema, conn,
        lambda q, s, sc, fb: gateway.refine_sql(q, s, sc, fb, db=conn), max_attempts=3)
    assert outcome.accepted and outcome.attempts == 2
    assert outcome.sql == "SELECT full_name FROM person"


def test_mock_refine_identity_when_feedback_fine(gateway, olympics_schema, connections):
    fb = ExecutionFeedback(ok=True, row_count=3)
    sql = "SELECT full_name FROM person"
    assert gateway.refine_sql("who", sql, olympics_schema, fb, connections["olympics"]) == sql


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
    # the lookup fails and the draft comes back unchanged
    monkeypatch.setattr(harness, "MAX_VM_STEPS", 0)
    monkeypatch.setattr(harness, "_PROGRESS_OPCODES", 1)
    fb = ExecutionFeedback(ok=True, row_count=0)
    sql = ("SELECT full_name FROM person "
           "WHERE weight > 50 AND full_name = 'Nobody Here'")
    assert gateway.refine_sql("who", sql, olympics_schema, fb,
                              db=connections["olympics"]) == sql


@pytest.mark.parametrize("where, repaired", [
    # past 64 bits, the literal is a REAL to SQLite; no weight is that
    ("weight > 50 AND weight = 99999999999999999999", "WHERE weight > 50"),
    ("weight > 50 AND weight = NULL", "WHERE weight > 50"),
    # TRUE is 1 to SQLite, and person 1 exists: nothing to drop
    ("weight < 0 AND id = TRUE", None),
])
def test_mock_refine_looks_literals_up_as_sqlite_reads_them(
        gateway, olympics_schema, connections, where, repaired):
    conn = connections["olympics"]
    sql = f"SELECT full_name FROM person WHERE {where}"
    fb = execute_sql(conn, sql)
    assert fb.ok and fb.row_count == 0
    expected = f"SELECT full_name FROM person {repaired}" if repaired else sql
    assert gateway.refine_sql("who", sql, olympics_schema, fb, db=conn) == expected


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


@pytest.mark.parametrize("question", ["Who wrote ``` that", "Who ```` wrote `` that ```"])
def test_mock_teacher_keeps_fences_out_of_its_trace(gateway, olympics_schema, question):
    candidates = gateway.generate_cot_candidates(
        question, "", olympics_schema, 2, gold_sql="SELECT 1")
    assert [c.predicted_sql for c in candidates] == ["SELECT 1", "SELECT 1 LIMIT 0"]
    assert "```" not in candidates[0].reasoning.split("```sql")[0]


def test_mock_teacher_needs_the_gold_sql(gateway, olympics_schema):
    with pytest.raises(ValueError, match="gold SQL"):
        gateway.generate_cot_candidates("who", "", olympics_schema, 2, gold_sql="")


def test_mock_strategist_scores_nothing(gateway, olympics_schema):
    assert gateway.score_feasibility_llm("who", STAGE_SQL_0, olympics_schema) == {}


_ROLE_PARSERS = {
    "generate_expansion": "_parse_expansion",
    "generate_evolution": "_parse_expansion",
    "refine_sql": "_parse_refined",
    "score_feasibility_llm": "_parse_scores",
    "generate_cot_candidates": "_parse_cot",
}


def test_every_mock_call_takes_the_one_path(monkeypatch, tmp_path, db_dir):
    # each public role call makes one _with_retries call and one parse of
    # the mock's reply texts: a mock never fails, so nothing is retried
    calls, retried, parsed, active = Counter(), Counter(), Counter(), []
    teacher = []

    def counted_method(name, method):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            active.append(name)
            try:
                result = method(self, *args, **kwargs)
            finally:
                active.pop()
            if name == "generate_cot_candidates":
                teacher.append((args[3], args[4], result))
            return result
        return wrapper

    def counted_parser(name, parse):
        def wrapper(*args):
            parsed[name] += 1
            return parse(*args)
        return wrapper

    real_retries = gateway_module._with_retries

    def counted_retries(call):
        retried[active[-1]] += 1
        return real_retries(call)

    for method in _ROLE_PARSERS:
        monkeypatch.setattr(LlmGateway, method,
                            counted_method(method, getattr(LlmGateway, method)))
    for parser in set(_ROLE_PARSERS.values()):
        monkeypatch.setattr(gateway_module, parser,
                            counted_parser(parser, getattr(gateway_module, parser)))
    monkeypatch.setattr(gateway_module, "_with_retries", counted_retries)

    cfg = RunConfig(seeds=str(fixtures.write_seed_file(tmp_path / "seeds.json")),
                    db_dir=str(db_dir), out_dir=str(tmp_path / "out"), rounds=1,
                    global_seed=42)
    run_full(cfg)

    assert retried == calls
    for method, parser in _ROLE_PARSERS.items():
        assert calls[method] > 0, method
        sharing = [m for m, p in _ROLE_PARSERS.items() if p == parser]
        assert parsed[parser] == sum(calls[m] for m in sharing), parser
    assert len(teacher) == calls["generate_cot_candidates"]
    for n, gold_sql, candidates in teacher:
        assert n == cfg.cot_n and len(candidates) == n
        assert candidates[0].predicted_sql == gold_sql


# -- response parsing ---------------------------------------------------------

def test_parse_expansion_happy_path():
    text = 'Sure! {"question": "Q", "evidence": "", "gold_sql": "SELECT 1"} done'
    result = _parse_expansion(text)
    assert result == ExpansionResult("Q", "", "SELECT 1")
    assert _parse_expansion('{"question": "Q", "gold_sql": "SELECT 1"}') == result


def test_parse_expansion_missing_gold_sql():
    with pytest.raises(ResponseFormatError):
        _parse_expansion('{"question": "Q"}')


# a field that is not text is refused, not turned into text such as "None"
@pytest.mark.parametrize("text", [
    '{"question": "Q", "gold_sql": " "}',
    '{"gold_sql": "SELECT 1"}',
    '{"question": null, "evidence": "", "gold_sql": "SELECT 1"}',
    '{"question": "", "evidence": "", "gold_sql": "SELECT 1"}',
    '{"question": 7, "evidence": "", "gold_sql": "SELECT 1"}',
    '{"question": "Q", "evidence": null, "gold_sql": "SELECT 1"}',
    '{"question": "Q", "evidence": ["e"], "gold_sql": "SELECT 1"}',
    '{"question": "Q", "evidence": "", "gold_sql": null}',
])
def test_parse_expansion_blank_gold_sql_or_no_question(text):
    with pytest.raises(ResponseFormatError):
        _parse_expansion(text)


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


# the lazy form of the code-block pattern, kept as the reference
_LAZY_CODE_BLOCK = re.compile(r"```(?:sql)?\s*(.*?)```", re.DOTALL | re.IGNORECASE)


@settings(max_examples=1000)
@example("```x````q```l```")  # a closing fence followed by more backticks
@example("```ſql x```")  # IGNORECASE matches the long s to s
@given(st.lists(st.sampled_from(["```", "`", "sql", "SQL", "ſ", "q", "l", " ", "\n", "x"]),
                max_size=16).map("".join))
def test_last_code_block_matches_the_regular_expression(text):
    blocks = _LAZY_CODE_BLOCK.findall(text)
    assert _last_code_block(text) == (blocks[-1].strip() if blocks else "")


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
        {"operator": "Logical Clause Expansion", "score": True, "justification": "bool"},
        {"operator": "Set Composition", "score": False, "justification": "bool"},
        {"operator": "Nesting Evolution", "score": "0.5", "justification": "text"},
    ])
    backend = StubBackend([payload])
    gw = LlmGateway(backends={"strategize": backend})
    scores = gw.score_feasibility_llm("q", STAGE_SQL_0, olympics_schema)
    # out-of-range, non-numeric and unknown entries dropped; missing operators fall back
    # to the rule-based score at the call site
    assert set(scores) == {OperatorId.OP}


def test_live_expansion_parses_json_response(olympics_schema, connections):
    backend = StubBackend([
        'prose {"question": "New Q", "evidence": "", "gold_sql": "SELECT 1"} tail'
    ])
    gw = LlmGateway(backends={"expand": backend})
    result = gw.generate_expansion("old", "", STAGE_SQL_0, connections["olympics"],
                                   analysis=analysis_of(STAGE_SQL_0, olympics_schema))
    assert result.question == "New Q"
    assert result.sql == "SELECT 1"


def test_live_evolution_embeds_operator_instruction(olympics_schema, connections):
    backend = StubBackend([
        '{"question": "Q", "evidence": "", "gold_sql": "SELECT 1"}'
    ])
    gw = LlmGateway(backends={"evolve": backend})
    gw.generate_evolution("q", "", STAGE_SQL_0, OperatorId.SET, connections["olympics"],
                          analysis=analysis_of(STAGE_SQL_0, olympics_schema))
    assert "UNION, INTERSECT, EXCEPT" in backend.prompts[0]


def test_live_refine_reads_code_block(olympics_schema, connections):
    backend = StubBackend(["thinking...\n```sql\nSELECT 42\n```"])
    gw = LlmGateway(backends={"refine": backend})
    fb = ExecutionFeedback(ok=False, error="boom")
    assert gw.refine_sql("q", "SELECT 41", olympics_schema, fb,
                         connections["olympics"]) == "SELECT 42"


def test_live_expansion_retries_malformed_then_parses(olympics_schema, connections):
    backend = StubBackend([
        "no json here at all",
        '{"question": "fixed", "evidence": "", "gold_sql": "SELECT 2"}',
    ])
    gw = LlmGateway(backends={"expand": backend})
    result = gw.generate_expansion("old", "", STAGE_SQL_0, connections["olympics"],
                                   analysis=analysis_of(STAGE_SQL_0, olympics_schema))
    assert result.sql == "SELECT 2"
    assert len(backend.prompts) == 2


def test_live_expansion_with_a_null_question_is_retried(olympics_schema, connections):
    backend = StubBackend([
        '{"question": null, "evidence": "", "gold_sql": "SELECT 1"}',
        '{"question": "Q", "evidence": "", "gold_sql": "SELECT 2"}',
    ])
    gw = LlmGateway(backends={"expand": backend})
    result = gw.generate_expansion("old", "", STAGE_SQL_0, connections["olympics"],
                                   analysis=analysis_of(STAGE_SQL_0, olympics_schema))
    assert result == ExpansionResult("Q", "", "SELECT 2")
    assert len(backend.prompts) == 2


def test_live_expansion_gives_up_after_parse_budget(olympics_schema, connections):
    backend = StubBackend(["junk", "more junk", "still junk"])
    gw = LlmGateway(backends={"expand": backend})
    with pytest.raises(ResponseFormatError):
        gw.generate_expansion("old", "", STAGE_SQL_0, connections["olympics"],
                              analysis=analysis_of(STAGE_SQL_0, olympics_schema))
    assert len(backend.prompts) == 3
