"""The names the benchmark wraps exist, and callers reach them at call time.

``perfbench/spans.py`` times each layer by rebinding the functions listed in
its ``LAYERS`` table. A renamed function would only fail the separate
benchmark suite, so this reads the table (without importing the benchmark)
and resolves every entry against the package. It also reads the hooks of
``_ON_RESULT``, which count from the value a wrapped function returns, and
checks that every ``result.<attr>`` they read is a field or property of
that value's type. The counts the benchmark takes from those spans are real
work only if the callers look the names up in their module when they call
them, which the other tests check by patching those names.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

import fixtures
from sqlgrow import cot, harness, operators, pipeline, scheduler
from sqlgrow.gateway import CotCandidate, LlmGateway
from sqlgrow.instances import QueryInstance

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


SPANS_TREE = ast.parse(SPANS.read_text())


def _assigned(name: str) -> ast.expr:
    for node in SPANS_TREE.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no {name} table in {SPANS}")


def _layers() -> dict:
    return ast.literal_eval(_assigned("LAYERS"))


WRAPPED = [pair for pairs in _layers().values() for pair in pairs]

# What each function with an ``_ON_RESULT`` hook that reads ``result.<attr>``
# returns, apart from None.
RETURNS = {
    "execute_sql": (harness.ExecutionFeedback,),
    "collect_result": (harness.ResultMultiset,),
    "refine_until_valid": (harness.RefinementOutcome,),
    "synthesize_cot": (cot.CotRecord, cot.CotDiscard, cot.CotDeferral),
}


def _reads_of_result(node, only=None):
    """Yields (attr, type names or None) for each ``result.<attr>`` under node.

    A read under ``if kind == "<Type>"`` is a read from that type only.
    """
    test = node.test if isinstance(node, ast.If) else None
    if isinstance(test, ast.Compare) and isinstance(test.ops[0], ast.Eq) \
            and isinstance(test.comparators[0], ast.Constant) \
            and isinstance(test.comparators[0].value, str):
        for child in node.body:
            yield from _reads_of_result(child, (test.comparators[0].value,))
        for child in node.orelse:
            yield from _reads_of_result(child, only)
        return
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "result":
        yield node.attr, only
    for child in ast.iter_child_nodes(node):
        yield from _reads_of_result(child, only)


def _result_reads():
    """(wrapped name, attr, type names or None) for each read of each hook."""
    table = _assigned("_ON_RESULT")
    functions = {n.name: n for n in SPANS_TREE.body if isinstance(n, ast.FunctionDef)}
    return [(key.value, attr, only)
            for key, hook in zip(table.keys, table.values)
            for attr, only in _reads_of_result(functions[hook.id])]


RESULT_READS = _result_reads()


def _members(cls) -> set:
    props = {n for n, v in vars(cls).items() if isinstance(v, property)}
    return set(cls._fields) | props


@pytest.mark.parametrize("wrapped,attr,only", RESULT_READS,
                         ids=[f"{w}.{a}" for w, a, _ in RESULT_READS])
def test_result_hooks_read_fields_of_the_returned_type(wrapped, attr, only):
    assert wrapped in RETURNS, f"{wrapped}: return type unknown to this test"
    types = [c for c in RETURNS[wrapped] if only is None or c.__name__ in only]
    assert types, f"{wrapped}: no returned type is named {only}"
    for cls in types:
        assert attr in _members(cls), f"{cls.__name__} has no field {attr!r}"


@pytest.mark.parametrize("owner,attr", WRAPPED, ids=[f"{o}.{a}" for o, a in WRAPPED])
def test_wrapped_function_exists(owner, attr):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    if class_name:
        target = getattr(target, class_name)
    assert callable(getattr(target, attr))


def _count_calls(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper; returns the list it appends to."""
    called = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        called.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return called


def test_run_full_looks_up_stage_functions_at_call_time(monkeypatch, tmp_path, db_dir):
    called = []
    for name in ("run_eqe", "run_oge"):
        original = getattr(pipeline, name)

        def traced(*args, _name=name, _original=original, **kwargs):
            called.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, traced)
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps([
        {"question": q, "SQL": sql, "db_id": "olympics"}
        for q, sql in fixtures.SEED_QUESTIONS["olympics"][:3]
    ]))
    pipeline.run_full(pipeline.RunConfig(
        seeds=str(seeds), db_dir=str(db_dir), out_dir=str(tmp_path / "out"),
        rounds=2))
    assert called == ["run_eqe", "run_oge", "run_oge"]


class _ScriptedTeacher:
    def __init__(self, sql):
        self.sql = sql

    def generate_cot_candidates(self, *args, **kwargs):
        return [CotCandidate("trace", self.sql)]


@pytest.mark.parametrize("candidate_sql,runs", [
    ("SELECT full_name FROM person WHERE weight > 90", 0),
    ("SELECT p.full_name FROM person AS p WHERE p.weight > 90", 2),
])
def test_cot_runs_the_gold_once_through_collect_result(
        monkeypatch, connections, olympics_schema, candidate_sql, runs):
    called = _count_calls(monkeypatch, cot, "collect_result")
    gold = QueryInstance(id="q1", schema_id="olympics", question="who?", evidence="",
                         sql="SELECT full_name FROM person WHERE weight > 90",
                         stage="seed")
    outcome = cot.synthesize_cot(gold, connections["olympics"],
                                 _ScriptedTeacher(candidate_sql), olympics_schema, n=1)
    assert isinstance(outcome, cot.CotRecord)
    assert len(called) == runs


def test_run_oge_resolves_each_parent_once_for_its_operators(
        monkeypatch, tmp_path, db_dir):
    repo = pipeline.SchemaRepo(db_dir)
    try:
        cfg = pipeline.RunConfig(global_seed=3)
        seed_file = tmp_path / "seeds.json"
        seed_file.write_text(json.dumps([
            {"question": q, "SQL": sql, "db_id": "olympics"}
            for q, sql in fixtures.SEED_QUESTIONS["olympics"][:6]
        ]))
        seeds, _ = pipeline.ingest_seeds(seed_file, repo)
        called = _count_calls(monkeypatch, operators, "resolve_references")
        evolved = pipeline.run_oge(seeds, cfg, repo, LlmGateway(),
                                   scheduler.fresh_state(cfg.epsilon), 1)
    finally:
        repo.close()
    assert evolved
    assert len(called) == len(seeds) == 6


def _olympics_seed_file(tmp_path, n=6):
    seed_file = tmp_path / "seeds.json"
    seed_file.write_text(json.dumps([
        {"question": q, "SQL": sql, "db_id": "olympics"}
        for q, sql in fixtures.SEED_QUESTIONS["olympics"][:n]
    ]))
    return seed_file


def test_run_oge_enumerates_each_operators_sites_once_per_parent(
        monkeypatch, tmp_path, db_dir):
    # the applicability checks and the mock evolution's plans share them
    repo = pipeline.SchemaRepo(db_dir)
    try:
        cfg = pipeline.RunConfig(global_seed=3)
        seeds, _ = pipeline.ingest_seeds(_olympics_seed_file(tmp_path), repo)
        called = []
        for op, (sites, plan) in list(operators._OPERATORS.items()):
            def counted(analysis, op=op, sites=sites):
                called.append(op)
                return sites(analysis)

            monkeypatch.setitem(operators._OPERATORS, op, (counted, plan))
        evolved = pipeline.run_oge(seeds, cfg, repo, LlmGateway(),
                                   scheduler.fresh_state(cfg.epsilon), 1)
    finally:
        repo.close()
    assert evolved
    assert len(called) == 6 * len(seeds) == 36


def _record_parses(monkeypatch):
    parsed = []
    original = pipeline.parse_sql

    def recorded(sql):
        parsed.append(sql)
        return original(sql)

    monkeypatch.setattr(pipeline, "parse_sql", recorded)
    return parsed


def test_fresh_run_parses_no_parent_again(monkeypatch, tmp_path, db_dir):
    # each stage evolves the trees grounding parsed in the stage before
    parsed = _record_parses(monkeypatch)
    manifest = pipeline.run_full(pipeline.RunConfig(
        seeds=str(_olympics_seed_file(tmp_path)), db_dir=str(db_dir),
        out_dir=str(tmp_path / "out"), rounds=2))
    assert manifest["counts"]["evolved"] > manifest["counts"]["eqe"] > 0
    assert parsed == []


def test_resumed_round_parses_each_parent_once(monkeypatch, tmp_path, db_dir):
    cfg = pipeline.RunConfig(
        seeds=str(_olympics_seed_file(tmp_path)), db_dir=str(db_dir),
        out_dir=str(tmp_path / "out"), rounds=2)
    pipeline.run_full(cfg, stop_after="eqe")
    parsed = _record_parses(monkeypatch)
    pipeline.run_full(cfg, resume=True)
    eqe = pipeline.read_jsonl(tmp_path / "out" / "checkpoints" / "eqe.jsonl")
    # round 1 parses the checkpointed parents; round 2 gets round 1's trees
    assert eqe and parsed == [inst.sql for inst in eqe]
