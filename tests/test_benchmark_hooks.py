"""The names the benchmark wraps exist, and run_full reaches them at call time.

``perfbench/spans.py`` times each layer by rebinding the functions listed in
its ``LAYERS`` table. A renamed function would only fail the separate
benchmark suite, so this reads the table (without importing the benchmark)
and resolves every entry against the package.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

import fixtures
from sqlgrow import pipeline

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers() -> dict:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {SPANS}")


WRAPPED = [pair for pairs in _layers().values() for pair in pairs]


@pytest.mark.parametrize("owner,attr", WRAPPED, ids=[f"{o}.{a}" for o, a in WRAPPED])
def test_wrapped_function_exists(owner, attr):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    if class_name:
        target = getattr(target, class_name)
    assert callable(getattr(target, attr))


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
