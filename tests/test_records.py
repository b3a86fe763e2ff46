"""Value records are NamedTuples, or slotted values like them: frozen, without a
``__dict__``, and the three that hold untrusted values check them whenever they
are built."""

import importlib
import json
import pkgutil

import pytest

import sqlgrow
from sqlgrow.errors import DomainError, InstanceFileError, StructuralError
from sqlgrow.features import FeatureVector
from sqlgrow.instances import QueryInstance, read_jsonl
from sqlgrow.operators import OperatorId
from sqlgrow.resolve import BindingReport
from sqlgrow.scheduler import EvolutionState, fresh_state, record_acceptance
from sqlgrow.schema import _Frozen

MODULES = [importlib.import_module(f"sqlgrow.{m.name}")
           for m in pkgutil.iter_modules(sqlgrow.__path__)]
RECORDS = sorted({cls for module in MODULES for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, tuple)
                  and cls.__module__ == module.__name__},
                 key=lambda cls: (cls.__module__, cls.__qualname__))
FROZEN = [cls for module in MODULES for cls in vars(module).values()
          if isinstance(cls, type) and issubclass(cls, _Frozen) and cls is not _Frozen
          and cls.__module__ == module.__name__]
COUNTS = dict(tables=1, joins=0, functions=1, tokens=4, aggregates=1,
              subqueries=0, windows=0, ctes=0, nesting=1)


def test_every_record_of_the_package_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"Node", "QueryInstance", "FeatureVector", "EvolutionState", "RunConfig",
            "ParentAnalysis", "RemovalRecord", "CotRecord"} <= names
    assert len(RECORDS) >= 28


@pytest.mark.parametrize("cls", RECORDS + FROZEN,
                         ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_records_refuse_attribute_assignment(cls):
    # _make and object.__new__ skip the checks
    is_tuple = issubclass(cls, tuple)
    record = cls._make([None] * len(cls._fields)) if is_tuple else object.__new__(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    with pytest.raises(AttributeError):
        record.not_a_field = 1  # a subclass without __slots__ = () would allow this


def test_binding_report_takes_only_its_own_attributes():
    report = BindingReport()
    assert (report.resolved, report.unresolved, report.contexts, report.cores,
            report.max_depth, report.scopes, report.relation_at) == ([], [], {}, [], 1, {}, {})
    assert BindingReport().resolved is not report.resolved
    with pytest.raises(AttributeError):
        report.not_a_field = 1


def test_feature_vector_checks_positional_and_keyword_construction():
    assert FeatureVector(**COUNTS) == FeatureVector(*COUNTS.values())
    with pytest.raises(DomainError, match="^feature joins must be >= 0$"):
        FeatureVector(1, -1, 1, 4, 1, 0, 0, 0, 1)
    with pytest.raises(DomainError, match="^aggregates cannot exceed functions$"):
        FeatureVector(**{**COUNTS, "functions": 0})


def test_evolution_state_checks_construction_and_counts_only_grow():
    state = fresh_state()
    with pytest.raises(DomainError, match="^epsilon must be positive$"):
        EvolutionState(state.counts, state.p_target, 0.0)
    with pytest.raises(DomainError, match="^acceptance counts cannot be negative$"):
        EvolutionState({**state.counts, OperatorId.OP: -1}, state.p_target, 0.01)
    grown = record_acceptance(state, OperatorId.OP)
    assert type(grown) is EvolutionState and grown.counts[OperatorId.OP] == 1
    assert state.counts[OperatorId.OP] == 0


def test_query_instance_checks_positional_construction():
    with pytest.raises(StructuralError, match="must record their operator"):
        QueryInstance("x", "s", "q", "", "SELECT 1", "OGE-1")
    with pytest.raises(StructuralError, match="^unknown status 'bogus'$"):
        QueryInstance("x", "s", "q", "", "SELECT 1", "seed", None, None, None, "bogus")


def test_a_checkpoint_row_with_a_negative_feature_is_refused(tmp_path):
    row = {"id": "x", "schema_id": "s", "question": "q", "sql": "SELECT 1",
           "stage": "seed", "features": {**COUNTS, "ctes": -2}}
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(InstanceFileError) as exc:
        read_jsonl(path)
    assert str(exc.value) == f"{path}, line 1: feature ctes must be >= 0"


def _evolved(**fields):
    return QueryInstance(id="x", schema_id="s", question="q", evidence="e",
                         sql="SELECT 1", stage="OGE-2", parent_id="p",
                         operator_applied=OperatorId.JOIN,
                         features=FeatureVector(**COUNTS), **fields)


def test_a_record_takes_only_the_two_statuses_a_run_sets(tmp_path):
    kept = _evolved(status="cot-kept", cot="trace")
    assert kept == _evolved()._replace(status="cot-kept", cot="trace")
    for status in ("rejected", "cot-discarded", "dedup-removed"):
        with pytest.raises(StructuralError, match=f"^unknown status '{status}'$"):
            _evolved(status=status)
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(kept.to_dict()) + "\n"
                    + json.dumps({**kept.to_dict(), "status": "dedup-removed"}) + "\n")
    with pytest.raises(InstanceFileError) as exc:
        read_jsonl(path)
    assert str(exc.value) == f"{path}, line 2: unknown status 'dedup-removed'"


def test_to_row_leaves_out_default_fields_and_lists_the_features():
    assert _evolved().to_row() == {
        "id": "x", "schema_id": "s", "question": "q", "evidence": "e", "sql": "SELECT 1",
        "stage": "OGE-2", "parent_id": "p", "operator_applied": "JOIN",
        "features": [1, 0, 1, 4, 1, 0, 0, 0, 1]}
    kept = _evolved(status="cot-kept", cot="trace")
    assert kept.to_row() == {**_evolved().to_row(), "status": "cot-kept", "cot": "trace"}
    seed = QueryInstance(id="x", schema_id="s", question="q", evidence="",
                         sql="SELECT 1", stage="seed")
    assert seed.to_row() == {"id": "x", "schema_id": "s", "question": "q",
                             "sql": "SELECT 1", "stage": "seed"}
    for inst in (_evolved(), kept, seed):
        assert QueryInstance.from_dict(inst.to_row()) == inst
        assert QueryInstance.from_dict(inst.to_dict()) == inst


@pytest.mark.parametrize("features, problem", [
    ([1, 0, 1, 4, 1, 0, 0, 0], "features holds 8 counts, not 9"),
    ([1, 0, 1, 4, 1, 0, 0, 0, 1, 0], "features holds 10 counts, not 9"),
    ([1, 0, 1, 4, 1, 0, -1, 0, 1], "feature windows must be >= 0"),
])
def test_a_checkpoint_row_whose_feature_list_is_not_nine_counts_is_refused(
        tmp_path, features, problem):
    row = _evolved().to_row()
    path = tmp_path / "oge-2.jsonl"
    path.write_text(json.dumps(row) + "\n" + json.dumps({**row, "features": features}) + "\n")
    with pytest.raises(InstanceFileError) as exc:
        read_jsonl(path)
    assert str(exc.value) == f"{path}, line 2: {problem}"


def test_to_dict_converts_the_operator_features_and_trace_and_from_dict_reverses_it():
    kept = _evolved(status="cot-kept", cot="trace")
    record = {"id": "x", "schema_id": "s", "question": "q", "evidence": "e",
              "sql": "SELECT 1", "stage": "OGE-2", "parent_id": "p",
              "operator_applied": "JOIN", "features": COUNTS, "status": "cot-kept",
              "cot": "trace"}
    assert kept.to_dict() == record
    unkept = {k: v for k, v in record.items() if k != "cot"}
    assert _evolved().to_dict() == {**unkept, "status": "active"}
    read = QueryInstance.from_dict(record)
    assert type(read) is QueryInstance and type(read.features) is FeatureVector
    assert read == kept
    seed = {"id": "x", "schema_id": "s", "question": "q", "sql": "SELECT 1", "stage": "seed"}
    assert QueryInstance.from_dict(seed) == QueryInstance(**seed, evidence="")
    assert QueryInstance.from_dict(seed).to_dict() == {
        **seed, "evidence": "", "parent_id": None, "operator_applied": None,
        "features": None, "status": "active"}
