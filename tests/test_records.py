"""Value records are NamedTuples: frozen, without a ``__dict__``, and the three
that hold untrusted values check them whenever they are built."""

import importlib
import json
import pkgutil

import pytest

import sqlgrow
from sqlgrow.errors import DomainError, InstanceFileError, StructuralError
from sqlgrow.features import FeatureVector
from sqlgrow.instances import QueryInstance, read_jsonl
from sqlgrow.operators import OperatorId, analyze, check_applicability
from sqlgrow.parser import parse_sql
from sqlgrow.resolve import BindingReport
from sqlgrow.scheduler import EvolutionState, fresh_state, record_acceptance

MODULES = [importlib.import_module(f"sqlgrow.{m.name}")
           for m in pkgutil.iter_modules(sqlgrow.__path__)]
RECORDS = sorted({cls for module in MODULES for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, tuple)
                  and cls.__module__ == module.__name__},
                 key=lambda cls: (cls.__module__, cls.__qualname__))
COUNTS = dict(tables=1, joins=0, functions=1, tokens=4, aggregates=1,
              subqueries=0, windows=0, ctes=0, nesting=1)


def test_every_record_of_the_package_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"Node", "QueryInstance", "FeatureVector", "EvolutionState", "RunConfig",
            "ParentAnalysis", "RemovalRecord", "CotRecord"} <= names
    assert len(RECORDS) >= 28


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_records_refuse_attribute_assignment(cls):
    record = cls._make([None] * len(cls._fields))  # _make skips the checks
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


def test_with_status_moves_only_forward_and_keeps_every_other_field():
    inst = QueryInstance(id="x", schema_id="s", question="q", evidence="e",
                         sql="SELECT 1", stage="OGE-2", parent_id="p",
                         operator_applied=OperatorId.JOIN,
                         features=FeatureVector(**COUNTS))
    kept = inst.with_status("cot-kept", cot="trace")
    assert type(kept) is QueryInstance
    assert kept == inst._replace(status="cot-kept", cot="trace")
    assert kept.with_status("dedup-removed") == kept._replace(status="dedup-removed")
    assert inst.status == "active" and inst.cot is None
    with pytest.raises(StructuralError,
                       match="^status cannot move from 'cot-kept' back to 'active'$"):
        kept.with_status("active")


def test_two_analyses_never_share_a_sites_memo(olympics_schema):
    ast = parse_sql("SELECT full_name FROM person WHERE height > 180")
    first, second = analyze(ast, olympics_schema), analyze(ast, olympics_schema)
    assert first.sites is not second.sites
    check_applicability(first, OperatorId.OP)
    assert OperatorId.OP in first.sites and second.sites == {}
