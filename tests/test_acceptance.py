"""Acceptance suite: one test per release criterion.

Each test prints a PASS line once its assertions hold, so a verbose run
doubles as the acceptance report. The full mock pipeline run is shared
across criteria through a module-scoped fixture.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

import fixtures
from sqlgrow import tree as t
from sqlgrow.dedup import (
    _greedy_scan,
    _SimilarityMatrix,
    dedup_schema_group,
    embed_questions,
)
from sqlgrow.features import extract_features
from sqlgrow.gateway import LlmGateway
from sqlgrow.harness import collect_result, results_equivalent
from sqlgrow.instances import QueryInstance, read_jsonl
from sqlgrow.operators import (
    OperatorId,
    analyze,
    apply_mutation,
    check_applicability,
    plan_mutation,
)
from sqlgrow.parser import parse_sql
from sqlgrow.pipeline import RunConfig, SchemaRepo, run_full, verify_dataset
from sqlgrow.render import render_sql
from sqlgrow.resolve import resolve_references
from sqlgrow.scheduler import fresh_state, record_acceptance, scarcity_weight, select_top_k, utility
from sqlgrow.cot import CotDiscard, CotRecord, synthesize_cot
from sqlgrow.gateway import CotCandidate

pytestmark = pytest.mark.acceptance


def announce(number, title):
    print(f"ACCEPTANCE {number} PASS - {title}")


# ---------------------------------------------------------------------------
# Shared full-run fixture (criteria 5, 6, 10)
# ---------------------------------------------------------------------------

def make_config(base_dir, name, seed=42):
    return RunConfig(
        seeds=str(base_dir / "seeds.json"),
        db_dir=str(base_dir / "dbs"),
        out_dir=str(base_dir / name),
        rounds=2,
        expansions_per_seed=2,
        global_seed=seed,
    )


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    fixtures.build_all(base / "dbs")
    fixtures.write_seed_file(base / "seeds.json")
    cfg = make_config(base, "run1")
    manifest = run_full(cfg)
    return base, cfg, manifest


# ---------------------------------------------------------------------------
# 1. Operator soundness sweep
# ---------------------------------------------------------------------------

def clause_width(ast):
    total = 0
    for _, node in t.walk(ast):
        if node.kind == t.CLAUSE and node.value[0] in ("where", "having"):
            total += len(t.flat_predicates(node.children[0]))
        elif node.kind == t.CLAUSE and node.value[0] == "order_by":
            total += len(node.children)
    return total


def setop_spine(ast):
    count, node = 0, ast
    while node.kind == t.SETOP:
        count += 1
        node = node.children[0]
    return count


def operator_feature_increased(op, before_ast, after_ast):
    before = extract_features(before_ast)
    after = extract_features(after_ast)
    if op is OperatorId.FUNC:
        return after.functions > before.functions
    if op is OperatorId.OP:
        return after.tokens > before.tokens
    if op is OperatorId.LOGIC:
        return clause_width(after_ast) > clause_width(before_ast)
    if op is OperatorId.JOIN:
        return after.joins > before.joins
    if op is OperatorId.NEST:
        return after.subqueries > before.subqueries or after.ctes > before.ctes
    return setop_spine(after_ast) > setop_spine(before_ast)


@pytest.fixture(scope="module")
def mutation_outputs(full_run):
    """Every feasible (corpus query, operator, seed) mutation, applied."""
    base, _, _ = full_run
    repo = SchemaRepo(base / "dbs")
    outputs = []
    started = time.monotonic()
    for schema_id, sql in fixtures.GOLDEN_CORPUS:
        schema = repo.schema(schema_id)
        conn = repo.connection(schema_id)
        ast = parse_sql(sql)
        analysis = analyze(ast, schema)
        for op in OperatorId:
            if check_applicability(analysis, op) == 0:
                continue
            for seed in range(5):
                plan = plan_mutation(analysis, op, seed, conn)
                mutated = apply_mutation(ast, plan)
                outputs.append((schema_id, sql, op, ast, mutated))
    elapsed = time.monotonic() - started
    repo.close()
    return outputs, elapsed


def test_criterion_1_operator_soundness(mutation_outputs, schemas):
    outputs, elapsed = mutation_outputs
    assert len(fixtures.GOLDEN_CORPUS) == 50
    assert outputs, "corpus produced no feasible mutations"
    for schema_id, sql, op, before_ast, mutated in outputs:
        rendered = render_sql(mutated)
        reparsed = parse_sql(rendered)
        report = resolve_references(reparsed, schemas[schema_id])
        assert report.unresolved == [], f"{op.name} on {sql[:60]}"
        assert operator_feature_increased(op, before_ast, reparsed), \
            f"{op.name} did not increase its feature on {sql[:60]}"
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"
    announce(1, f"{len(outputs)} mutations sound in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Evolution-trajectory reproduction
# ---------------------------------------------------------------------------

def test_criterion_2_trajectory(schemas):
    from test_operators import (
        predicate_count,
        scripted_clause,
        scripted_sort_key,
        sort_key_count,
        stage1_to_stage2,
    )

    stage2 = stage1_to_stage2(parse_sql(fixtures.STAGE_SQL_1))
    got = extract_features(stage2)
    assert (got.tables, got.joins, got.aggregates) == (6, 5, 1)
    assert got == extract_features(parse_sql(fixtures.STAGE_SQL_2))

    having_expr = t.operator(">=", [
        t.func("count", [t.column("ce", "medal_id")]), t.literal("3")])
    with_having = apply_mutation(stage2, scripted_clause(stage2, "having", having_expr))
    assert predicate_count(with_having, "having") == predicate_count(stage2, "having") + 1

    final = apply_mutation(with_having, scripted_sort_key(
        with_having, t.sort_key(t.func("avg", [t.column("gc", "age")]), "asc")))
    assert sort_key_count(final) == sort_key_count(stage2) + 1
    announce(2, "three joins + logic reproduce the staged features exactly")


# ---------------------------------------------------------------------------
# 3. Scheduler balance
# ---------------------------------------------------------------------------

def test_criterion_3_scheduler_balance():
    started = time.monotonic()
    state = fresh_state(epsilon=0.01)
    for _ in range(600):
        utilities = {op: utility(1.0, scarcity_weight(state, op))
                     for op in OperatorId}
        chosen = select_top_k(utilities, 1)
        state = record_acceptance(state, chosen[0])
    elapsed = time.monotonic() - started
    shares = {op: state.counts[op] / 600 for op in OperatorId}
    for op, share in shares.items():
        assert 0.1497 <= share <= 0.1836, f"{op.name} share {share:.4f}"
    assert elapsed < 1.0
    # deterministic: a rerun reproduces the same counts
    state2 = fresh_state(epsilon=0.01)
    for _ in range(600):
        utilities = {op: utility(1.0, scarcity_weight(state2, op))
                     for op in OperatorId}
        state2 = record_acceptance(state2, select_top_k(utilities, 1)[0])
    assert state2.counts == state.counts
    announce(3, f"600-step simulation balanced in {elapsed*1000:.0f}ms")


# ---------------------------------------------------------------------------
# 4. Scarcity formula check
# ---------------------------------------------------------------------------

def test_criterion_4_scarcity_formula():
    # worked state A: all counts zero, uniform target, eps = 0.01
    state = fresh_state(epsilon=0.01)
    expected_fresh = (1 / 6) / (0 / (0 + 0.01) + 0.01)
    for op in OperatorId:
        assert abs(scarcity_weight(state, op) - expected_fresh) < 1e-4
        assert abs(scarcity_weight(state, op) - 16.6667) < 1e-4

    # worked state B: C = (10, 0, 0, 0, 0, 0), N = 10
    for _ in range(10):
        state = record_acceptance(state, OperatorId.FUNC)
    expected_hot = (1 / 6) / (10 / (10 + 0.01) + 0.01)
    assert abs(scarcity_weight(state, OperatorId.FUNC) - expected_hot) < 1e-4
    assert abs(scarcity_weight(state, OperatorId.FUNC) - 0.16518) < 1e-4
    for op in list(OperatorId)[1:]:
        assert abs(scarcity_weight(state, op) - 16.6667) < 1e-4
    announce(4, "both worked states match direct substitution to 4 decimals")


# ---------------------------------------------------------------------------
# 5. Execution grounding of the full run
# ---------------------------------------------------------------------------

def test_criterion_5_execution_grounding(full_run):
    base, cfg, manifest = full_run
    assert len(SchemaRepo(base / "dbs").ids()) >= 3
    assert manifest["counts"]["final"] >= 300
    repo = SchemaRepo(base / "dbs")
    try:
        summary = verify_dataset(base / "run1" / "dataset.jsonl", repo)
    finally:
        repo.close()
    assert summary["total"] == manifest["counts"]["final"]
    assert summary["failures"] == []
    announce(5, f"{summary['total']} final instances all re-execute non-empty")


# ---------------------------------------------------------------------------
# 6. Stage-over-stage complexity trend
# ---------------------------------------------------------------------------

def test_criterion_6_stage_trend(full_run):
    _, _, manifest = full_run
    report = manifest["feature_report"]
    for feature in ("tables", "joins", "functions", "tokens"):
        eqe = report["EQE"][feature]
        oge1 = report["OGE-1"][feature]
        oge2 = report["OGE-2"][feature]
        assert eqe < oge1 < oge2, f"{feature}: {eqe} / {oge1} / {oge2}"
    announce(6, "means strictly increase EQE < OGE-1 < OGE-2 on all four features")


# ---------------------------------------------------------------------------
# 7. Rejection-sampling decisions match an execution oracle
# ---------------------------------------------------------------------------

class FixedTeacher:
    def __init__(self, by_instance):
        self.by_instance = by_instance
        self.current = None

    def generate_cot_candidates(self, question, evidence, schema, n, gold_sql):
        return self.by_instance[self.current][:n]


def test_criterion_7_cot_rejection_sampling(full_run, schemas):
    base, _, _ = full_run
    repo = SchemaRepo(base / "dbs")
    conn = repo.connection("olympics")
    schema = repo.schema("olympics")

    golds = [sql for sid, sql in fixtures.GOLDEN_CORPUS if sid == "olympics"][:10]
    candidate_bank = {}
    instances = []
    for i, gold in enumerate(golds):
        # two fixture variants per gold: one with a correct candidate, one without
        correct = gold
        wrong_rows = f"SELECT * FROM ({gold}) WHERE 1 = 0"
        broken = "SELECT broken FROM nowhere"
        keep_inst = QueryInstance(id=f"keep-{i}", schema_id="olympics",
                                  question="q", evidence="", sql=gold, stage="seed")
        drop_inst = QueryInstance(id=f"drop-{i}", schema_id="olympics",
                                  question="q", evidence="", sql=gold, stage="seed")
        candidate_bank[keep_inst.id] = [
            CotCandidate("wrong", wrong_rows), CotCandidate("broken", broken),
            CotCandidate("right", correct), CotCandidate("late", correct),
        ]
        candidate_bank[drop_inst.id] = [
            CotCandidate("w1", wrong_rows), CotCandidate("w2", broken),
            CotCandidate("w3", wrong_rows), CotCandidate("w4", broken),
        ]
        instances.extend([keep_inst, drop_inst])
    assert len(instances) == 20

    # oracle: execute every candidate directly and compare to gold
    oracle = {}
    for inst in instances:
        gold_rows = collect_result(conn, inst.sql)
        verdict = None
        for idx, cand in enumerate(candidate_bank[inst.id], start=1):
            rows = collect_result(conn, cand.predicted_sql)
            if rows is not None and results_equivalent(rows, gold_rows):
                verdict = idx
                break
        oracle[inst.id] = verdict

    teacher = FixedTeacher(candidate_bank)
    matches = 0
    for inst in instances:
        teacher.current = inst.id
        outcome = synthesize_cot(inst, conn, teacher, schema, n=4)
        if oracle[inst.id] is None:
            assert isinstance(outcome, CotDiscard)
        else:
            assert isinstance(outcome, CotRecord)
            assert outcome.attempts_used == oracle[inst.id]
            recheck = collect_result(conn, outcome.verified_sql)
            assert results_equivalent(recheck, collect_result(conn, inst.sql))
        matches += 1
    repo.close()
    assert matches == 20
    announce(7, "20/20 keep-or-discard decisions match the execution oracle")


# ---------------------------------------------------------------------------
# 8. Dedup correctness
# ---------------------------------------------------------------------------

def test_criterion_8_dedup():
    # worked triplet with the prescribed pairwise similarities
    sims = np.array([[1.0, 0.95, 0.5],
                     [0.95, 1.0, 0.95],
                     [0.5, 0.95, 1.0]])
    kept, _ = _greedy_scan([0, 1, 2], _SimilarityMatrix(sims), tau=0.9)
    assert kept == [0, 2]

    # identical questions under two schemas both survive
    for schema_id in ("s1", "s2"):
        inst = QueryInstance(id=f"{schema_id}-q", schema_id=schema_id,
                             question="identical question", evidence="",
                             sql="SELECT 1", stage="seed")
        vecs = embed_questions([inst.question])
        kept_insts, removed = dedup_schema_group([inst], vecs, tau=0.9)
        assert [k.id for k in kept_insts] == [inst.id]
        assert removed == []

    # idempotence on a realistic group
    questions = ["count the medals", "count the medals per athlete",
                 "what is the heaviest weight", "list the summer games"]
    instances = [QueryInstance(id=f"i{k}", schema_id="s", question=q,
                               evidence="", sql="SELECT 1", stage="seed")
                 for k, q in enumerate(questions)]
    vectors = embed_questions([i.question for i in instances])
    kept1, _ = dedup_schema_group(instances, vectors, tau=0.9)
    kept2, removed2 = dedup_schema_group(
        kept1, embed_questions([i.question for i in kept1]), 0.9)
    assert kept2 == kept1 and removed2 == []
    announce(8, "greedy scan keeps {A, C}; schema independence and idempotence hold")


# ---------------------------------------------------------------------------
# 9. Round-trip over corpus plus all mutation outputs
# ---------------------------------------------------------------------------

def test_criterion_9_round_trip(mutation_outputs):
    outputs, _ = mutation_outputs
    checked = 0
    for _, sql in fixtures.GOLDEN_CORPUS:
        ast = parse_sql(sql)
        assert parse_sql(render_sql(ast)) == ast
        checked += 1
    for _, _, _, _, mutated in outputs:
        rendered = render_sql(mutated)
        assert parse_sql(rendered) == mutated
        checked += 1
    announce(9, f"parse/render round-trip held for {checked} trees")


# ---------------------------------------------------------------------------
# 10. Byte-for-byte determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(full_run):
    base, cfg, manifest = full_run
    cfg2 = make_config(base, "run2")
    manifest2 = run_full(cfg2)
    first = (base / "run1" / "dataset.jsonl").read_bytes()
    second = (base / "run2" / "dataset.jsonl").read_bytes()
    assert first == second
    m1 = (base / "run1" / "manifest.json").read_bytes()
    m2 = (base / "run2" / "manifest.json").read_bytes()
    assert m1 == m2
    announce(10, f"rerun reproduced {len(first)} dataset bytes and the manifest")
