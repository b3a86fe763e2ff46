import sqlite3

import pytest

from fixtures import STAGE_SQL_1, STAGE_SQL_2, STAGE_SQL_0
from sqlgrow import gateway, harness, operators
from sqlgrow import tree as t
from sqlgrow.errors import AmbiguousColumnError, InfeasibleOperatorError, StructuralError
from sqlgrow.features import extract_features
from sqlgrow.operators import (
    MutationPlan,
    OperatorId,
    analyze,
    apply_mutation,
    check_applicability,
    operator_instruction,
    plan_mutation,
)
from sqlgrow.parser import parse_sql
from sqlgrow.render import render_sql
from sqlgrow.resolve import resolve_references
from sqlgrow.schema import fk_join_graph, load_schema


def predicate_count(core, clause_kind):
    found = t.get_clause(core, clause_kind)
    if not found:
        return 0
    return len(t.flat_predicates(found[1].children[0]))


def sort_key_count(core):
    found = t.get_clause(core, "order_by")
    return len(found[1].children) if found else 0


# -- instruction catalog -----------------------------------------------------

def test_instruction_func_prefix():
    text = operator_instruction(OperatorId.FUNC)
    assert text.startswith("Integrate SQL functions to process data")


def test_instruction_set_mentions_set_operators():
    assert "UNION, INTERSECT, EXCEPT" in operator_instruction(OperatorId.SET)


def test_instruction_catalog_complete():
    texts = {operator_instruction(op) for op in OperatorId}
    assert len(texts) == 6
    assert all(texts)


# -- applicability -----------------------------------------------------------

def test_nest_infeasible_without_compared_literal(olympics_schema):
    ast = parse_sql("SELECT full_name FROM person")
    report = check_applicability(analyze(ast, olympics_schema), OperatorId.NEST)
    assert report.score == 0.0
    assert report.eligible_sites == ()


def test_join_feasible_on_stage1(olympics_schema):
    ast = parse_sql(STAGE_SQL_1)
    report = check_applicability(analyze(ast, olympics_schema), OperatorId.JOIN)
    assert report.score > 0
    clause = t.node_at(ast, report.eligible_sites[0])
    assert clause.kind == t.CLAUSE and clause.value[0] == "from"


def test_set_always_feasible(olympics_schema):
    for sql in ("SELECT 1", STAGE_SQL_1, "SELECT full_name FROM person"):
        report = check_applicability(analyze(parse_sql(sql), olympics_schema), OperatorId.SET)
        assert report.score > 0
        assert () in report.eligible_sites


def test_score_saturation(olympics_schema):
    ast = parse_sql("SELECT full_name, weight FROM person WHERE weight > 60")
    report = check_applicability(analyze(ast, olympics_schema), OperatorId.FUNC)
    assert report.score == min(1.0, len(report.eligible_sites) / 3)


def test_unresolvable_parent_has_no_site(olympics_schema):
    ast = parse_sql("SELECT id FROM person JOIN games_competitor "
                    "ON person.id = games_competitor.person_id")
    with pytest.raises(AmbiguousColumnError):
        resolve_references(ast, olympics_schema)
    analysis = analyze(ast, olympics_schema)
    for op in OperatorId:
        assert check_applicability(analysis, op).score == 0
        with pytest.raises(InfeasibleOperatorError):
            plan_mutation(analysis, op, 0)


@pytest.mark.parametrize("sql, resolves", [
    (STAGE_SQL_0, True),
    ("SELECT id FROM person JOIN games_competitor "
     "ON person.id = games_competitor.person_id", False),
])
def test_one_analysis_enumerates_each_operators_sites_once(
        monkeypatch, olympics_schema, connections, sql, resolves):
    called = []
    for op, (sites, plan) in list(operators._OPERATORS.items()):
        def counted(analysis, op=op, sites=sites):
            called.append(op)
            return sites(analysis)

        monkeypatch.setitem(operators._OPERATORS, op, (counted, plan))
    analysis = analyze(parse_sql(sql), olympics_schema)
    expected = list(OperatorId) if resolves else []
    assert sorted(called, key=lambda op: op.value) == expected
    assert set(analysis.sites) == set(OperatorId)
    assert (analysis.report is not None) == resolves
    for op in OperatorId:
        if check_applicability(analysis, op).score:
            plan_mutation(analysis, op, 0, connections["olympics"])
        else:
            assert analysis.sites[op] == []
    assert len(called) == len(expected)



def test_a_cte_named_like_a_table_is_not_that_table(olympics_schema):
    # the outer core reads the CTE, not the person table: no schema column is
    # in its scope, so LOGIC's only sites are the CTE body's WHERE and ORDER BY
    ast = parse_sql("WITH person AS (SELECT id FROM games) SELECT id FROM person")
    sites = check_applicability(analyze(ast, olympics_schema), OperatorId.LOGIC)
    body = (0, 0, 0, 0)
    assert sites.eligible_sites == (body, body)

def test_analysis_lets_errors_outside_the_package_through(olympics_schema, monkeypatch):
    def broken(ast, schema):
        raise KeyError("bug")

    monkeypatch.setattr(operators, "resolve_references", broken)
    with pytest.raises(KeyError):
        analyze(parse_sql(STAGE_SQL_0), olympics_schema)


# -- planning ----------------------------------------------------------------

def test_plan_deterministic_per_seed(olympics_schema, connections):
    ast = parse_sql(STAGE_SQL_1)
    db = connections["olympics"]
    for op in OperatorId:
        if check_applicability(analyze(ast, olympics_schema), op).score == 0:
            continue
        # each plan from its own analysis of the tree
        first = apply_mutation(
            ast, plan_mutation(analyze(ast, olympics_schema), op, 7, db))
        second = apply_mutation(
            ast, plan_mutation(analyze(ast, olympics_schema), op, 7, db))
        assert render_sql(first) == render_sql(second)


def test_plan_infeasible_raises(olympics_schema):
    ast = parse_sql("SELECT full_name FROM person")
    with pytest.raises(InfeasibleOperatorError):
        plan_mutation(analyze(ast, olympics_schema), OperatorId.NEST, 0)


def test_join_plan_edge_belongs_to_fk_graph(olympics_schema, connections):
    ast = parse_sql(STAGE_SQL_1)
    graph = fk_join_graph(olympics_schema)
    legal = set()
    for edges in graph.values():
        for e in edges:
            legal.add((e.table_a, e.table_b))
            legal.add((e.table_b, e.table_a))
    present = {"person", "games_competitor", "competitor_event"}
    for seed in range(12):
        plan = plan_mutation(analyze(ast, olympics_schema), OperatorId.JOIN, seed,
                             connections["olympics"])
        # the plan appends one join to the FROM clause it targets
        *kept, joined = plan.replacement.children
        assert tuple(kept) == plan.original.children
        assert joined.kind == t.JOIN and joined.value[0] in ("inner", "left")
        new_table = joined.children[0].value[0]
        assert new_table not in present
        assert any((a, new_table) in legal for a in present)


def test_logic_plan_literal_comes_from_database(olympics_schema, connections):
    # the only table in scope is person, so sampled literals must be live
    # values of one of its columns
    ast = parse_sql("SELECT full_name FROM person WHERE weight > 60")
    db = connections["olympics"]
    live = set()
    for col in ("id", "full_name", "weight"):
        live |= {row[0] for row in db.execute(f"SELECT DISTINCT {col} FROM person")}
    for seed in range(10):
        plan = plan_mutation(analyze(ast, olympics_schema), OperatorId.LOGIC, seed, db)
        if plan.original.kind != t.CLAUSE or plan.original.value[0] != "where":
            continue
        expr = plan.replacement.children[0].children[-1]  # the predicate it adds
        if expr.value[0] == "is_not_null":
            continue
        lexeme = expr.children[1].value[0]
        value = lexeme.strip("'") if lexeme.startswith("'") else int(lexeme)
        assert value in live


def test_sampler_lookup_over_the_step_budget_yields_nothing(connections, monkeypatch):
    db = connections["olympics"]
    assert operators._value_pool(db, "person", "weight")
    (heaviest,) = db.execute("SELECT MAX(weight) FROM person").fetchone()
    assert operators._absent_value(db, "person", "weight", "integer") == heaviest + 1
    monkeypatch.setattr(harness, "MAX_VM_STEPS", 0)
    monkeypatch.setattr(harness, "_PROGRESS_OPCODES", 1)
    # the same results as a lookup that fails in SQLite
    assert operators._value_pool(db, "person", "weight") == []
    assert operators._absent_value(db, "person", "weight", "integer") == -999999
    assert operators._absent_value(db, "person", "full_name", "text") == "__absent__"


def test_lookups_quote_a_double_quote_in_a_name(tmp_path):
    path = tmp_path / "quote.db"
    conn = sqlite3.connect(path)
    conn.executescript('''CREATE TABLE "t""a" ("c""o" INTEGER);
                          INSERT INTO "t""a" VALUES (3), (5);''')
    conn.close()
    db = harness.open_readonly(path)
    try:
        assert operators._value_pool(db, 't"a', 'c"o') == [3, 5]
        assert operators._absent_value(db, 't"a', 'c"o', "integer") == 6
        # the mock refiner's lookup, which drops a predicate no row meets
        ast = parse_sql('SELECT "c""o" FROM "t""a" WHERE "c""o" = 4')
        assert gateway._drop_dead_predicate(ast, load_schema(path), db) == \
            'SELECT "c""o" FROM "t""a"'
    finally:
        db.close()


# -- application -------------------------------------------------------------

def test_func_wraps_leaf_in_place(olympics_schema):
    ast = parse_sql("SELECT weight FROM person")
    analysis = analyze(ast, olympics_schema)
    rendered = set()
    for seed in range(20):
        plan = plan_mutation(analysis, OperatorId.FUNC, seed)
        assert plan.original == t.column("", "weight")
        assert plan.replacement.kind == t.FUNCTION
        assert plan.replacement.children == (plan.original,)
        rendered.add(render_sql(apply_mutation(ast, plan)))
    assert "SELECT AVG(weight) FROM person" in rendered


def test_set_renders_as_two_selects(olympics_schema, connections):
    ast = parse_sql("SELECT full_name FROM person WHERE weight > 60")
    plan = plan_mutation(analyze(ast, olympics_schema), OperatorId.SET, 0,
                         connections["olympics"])
    out = apply_mutation(ast, plan)
    assert out.kind == t.SETOP
    sql = render_sql(out)
    assert sql.count("SELECT") >= 2
    parsed = parse_sql(sql)
    assert parsed.kind == t.SETOP


def test_set_copy_compares_with_a_value_of_the_bound_column(olympics_schema, connections):
    ast = parse_sql("SELECT full_name FROM person WHERE weight > 60")
    db = connections["olympics"]
    weights = {row[0] for row in db.execute("SELECT weight FROM person")}
    perturbed = 0
    for seed in range(8):
        plan = plan_mutation(analyze(ast, olympics_schema), OperatorId.SET, seed, db)
        assert plan.original == ast
        symbol, second = plan.replacement.value[0], plan.replacement.children[1]
        if symbol == "intersect":
            continue
        (literal,) = [n for _, n in t.walk(second) if n.kind == t.LITERAL]
        assert float(literal.value[0]) in weights - {60}
        perturbed += 1
    assert perturbed


def test_set_wraps_trailing_clauses_in_derived_table(olympics_schema, connections):
    ast = parse_sql(STAGE_SQL_1)  # carries ORDER BY and LIMIT
    db = connections["olympics"]
    plan = plan_mutation(analyze(ast, olympics_schema), OperatorId.SET, 1, db)
    out = apply_mutation(ast, plan)
    sql = render_sql(out)
    # the engine accepts the wrapped form and the operand keeps its LIMIT
    cur = db.execute(sql)
    assert cur.fetchall() is not None
    left = out.children[0]
    assert left.kind == t.SELECT
    assert t.get_clause(left, "order_by") is None


def test_apply_rejects_mismatched_tree(olympics_schema, connections):
    # the same shape, so each plan's target path resolves in the other tree,
    # and there holds a node of the same kind
    ast = parse_sql("SELECT full_name, weight FROM person WHERE weight > 60 ORDER BY weight")
    other = parse_sql("SELECT p.full_name, p.id FROM person p WHERE p.id > 1 ORDER BY p.id")
    analysis = analyze(ast, olympics_schema)
    accepted = []
    for op in OperatorId:
        for seed in range(4):
            plan = plan_mutation(analysis, op, seed, connections["olympics"])
            assert t.node_at(other, plan.target_path).kind == plan.original.kind
            try:
                apply_mutation(other, plan)
            except StructuralError:
                continue
            accepted.append((op.name, seed))
    assert accepted == []


def test_purity_input_unchanged(olympics_schema, connections):
    ast = parse_sql(STAGE_SQL_1)
    before = render_sql(ast)
    for op in OperatorId:
        if check_applicability(analyze(ast, olympics_schema), op).score == 0:
            continue
        plan = plan_mutation(analyze(ast, olympics_schema), op, 3, connections["olympics"])
        apply_mutation(ast, plan)
        assert render_sql(ast) == before


# -- evolution trajectory on the olympics fixture ------------------------------

FROM_PATH = (1,)  # select, from, group_by, order_by, limit
STAGE2_JOINS = (
    ("event", "e", "ce", "event_id", "id"),
    ("sport", "s", "e", "sport_id", "id"),
    ("games", "g", "gc", "games_id", "id"),
)


def scripted_join(ast, table, alias, left_label, left_col, right_col):
    """A JOIN plan: the FROM clause of ``ast`` with an inner join appended."""
    from_clause = t.node_at(ast, FROM_PATH)
    condition = t.operator("=", [t.column(left_label, left_col),
                                 t.column(alias, right_col)])
    joined = t.join("inner", t.table(table, alias), condition)
    return MutationPlan(OperatorId.JOIN, FROM_PATH, from_clause,
                        t.Node(t.CLAUSE, from_clause.value,
                               (*from_clause.children, joined)), "")


def scripted_clause(core, clause_kind, expr):
    """A LOGIC plan: the select core with a new ``clause_kind`` clause."""
    return MutationPlan(OperatorId.LOGIC, (), core,
                        t.set_clause(core, t.clause(clause_kind, [expr])), "")


def scripted_sort_key(core, sort_key):
    """A LOGIC plan: the ORDER BY clause of ``core`` with one key more."""
    index, order_by = t.get_clause(core, "order_by")
    return MutationPlan(OperatorId.LOGIC, (index,), order_by,
                        t.Node(t.CLAUSE, order_by.value,
                               (*order_by.children, sort_key)), "")


def stage1_to_stage2(ast):
    for join in STAGE2_JOINS:
        ast = apply_mutation(ast, scripted_join(ast, *join))
    where_expr = t.logical("and", [
        t.operator("=", [t.column("s", "sport_name"), t.literal("'Swimming'")]),
        t.operator("=", [t.column("g", "season"), t.literal("'Summer'")]),
    ])
    return apply_mutation(ast, scripted_clause(ast, "where", where_expr))


def test_trajectory_stage1_to_stage2_matches_parse(olympics_schema):
    evolved = stage1_to_stage2(parse_sql(STAGE_SQL_1))
    assert evolved == parse_sql(STAGE_SQL_2)
    got = extract_features(evolved)
    assert (got.tables, got.joins, got.aggregates) == (6, 5, 1)
    assert got == extract_features(parse_sql(STAGE_SQL_2))
    report = resolve_references(evolved, olympics_schema)
    assert report.unresolved == []


def test_trajectory_join_steps_increment_joins():
    ast = parse_sql(STAGE_SQL_1)
    joins_before = extract_features(ast).joins
    for i, join in enumerate(STAGE2_JOINS, start=1):
        ast = apply_mutation(ast, scripted_join(ast, *join))
        assert extract_features(ast).joins == joins_before + i


def test_trajectory_stage3_logic_steps():
    stage2 = stage1_to_stage2(parse_sql(STAGE_SQL_1))
    having_before = predicate_count(stage2, "having")
    sorts_before = sort_key_count(stage2)

    having_expr = t.operator(">=", [
        t.func("count", [t.column("ce", "medal_id")]), t.literal("3")])
    with_having = apply_mutation(stage2, scripted_clause(stage2, "having", having_expr))
    assert predicate_count(with_having, "having") == having_before + 1

    sort_expr = t.sort_key(t.func("avg", [t.column("gc", "age")]), "asc")
    final = apply_mutation(with_having, scripted_sort_key(with_having, sort_expr))
    assert sort_key_count(final) == sorts_before + 1
    assert predicate_count(final, "having") == having_before + 1


def test_trajectory_executes_on_fixture(olympics_schema, connections):
    evolved = stage1_to_stage2(parse_sql(STAGE_SQL_1))
    rows = connections["olympics"].execute(render_sql(evolved)).fetchall()
    assert len(rows) >= 1


# -- composite foreign keys -----------------------------------------------------

COMPOSITE_DDL = """
CREATE TABLE region (
  country TEXT, area TEXT, population INTEGER,
  PRIMARY KEY (country, area)
);
CREATE TABLE city (
  id INTEGER PRIMARY KEY, name TEXT, country TEXT, area TEXT,
  FOREIGN KEY (country, area) REFERENCES region(country, area)
);
INSERT INTO region VALUES ('fr','south',900),('fr','north',1100),('no','west',400);
INSERT INTO city VALUES (1,'nice','fr','south'),(2,'lille','fr','north'),(3,'bergen','no','west');
"""


@pytest.fixture(scope="module")
def composite_db(tmp_path_factory):
    import sqlite3

    path = tmp_path_factory.mktemp("composite") / "geo.db"
    conn = sqlite3.connect(path)
    conn.executescript(COMPOSITE_DDL)
    conn.close()
    return path


def test_composite_fk_join_condition(composite_db):
    from sqlgrow.harness import execute_sql, open_readonly
    from sqlgrow.schema import load_schema

    schema = load_schema(composite_db)
    graph = fk_join_graph(schema)
    edge = graph["city"][0]
    assert edge.columns_a == ("country", "area")
    assert edge.columns_b == ("country", "area")

    db = open_readonly(composite_db)
    ast = parse_sql("SELECT name FROM city")
    plan = plan_mutation(analyze(ast, schema), OperatorId.JOIN, 0, db)
    cond = plan.replacement.children[-1].children[1]  # the appended join's ON
    assert cond.kind == t.LOGICAL and cond.value[0] == "and"
    assert len(cond.children) == 2
    sql = render_sql(apply_mutation(ast, plan))
    fb = execute_sql(db, sql)
    assert fb.ok and fb.row_count == 3
    db.close()


# -- chained mutations, as the evolution rounds produce them --------------------

def test_chained_mutations_stay_sound(olympics_schema, connections):
    from sqlgrow.harness import execute_sql

    db = connections["olympics"]
    sql = "SELECT p.full_name FROM person p WHERE p.weight > 60"
    ast = parse_sql(sql)
    applied = []
    for step in range(4):
        chosen = None
        for op in OperatorId:  # deterministic: first feasible operator not yet used
            if op in applied:
                continue
            if check_applicability(analyze(ast, olympics_schema), op).score > 0:
                chosen = op
                break
        if chosen is None:
            break
        plan = plan_mutation(analyze(ast, olympics_schema), chosen, 100 + step, db)
        ast = apply_mutation(ast, plan)
        applied.append(chosen)
        rendered = render_sql(ast)
        assert parse_sql(rendered) == ast
        report = resolve_references(ast, olympics_schema)
        assert report.unresolved == []
        fb = execute_sql(db, rendered)
        assert fb.ok, f"{chosen.name} chain broke execution: {fb.error}"
    assert len(applied) == 4


def test_set_wrapping_preserves_operand_semantics(olympics_schema, connections):
    from collections import Counter

    db = connections["olympics"]
    left_sql = "SELECT full_name FROM person ORDER BY weight DESC LIMIT 2"
    right_sql = "SELECT full_name FROM person WHERE weight < 70"
    # the composition every SET plan's replacement is built with
    combined = operators.compose_set("union", parse_sql(left_sql), parse_sql(right_sql))
    got = Counter(db.execute(render_sql(combined)).fetchall())

    # oracle: evaluate both operands independently and apply UNION in Python
    left_rows = set(db.execute(left_sql).fetchall())
    right_rows = set(db.execute(right_sql).fetchall())
    expected = Counter(left_rows | right_rows)
    assert got == expected


def test_logic_plan_can_extend_where_with_and(olympics_schema, connections):
    ast = parse_sql(STAGE_SQL_2)
    db = connections["olympics"]
    scope_labels = {"p", "gc", "ce", "e", "s", "g"}
    found = False
    for seed in range(30):
        plan = plan_mutation(analyze(ast, olympics_schema), OperatorId.LOGIC, seed, db)
        if plan.original.kind != t.CLAUSE or plan.original.value[0] != "where":
            continue
        (old,), (widened,) = plan.original.children, plan.replacement.children
        if widened.value[0] == "and":
            # STAGE_SQL_2's WHERE is an AND, so the new predicate joins its list
            assert widened.children[:-1] == old.children
            pred = widened.children[-1]
            if pred.value[0] != "is_not_null":
                assert pred.children[0].kind == t.COLUMN
                assert pred.children[0].value[0] in scope_labels
            found = True
            break
    assert found, "no seed produced an AND extension of WHERE"


def test_children_on_a_blob_column_parse(tmp_path):
    # the parser reads no BLOB literal, so no plan may write one
    import sqlite3

    from sqlgrow.harness import open_readonly
    from sqlgrow.schema import load_schema

    path = tmp_path / "blobs.db"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, data BLOB)")
    conn.executemany("INSERT INTO t VALUES (?, ?)",
                     [(1, b"\x00\x01"), (2, b"\xff"), (3, "a"), (4, None)])
    conn.commit()
    conn.close()
    schema, db = load_schema(path), open_readonly(path)
    try:
        children = 0
        for sql in ("SELECT id FROM t", "SELECT id FROM t WHERE t.data = 'a'"):
            ast = parse_sql(sql)
            for op in (OperatorId.LOGIC, OperatorId.OP, OperatorId.SET):
                for seed in range(40):
                    try:
                        plan = plan_mutation(analyze(ast, schema), op, seed, db)
                    except InfeasibleOperatorError:
                        continue
                    parse_sql(render_sql(apply_mutation(ast, plan)))
                    children += 1
        assert children > 100
    finally:
        db.close()
