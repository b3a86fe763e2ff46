"""The six atomic mutation operators.

Each operator is a deterministic, schema-aware tree rewrite:

  FUNC   wrap a column leaf in a function
  OP     embed a simple comparison into a richer operator (CASE WHEN,
         BETWEEN, IN, NOT IN, LIKE)
  LOGIC  widen a WHERE / HAVING / ORDER BY clause with a new predicate
         or sort key
  JOIN   append an FK-reachable table to a FROM clause
  NEST   replace a compared literal with a scalar aggregate subquery
  SET    combine the query with a perturbed copy under a set operator

``analyze`` resolves a tree once against its schema and enumerates each
operator's sites, which ``check_applicability`` scores and ``plan_mutation``
picks from. The resolver's report holds the column bindings, the relation
each bound column names (``relation_at``), each select core's FROM relations
(``scopes``), which cores are compound operands (``cores``) and where each
node sits (clause, core, nesting depth, aggregate or window), so no operator
reads a FROM clause or walks a core for columns itself. Planning is seeded
and grounded: literals come from the live database, and join conditions come
from the FK graph. Each literal lookup is one query under the harness's step
budget. Nothing caches them: no plan looks the same column up twice.

A plan is one checked replacement: the subtree at ``target_path`` as the
planner saw it (``original``) and the subtree that takes its place
(``replacement``). SET targets the root, so its ``original`` is the whole
tree. ``apply_mutation`` refuses a tree whose node at that path differs
from ``original``, so a plan applied to a different tree fails loudly.
"""

from __future__ import annotations

import enum
import random
from typing import NamedTuple

from . import tree as t
from .errors import InfeasibleOperatorError, SqlgrowError, StructuralError
from .harness import _run_query
from .render import render_expr
from .resolve import BindingReport, resolve_references
from .schema import DatabaseSchema, fk_join_graph
from .sqlite import quote_ident, sqlite3

FULL_SCORE_SITES = 3  # an operator with this many sites scores 1.0


class OperatorId(enum.Enum):
    """Fixed enumeration; ties in utility break by this order."""

    FUNC = 0
    OP = 1
    LOGIC = 2
    JOIN = 3
    NEST = 4
    SET = 5


OPERATOR_INSTRUCTIONS = {
    OperatorId.FUNC: (
        "Integrate SQL functions to process data within the query. You can "
        "use aggregate functions, date functions, mathematical functions, "
        "or window functions."
    ),
    OperatorId.OP: (
        "Use a wider variety of SQL operators in the query. For example, "
        "use BETWEEN for range comparisons, IN or NOT IN to filter against "
        "a set of values, or LIKE for pattern matching. You can also "
        "introduce conditional logic with a CASE WHEN expression in the "
        "SELECT or ORDER BY clause."
    ),
    OperatorId.LOGIC: (
        "Increase the logical complexity within existing SQL clauses. For "
        "example, combine multiple conditions in the WHERE clause using "
        "AND/OR/NOT; if the original SQL has a GROUP BY, add a HAVING "
        "clause to filter the aggregated results; or sort by multiple "
        "columns in the ORDER BY clause."
    ),
    OperatorId.JOIN: (
        "Increase the number of tables being joined or change the join "
        "type (e.g., switching between INNER JOIN and LEFT JOIN) to "
        "introduce new data relationships."
    ),
    OperatorId.NEST: (
        "Make the query structure more complex by introducing nested "
        "queries, correlated subqueries, or Common Table Expressions (CTEs)."
    ),
    OperatorId.SET: (
        "Use set operators (UNION, INTERSECT, EXCEPT) to combine or "
        "compare the result sets of two or more queries. Alternatively, "
        "use an EXISTS or NOT EXISTS subquery to check for the existence "
        "of records that satisfy specific conditions."
    ),
}


def operator_instruction(op: OperatorId) -> str:
    return OPERATOR_INSTRUCTIONS[op]


class MutationPlan(NamedTuple):
    """Replace ``original``, the node at ``target_path``, with ``replacement``."""

    operator: OperatorId
    target_path: t.Path
    original: t.Node
    replacement: t.Node
    summary: str


# ---------------------------------------------------------------------------
# Literals from the live database
# ---------------------------------------------------------------------------

_NUMERIC_AFFINITIES = ("integer", "real", "numeric")
_POOL_SIZE = 20


def _value_pool(db, table, column_name) -> list:
    """Up to ``_POOL_SIZE`` distinct non-NULL values of a column, in order,
    BLOBs left out: the parser reads no BLOB literal.

    This lookup and ``_absent_value``'s run under the harness's step budget
    and wall cap; one that fails or runs over the budget yields nothing.
    """
    tab, col = quote_ident(table), quote_ident(column_name)
    try:
        _, rows = _run_query(
            db,
            f'SELECT DISTINCT {tab}.{col} FROM {tab} WHERE {tab}.{col} IS NOT NULL '
            f'ORDER BY 1 LIMIT {_POOL_SIZE}',
            _POOL_SIZE,
        )
    except sqlite3.Error:
        return []
    return [row[0] for row in rows if not isinstance(row[0], bytes)]


def _absent_value(db, table, column_name, affinity):
    """A value not present in the column, best effort."""
    numeric = affinity in _NUMERIC_AFFINITIES
    past_max = "+ 1" if numeric else "|| '~'"
    try:
        _, rows = _run_query(
            db, f'SELECT MAX({quote_ident(column_name)}) {past_max} '
                f'FROM {quote_ident(table)}', 1)
    except sqlite3.Error:
        rows = []
    if rows and rows[0][0] is not None:
        return rows[0][0]
    return -999999 if numeric else "__absent__"


def _value_literal(value) -> t.Node:
    if isinstance(value, bool):
        return t.literal("1" if value else "0")
    if isinstance(value, (int, float)):
        return t.number(value)
    return t.string(str(value))


# ---------------------------------------------------------------------------
# Applicability
# ---------------------------------------------------------------------------

_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


class ParentAnalysis(NamedTuple):
    """A parent tree, its schema, the resolver's report and every operator's sites.

    ``sites`` maps each operator to its (target_path, site_info) pairs, in
    order; ``comparisons`` holds the typed literal comparisons that OP and
    NEST both rewrite. When the tree does not resolve, ``report`` is None
    and neither holds anything.
    """

    ast: t.Node
    schema: DatabaseSchema
    report: BindingReport | None
    sites: dict
    comparisons: tuple = ()


def analyze(ast: t.Node, schema: DatabaseSchema) -> ParentAnalysis:
    """Resolve a tree once and enumerate every operator's sites on it."""
    try:
        report = resolve_references(ast, schema)
    except SqlgrowError:
        return ParentAnalysis(ast, schema, None, {op: [] for op in _OPERATORS})
    analysis = ParentAnalysis(ast, schema, report, None,
                              tuple(_typed_comparisons(ast, schema, report)))
    return analysis._replace(
        sites={op: sites(analysis) for op, (sites, _) in _OPERATORS.items()})


def check_applicability(analysis: ParentAnalysis, op: OperatorId) -> float:
    """Rule-based feasibility: score the rewrite sites ``analyze`` enumerated."""
    return min(1.0, len(analysis.sites[op]) / FULL_SCORE_SITES)


def literal_comparisons(ast: t.Node):
    """Yields (path, node) for each column-versus-literal comparison.

    A comparison is one of ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=`` whose
    left operand is a column and whose right operand is a literal. Paths
    come in pre-order, which is ascending path order.
    """
    for path, node in t.walk(ast):
        if node.kind != t.OPERATOR or node.value[0] not in _COMPARISONS:
            continue
        if len(node.children) != 2:
            continue
        left, right = node.children
        if left.kind == t.COLUMN and right.kind == t.LITERAL:
            yield path, node


_FUNC_CONTEXTS = ("select", "where", "having", "group_by", "order_by")

_SCALARS_BY_AFFINITY = {
    "integer": ("round", "abs"),
    "real": ("round", "abs"),
    "numeric": ("round", "abs"),
    "text": ("length", "upper", "lower"),
    "blob": ("length",),
}
_AGGREGATES_BY_AFFINITY = {
    "integer": ("avg", "sum", "max", "min"),
    "real": ("avg", "sum", "max", "min"),
    "numeric": ("avg", "sum", "max", "min"),
    "text": ("count", "max", "min"),
    "blob": ("count",),
}


def _column_affinity(schema, relation, name):
    tab = schema.table(relation) if relation else None
    col = tab.column(name) if tab else None
    return col.affinity if col else None


def _func_candidates(schema, relation, name, ctx) -> tuple[str, ...]:
    affinity = _column_affinity(schema, relation, name)
    if affinity is None:
        return ()
    if affinity == "text" and schema.is_date_like(relation, name):
        scalars: tuple[str, ...] = ("date",)
    else:
        scalars = _SCALARS_BY_AFFINITY[affinity]
    aggregate_ok = (
        not ctx.in_aggregate
        and not ctx.in_window
        and (
            ctx.clause == "select"
            or ctx.clause == "having"
            or (ctx.clause == "order_by" and ctx.grouped)
        )
    )
    if aggregate_ok:
        return scalars + _AGGREGATES_BY_AFFINITY[affinity]
    return scalars


def _func_sites(analysis):
    contexts = analysis.report.contexts
    sites = []
    for binding in sorted(analysis.report.resolved, key=lambda b: b.path):
        path, relation = binding.path, binding.relation
        ctx = contexts[path]
        if ctx.clause not in _FUNC_CONTEXTS or relation == "<select-alias>":
            continue
        # wrapping a bare select item of a nested core would rename the
        # output column that enclosing queries may reference by name
        if (
            ctx.clause == "select"
            and ctx.depth > 1
            and len(path) == len(ctx.select_path) + 2
        ):
            continue
        names = _func_candidates(analysis.schema, relation, binding.name, ctx)
        if names:
            sites.append((path, names))
    return sites


_OMEGA_BY_SHAPE = {
    # (comparison symbol class, literal class) -> candidate operators
    ("=", "text"): ("like", "in", "case"),
    ("=", "number"): ("between", "in", "case"),
    ("!=", "text"): ("not_in", "case"),
    ("!=", "number"): ("not_in", "case"),
    ("<", "number"): ("between", "case"),
    ("<", "text"): ("case",),
}


def _literal_class(node: t.Node) -> str | None:
    lex = node.value[0]
    if lex and (lex[0].isdigit() or (lex[0] in "-." and len(lex) > 1)):
        return "number"
    if lex.startswith("'"):
        return "text"
    return None


def _typed_comparisons(ast, schema, report):
    """Literal comparisons in WHERE or HAVING that OP and NEST may rewrite.

    Yields (path, node, ctx, relation, literal class, affinity) when the
    literal is a number or text and the column is a column of a real table.
    """
    contexts, relation_at = report.contexts, report.relation_at
    for path, node in literal_comparisons(ast):
        ctx = contexts.get(path)
        if ctx is None or ctx.clause not in ("where", "having"):
            continue
        left, right = node.children
        lit_class = _literal_class(right)
        if lit_class is None:
            continue
        relation = relation_at.get((*path, 0))
        if relation in (None, "<select-alias>"):
            continue
        affinity = _column_affinity(schema, relation, left.value[1])
        if affinity is None:
            continue
        yield path, node, ctx, relation, lit_class, affinity


def _op_sites(analysis):
    sites = []
    for path, node, _, relation, lit_class, affinity in analysis.comparisons:
        sym = node.value[0]
        sym_class = "=" if sym == "=" else "!=" if sym == "!=" else "<"
        candidates = _OMEGA_BY_SHAPE.get((sym_class, lit_class), ())
        if affinity == "text" and "between" in candidates:
            candidates = tuple(c for c in candidates if c != "between")
        if candidates:
            sites.append((path, {"node": node, "relation": relation,
                                 "affinity": affinity, "candidates": candidates}))
    return sites


def _scope_columns(analysis, core_path):
    """(label, table, column, affinity) for each schema-table column a core reads."""
    return [
        (rel.label, rel.table.name, col.name, col.affinity)
        for rel in analysis.report.scopes[core_path] if rel.table is not None
        for col in rel.table.columns
    ]


def _logic_sites(analysis):
    sites = []
    for core_path, in_compound in analysis.report.cores:
        core = t.node_at(analysis.ast, core_path)
        columns = _scope_columns(analysis, core_path)
        where = t.get_clause(core, "where")
        having = t.get_clause(core, "having")
        group_by = t.get_clause(core, "group_by")
        order_by = t.get_clause(core, "order_by")
        if where:
            if columns:
                sites.append(((*core_path, where[0]),
                              {"clause": "where", "mode": "extend", "core": core_path}))
        elif columns:
            sites.append((core_path,
                          {"clause": "where", "mode": "create", "core": core_path}))
        if having:
            sites.append(((*core_path, having[0]),
                          {"clause": "having", "mode": "extend", "core": core_path}))
        elif group_by:
            sites.append((core_path,
                          {"clause": "having", "mode": "create", "core": core_path}))
        if not in_compound:
            if order_by:
                if _sort_candidates(core, columns):
                    sites.append(((*core_path, order_by[0]),
                                  {"clause": "order_by", "mode": "extend",
                                   "core": core_path}))
            elif columns:
                sites.append((core_path,
                              {"clause": "order_by", "mode": "create",
                               "core": core_path}))
    return sites


def _sort_candidates(core, columns):
    """Columns not already used as sort keys."""
    found = t.get_clause(core, "order_by")
    used = set()
    if found:
        for key in found[1].children:
            used.add(render_expr(key.children[0]))
    grouped = t.get_clause(core, "group_by") is not None
    group_keys = set()
    if grouped:
        for key in t.get_clause(core, "group_by")[1].children:
            group_keys.add(render_expr(key))
    out = []
    for label, table_name, col, affinity in columns:
        node = t.column(label, col)
        text = render_expr(node)
        if text in used:
            continue
        # in a grouped query only group keys are safe bare sort columns
        if grouped and text not in group_keys:
            continue
        out.append((label, table_name, col, affinity))
    if grouped:
        # aggregates are always available sort keys in a grouped query
        out.append(("", "", "*count*", "integer"))
    return out


def _join_sites(analysis):
    report, schema = analysis.report, analysis.schema
    graph = fk_join_graph(schema)
    sites = []
    for core_path, _ in report.cores:
        scope = report.scopes[core_path]
        present = {}  # real table name, lower-cased -> its first relation
        for rel in scope:
            if rel.table is not None:
                present.setdefault(rel.table.name.lower(), rel)
        labels = {rel.label.lower() for rel in scope}
        # a new table whose columns collide with unqualified references
        # anywhere under this core would make them ambiguous
        depth = len(core_path)
        bare_names = {
            b.name.lower()
            for b in (*report.resolved, *report.unresolved)
            if not b.qualifier and b.path[:depth] == core_path
        }
        candidates = []
        for real_name in sorted(present):
            rel = present[real_name]
            for edge in graph.get(rel.table.name, ()):
                if edge.table_b.lower() in present:
                    continue
                new_tab = schema.table(edge.table_b)
                new_cols = {c.lower() for c in new_tab.column_names()}
                if new_cols & bare_names:
                    continue
                candidates.append((rel.label, edge))
        if candidates:
            from_idx = t.get_clause(t.node_at(analysis.ast, core_path), "from")[0]
            sites.append(((*core_path, from_idx),
                          {"candidates": candidates, "labels": labels}))
    return sites


def _nest_sites(analysis):
    sites = []
    for path, node, ctx, relation, lit_class, affinity in analysis.comparisons:
        if ctx.depth != analysis.report.max_depth:
            continue  # keep the rewrite on the deepest core so depth grows
        if lit_class == "number" and affinity not in _NUMERIC_AFFINITIES:
            continue
        if lit_class == "text" and affinity != "text":
            continue
        sites.append(((*path, 1), {
            "comparison": node.value[0], "column": node.children[0],
            "relation": relation, "literal": node.children[1], "affinity": affinity,
        }))
    return sites


def _nest_source_candidates(schema, relation, column_name, affinity):
    """(table, column) pairs the scalar subquery may aggregate over.

    The compared column's own table comes first (and is the safe default);
    FK neighbours contribute any column of the matching affinity class.
    """
    numeric = affinity in _NUMERIC_AFFINITIES
    candidates = [(relation, column_name)]
    graph = fk_join_graph(schema)
    tab = schema.table(relation)
    if tab is None:
        return candidates
    for edge in graph.get(tab.name, ()):
        neighbour = schema.table(edge.table_b)
        for col in neighbour.columns:
            matches = (
                col.affinity in _NUMERIC_AFFINITIES if numeric
                else col.affinity == affinity
            )
            if matches:
                candidates.append((neighbour.name, col.name))
    return candidates


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

def plan_mutation(
    analysis: ParentAnalysis,
    op: OperatorId,
    seed: int,
    db: sqlite3.Connection,
) -> MutationPlan:
    """Pick a rewrite site uniformly (seeded) and build its grounded replacement."""
    sites = analysis.sites[op]
    if not sites:
        raise InfeasibleOperatorError(f"{op.name} has no eligible site")
    rng = random.Random(seed)
    path, info = sites[rng.randrange(len(sites))]
    return _OPERATORS[op][1](analysis, path, info, rng, db)


def _plan_func(analysis, path, names, rng, db):
    name = names[rng.randrange(len(names))]
    col = t.node_at(analysis.ast, path)
    label = f"{col.value[0]}.{col.value[1]}" if col.value[0] else col.value[1]
    return MutationPlan(OperatorId.FUNC, path, col, t.func(name, [col]),
                        f"apply {name.upper()} to {label}")


def _plan_op(analysis, path, info, rng, db):
    node = info["node"]
    col, lit = node.children
    omega = info["candidates"][rng.randrange(len(info["candidates"]))]
    relation, affinity = info["relation"], info["affinity"]
    col_name = col.value[1]

    if omega == "case":
        replacement = t.Node(t.OPERATOR, ("case",), (
            t.operator("when", [node, t.literal("1")]),
            t.operator("else", [t.literal("0")]),
        ))
    elif omega == "like":
        raw = lit.value[0]
        inner = raw[1:-1].replace("''", "'") if raw.startswith("'") else raw
        pattern = t.operator("||", [
            t.operator("||", [t.string("%"), t.string(inner)]), t.string("%"),
        ])
        replacement = t.operator("like", [col, pattern])
    elif omega in ("in", "not_in"):
        items = [lit]
        if omega == "in":
            extra = _other_value(db, relation, col_name, lit)
            if extra is not None:
                items.append(_value_literal(extra))
        else:
            items.append(_value_literal(
                _absent_value(db, relation, col_name, affinity)))
        replacement = t.operator(omega, [col, *items])
    elif omega == "between":
        lo, hi = _between_bounds(db, relation, col_name, lit)
        replacement = t.operator("between", [col, lo, hi])
    else:
        raise StructuralError(f"unknown OP rewrite {omega!r}")

    word = {"case": "CASE WHEN", "like": "LIKE", "in": "IN",
            "not_in": "NOT IN", "between": "BETWEEN"}[omega]
    return MutationPlan(OperatorId.OP, path, node, replacement,
                        f"use a {word} condition on {col_name}")


def _other_value(db, relation, col_name, lit):
    for value in _value_pool(db, relation, col_name):
        if _value_literal(value) != lit:
            return value
    return None


def _between_bounds(db, relation, col_name, lit):
    try:
        lit_num = float(lit.value[0])
    except ValueError:
        return lit, lit
    pool = [v for v in _value_pool(db, relation, col_name)
            if isinstance(v, (int, float))]
    if not pool:
        return lit, lit
    other = max(pool)
    if other < lit_num:
        other = min(pool)
    lo_num, hi_num = min(lit_num, other), max(lit_num, other)
    lo = lit if lo_num == lit_num else _value_literal(other)
    hi = lit if hi_num == lit_num else _value_literal(other)
    return lo, hi


def _plan_logic(analysis, path, info, rng, db):
    """A new WHERE/HAVING/ORDER BY clause on a core, or one predicate or key more."""
    ast = analysis.ast
    clause_kind, mode = info["clause"], info["mode"]
    core = t.node_at(ast, info["core"])
    columns = _scope_columns(analysis, info["core"])

    if clause_kind in ("where", "having"):
        connector = ("and", "or")[rng.randrange(2)] if mode == "extend" else "and"
        if clause_kind == "having":
            expr = t.operator(">=", [t.func("count", [t.star()]), t.literal("1")])
            summary = "keep groups having COUNT(*) >= 1"
        else:
            expr, summary = _sampled_predicate(columns, rng, db)
    else:
        connector = ""
        expr, summary = _sort_expr(core, columns, rng)

    target = t.node_at(ast, path)
    if mode == "create":  # the target is the core
        replacement = t.set_clause(target, t.clause(clause_kind, [expr]))
    elif clause_kind == "order_by":
        replacement = t.Node(target.kind, target.value, (*target.children, expr))
    else:
        old = target.children[0]
        kept = (old.children if old.kind == t.LOGICAL and old.value[0] == connector
                else (old,))
        replacement = t.Node(target.kind, target.value,
                             (t.logical(connector, (*kept, expr)),))
    return MutationPlan(OperatorId.LOGIC, path, target, replacement, summary)


def _sampled_predicate(columns, rng, db):
    pick = columns[rng.randrange(len(columns))]
    label, table_name, col_name, affinity = pick
    col = t.column(label, col_name)
    pool = _value_pool(db, table_name, col_name)
    if not pool:
        return t.operator("is_not_null", [col]), f"require {label}.{col_name} to be present"
    value = pool[rng.randrange(len(pool))]
    if affinity in _NUMERIC_AFFINITIES and isinstance(value, (int, float)):
        symbol = ("=", ">=", "<=")[rng.randrange(3)]
    else:
        symbol = "="
    pred = t.operator(symbol, [col, _value_literal(value)])
    return pred, f"filter where {render_expr(pred)}"


def _sort_expr(core, columns, rng):
    candidates = _sort_candidates(core, columns)
    if not candidates:
        raise InfeasibleOperatorError("no sort key candidate")
    label, table_name, col_name, _ = candidates[rng.randrange(len(candidates))]
    if col_name == "*count*":
        expr = t.func("count", [t.star()])
        text = "COUNT(*)"
    else:
        expr = t.column(label, col_name)
        text = render_expr(expr)
    direction = ("asc", "desc")[rng.randrange(2)]
    return t.sort_key(expr, direction), f"sort also by {text} {direction.upper()}"


def _plan_join(analysis, path, info, rng, db):
    candidates = info["candidates"]
    label, edge = candidates[rng.randrange(len(candidates))]
    kind = ("inner", "left")[rng.randrange(2)]
    alias = _fresh_alias(edge.table_b, info["labels"])
    parts = [
        t.operator("=", [t.column(label, ca), t.column(alias, cb)])
        for ca, cb in zip(edge.columns_a, edge.columns_b)
    ]
    condition = parts[0] if len(parts) == 1 else t.logical("and", parts)
    from_clause = t.node_at(analysis.ast, path)
    joined = t.join(kind, t.table(edge.table_b, alias), condition)
    return MutationPlan(
        OperatorId.JOIN, path, from_clause,
        t.Node(from_clause.kind, from_clause.value, (*from_clause.children, joined)),
        f"bring in {edge.table_b} via {render_expr(condition)}",
    )


def _fresh_alias(table_name: str, taken: set[str]) -> str:
    initials = "".join(w[0] for w in table_name.split("_") if w)
    candidates = [initials]
    for i in range(2, len(table_name) + 1):
        candidates.append(table_name[:i])
    for cand in candidates:
        if cand and cand.lower() not in taken:
            return cand
    i = 2
    while f"t{i}" in taken:
        i += 1
    return f"t{i}"


_AGG_FOR_COMPARISON = {
    ">": "min", ">=": "min", "<": "max", "<=": "max", "=": "max", "!=": "min",
}


def _plan_nest(analysis, path, info, rng, db):
    agg = _AGG_FOR_COMPARISON[info["comparison"]]
    col = info["column"]
    candidates = _nest_source_candidates(
        analysis.schema, info["relation"], col.value[1], info["affinity"])
    # the same-column aggregate is the safe default; bias toward it
    weighted = [candidates[0], candidates[0], *candidates[1:]]
    table_name, column_name = weighted[rng.randrange(len(weighted))]
    body = t.select_core([
        t.clause("select", [t.func(agg, [t.column("", column_name)])]),
        t.clause("from", [t.table(table_name)]),
        t.clause("limit", [t.literal("1")]),
    ])
    return MutationPlan(
        OperatorId.NEST, path, info["literal"], t.subquery(body),
        f"compare {col.value[1]} against {agg.upper()}({table_name}.{column_name})",
    )


def _plan_set(analysis, path, info, rng, db):
    symbol = ("union", "intersect", "except")[rng.randrange(3)]
    second, perturb_note = _perturbed_copy(analysis, symbol, rng, db)
    return MutationPlan(
        OperatorId.SET, path, analysis.ast, compose_set(symbol, analysis.ast, second),
        f"{symbol.upper().replace('_', ' ')} with a variant that {perturb_note}",
    )


def _perturbed_copy(analysis, symbol, rng, db):
    """Second operand for SET, shaped so the composition stays non-empty."""
    ast, schema = analysis.ast, analysis.schema
    relation_at, cores = analysis.report.relation_at, analysis.report.cores
    comparisons = [path for path, node in literal_comparisons(ast)
                   if _literal_class(node.children[1]) is not None]

    if symbol == "intersect":
        # relax the copy: drop one predicate so q ∩ copy == q
        for core_path, _ in cores:
            core = t.node_at(ast, core_path)
            found = t.get_clause(core, "where")
            if not found:
                continue
            idx, where = found
            preds = t.flat_predicates(where.children[0])
            if len(preds) > 1:
                keep = preds[:-1]
                new_expr = keep[0] if len(keep) == 1 else t.logical("and", keep)
                new_core = t.set_clause(core, t.clause("where", [new_expr]))
            else:
                kept = [c for c in core.children if c.value[0] != "where"]
                new_core = t.select_core(kept)
            return t.replace_at(ast, core_path, new_core), "drops one filter"
        return ast, "repeats the query"

    if comparisons:
        path = comparisons[rng.randrange(len(comparisons))]
        node = t.node_at(ast, path)
        col, lit = node.children
        relation = relation_at.get((*path, 0), "")
        replacement_value = (_other_value(db, relation, col.value[1], lit)
                             if relation else None)
        if replacement_value is None:
            affinity = _column_affinity(schema, relation, col.value[1]) or "text"
            replacement_value = _absent_value(db, relation, col.value[1], affinity)
        new_cmp = t.operator(node.value[0], [col, _value_literal(replacement_value)])
        changed = t.replace_at(ast, path, new_cmp)
        note = f"uses {render_expr(_value_literal(replacement_value))} instead"
        return changed, note

    # no predicate to perturb: narrow the copy so EXCEPT keeps everything
    for core_path, _ in cores:
        columns = _scope_columns(analysis, core_path)
        if not columns:
            continue
        label, table_name, col_name, affinity = columns[rng.randrange(len(columns))]
        absent = _absent_value(db, table_name, col_name, affinity)
        pred = t.operator("=", [t.column(label, col_name), _value_literal(absent)])
        core = t.node_at(ast, core_path)
        new_core = t.set_clause(core, t.clause("where", [pred]))
        return t.replace_at(ast, core_path, new_core), "matches nothing extra"
    return ast, "repeats the query"


def compose_set(symbol: str, left: t.Node, right: t.Node) -> t.Node:
    """``left`` and ``right`` combined under a set operator, as the engine accepts it."""
    return t.setop(symbol, _compound_operand(left, right_side=False),
                   _compound_operand(right, right_side=True))


def _compound_operand(query: t.Node, right_side: bool) -> t.Node:
    """Wrap a query unfit to be a compound operand as a derived table.

    The engine rejects compound operands that carry ORDER BY / LIMIT or a
    WITH prefix (and set operations only chain on the left), and it does
    not accept parenthesized operands, so SELECT * FROM (q) is the only
    faithful rendering.
    """
    needs_wrap = (
        t.has_trailing_clauses(query)
        or _has_with_prefix(query)
        or (right_side and query.kind == t.SETOP)
    )
    if not needs_wrap:
        return query
    return t.select_core([
        t.clause("select", [t.star()]),
        t.clause("from", [t.subquery(query)]),
    ])


def _has_with_prefix(query: t.Node) -> bool:
    core = query
    while core.kind == t.SETOP:
        core = core.children[0]
    return t.get_clause(core, "with") is not None


# Each operator's site enumerator, ``(analysis) -> [(target_path, info)]``,
# and its planner, ``(analysis, target_path, info, rng, db) -> plan``.
_OPERATORS = {
    OperatorId.FUNC: (_func_sites, _plan_func),
    OperatorId.OP: (_op_sites, _plan_op),
    OperatorId.LOGIC: (_logic_sites, _plan_logic),
    OperatorId.JOIN: (_join_sites, _plan_join),
    OperatorId.NEST: (_nest_sites, _plan_nest),
    OperatorId.SET: (lambda analysis: [((), None)], _plan_set),
}


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

def apply_mutation(ast: t.Node, plan: MutationPlan) -> t.Node:
    """Apply a plan, returning a new tree; the input is never modified.

    Raises ``StructuralError`` unless the node at the plan's target path is
    the one the plan was made from.
    """
    if t.node_at(ast, plan.target_path) != plan.original:
        raise StructuralError("plan does not match tree at target path")
    return t.replace_at(ast, plan.target_path, plan.replacement)
