"""Column reference resolution against a schema.

Scoping follows the engine: a column is looked up in the innermost FROM
scope first, then in enclosing (correlated) scopes. Unqualified columns
matching more than one relation in the same scope raise an ambiguity
error; references that match nothing are reported, never dropped.

The same walk records what the mutation operators read: the ``Context``
of every FROM table and expression node, each select core with whether it
is a compound operand, the deepest nesting, the ``Relation``s each core's
FROM clause brings into scope (``scopes``), and the relation each bound
column names (``relation_at``). ``_from_scope`` is the one reader of a
FROM clause's sources; star expansion filters its relations.
"""

from __future__ import annotations

from typing import NamedTuple

from . import tree as t
from .errors import AmbiguousColumnError, StructuralError
from .render import render_expr
from .schema import DatabaseSchema, TableDef


class Binding(NamedTuple):
    path: t.Path
    qualifier: str
    name: str
    relation: str  # real table name, derived-table alias, or CTE name


class Context(NamedTuple):
    """Where a node sits: its clause and select core, and what encloses it."""

    clause: str  # a clause kind, "on" for a join condition, or "setop_trailing"
    select_path: t.Path
    depth: int  # 1 for the outermost cores; each subquery or CTE body adds 1
    grouped: bool
    in_aggregate: bool = False
    in_window: bool = False
    in_compound: bool = False


class Relation(NamedTuple):
    """One source a FROM clause brings into scope."""

    label: str            # what qualified refs must use (alias, or table name as written)
    relation: str         # reported origin
    columns: tuple[str, ...]  # lower-case
    table: TableDef | None = None  # the schema table a TABLE source names


class BindingReport:
    """What one walk found; ``resolve_references`` fills it as it walks."""

    __slots__ = ("resolved", "unresolved", "contexts", "cores", "max_depth", "scopes",
                 "relation_at")

    def __init__(self):
        self.resolved: list[Binding] = []
        self.unresolved: list[Binding] = []
        self.contexts: dict[t.Path, Context] = {}
        self.cores: list[tuple[t.Path, bool]] = []  # (path, in_compound)
        self.max_depth = 1
        self.scopes: dict[t.Path, list[Relation]] = {}  # core -> FROM
        self.relation_at: dict[t.Path, str] = {}  # resolved column -> relation


def resolve_references(ast: t.Node, schema: DatabaseSchema) -> BindingReport:
    """Bind every column reference in the tree, innermost scope first."""
    report = BindingReport()
    _resolve_query(ast, (), [], {}, schema, report, 1, False)
    return report


def _resolve_query(node, path, outer_scopes, cte_env, schema, report, depth, in_compound):
    if node.kind == t.SELECT:
        _resolve_select(node, path, outer_scopes, cte_env, schema, report, depth,
                        in_compound)
        return
    if node.kind == t.SETOP:
        env = dict(cte_env)
        lead = node.children[0]
        while lead.kind == t.SETOP:
            lead = lead.children[0]
        found = t.get_clause(lead, "with")
        if found:
            for cte_node in found[1].children:
                body = cte_node.children[0].children[0]
                env[cte_node.value[0]] = tuple(_output_columns(body, schema, env))
        for i in (0, 1):
            _resolve_query(node.children[i], (*path, i), outer_scopes, env, schema,
                           report, depth, True)
        # trailing ORDER BY resolves against the left-most core's scope
        ctx = Context("setop_trailing", path, depth, False, in_compound=True)
        scope = _from_scope(lead, schema, env)
        for i, extra in enumerate(node.children[2:], start=2):
            for j, child in enumerate(extra.children):
                _resolve_expr(child, (*path, i, j), [scope] + outer_scopes,
                              env, schema, report, ctx, alias_env=_select_aliases(lead))
        return
    raise StructuralError(f"cannot resolve non-query root {node.kind}")


def _resolve_select(node, path, outer_scopes, cte_env, schema, report, depth, in_compound):
    report.max_depth = max(report.max_depth, depth)
    report.cores.append((path, in_compound))
    env = dict(cte_env)
    found = t.get_clause(node, "with")
    if found:
        idx, with_clause = found
        for i, cte_node in enumerate(with_clause.children):
            body = cte_node.children[0].children[0]
            _resolve_query(body, (*path, idx, i, 0, 0), [], env, schema, report,
                           depth + 1, False)
            env[cte_node.value[0]] = tuple(_output_columns(body, schema, env))

    scope = report.scopes[path] = _from_scope(node, schema, env)
    scopes = [scope] + outer_scopes if scope else outer_scopes
    alias_env = _select_aliases(node)
    grouped = t.get_clause(node, "group_by") is not None

    for idx, clause_node in enumerate(node.children):
        kind = clause_node.value[0]
        if kind == "with":
            continue
        ctx = Context(kind, path, depth, grouped, in_compound=in_compound)
        use_aliases = alias_env if kind in ("group_by", "having", "order_by") else ()
        for j, child in enumerate(clause_node.children):
            if kind == "from":
                _resolve_source(child, (*path, idx, j), scopes, env, schema, report, ctx)
            else:
                _resolve_expr(child, (*path, idx, j), scopes, env, schema, report, ctx,
                              alias_env=use_aliases)


def _resolve_source(node, path, scopes, cte_env, schema, report, ctx):
    if node.kind == t.TABLE:
        report.contexts[path] = ctx
        return
    if node.kind == t.SUBQUERY:
        _resolve_query(node.children[0], (*path, 0), [], cte_env, schema, report,
                       ctx.depth + 1, False)
        return
    if node.kind == t.JOIN:
        _resolve_source(node.children[0], (*path, 0), scopes, cte_env, schema, report, ctx)
        if len(node.children) > 1:
            _resolve_expr(node.children[1], (*path, 1), scopes, cte_env, schema, report,
                          ctx._replace(clause="on"))
        return
    raise StructuralError(f"invalid FROM child {node.kind}")


def _resolve_expr(node, path, scopes, cte_env, schema, report, ctx, alias_env=()):
    report.contexts[path] = ctx
    if node.kind == t.COLUMN:
        _bind_column(node, path, scopes, report, alias_env)
        return
    if node.kind == t.SUBQUERY:
        _resolve_query(node.children[0], (*path, 0), scopes, cte_env, schema, report,
                       ctx.depth + 1, False)
        return
    if node.kind == t.FUNCTION and node.value[0] in t.AGGREGATE_FUNCTIONS:
        ctx = ctx._replace(in_aggregate=True)
    elif node.kind == t.WINDOW:
        ctx = ctx._replace(in_window=True)
    for i, child in enumerate(node.children):
        _resolve_expr(child, (*path, i), scopes, cte_env, schema, report, ctx, alias_env)


def _bind_column(node, path, scopes, report, alias_env):
    qualifier, name = node.value
    relation, bound = _lookup(qualifier, name, scopes, alias_env)
    binding = Binding(path, qualifier, name, relation)
    if bound:
        report.resolved.append(binding)
        report.relation_at[path] = relation
    else:
        report.unresolved.append(binding)


def _lookup(qualifier, name, scopes, alias_env) -> tuple[str, bool]:
    """The relation a column names (or ""), and whether the column binds there."""
    low = name.lower()
    if qualifier:
        qlow = qualifier.lower()
        for scope in scopes:
            for rel in scope:
                if rel.label.lower() == qlow:
                    return rel.relation, low in rel.columns
        return "", False

    for scope in scopes:
        matches = [rel for rel in scope if low in rel.columns]
        if len(matches) > 1:
            raise AmbiguousColumnError(name, [m.relation for m in matches])
        if matches:
            return matches[0].relation, True
    if low in alias_env:
        return "<select-alias>", True
    return "", False


def _from_scope(select_node, schema, cte_env):
    found = t.get_clause(select_node, "from")
    if not found:
        return []
    _, from_clause = found
    relations: list[Relation] = []
    for child in from_clause.children:
        source = child.children[0] if child.kind == t.JOIN else child
        relations.append(_relation_for(source, schema, cte_env))
    return relations


def _relation_for(source, schema, cte_env):
    if source.kind == t.TABLE:
        name, alias = source.value
        label = alias or name
        low = name.lower()
        for cte_name, cols in cte_env.items():
            if cte_name.lower() == low:
                return Relation(label, name, cols)
        tab = schema.table(name)
        if tab is None:
            # unknown relation: nothing can bind to it
            return Relation(label, name, ())
        return Relation(label, tab.name, tuple(c.lower() for c in tab.column_names()), tab)
    if source.kind == t.SUBQUERY:
        alias = source.value[0]
        cols = tuple(_output_columns(source.children[0], schema, cte_env))
        label = alias or "(subquery)"
        return Relation(label, label, cols)
    raise StructuralError(f"invalid FROM source {source.kind}")


def _output_columns(query, schema, cte_env) -> list[str]:
    """Best-effort output column names of a query, for derived tables."""
    core = query
    while core.kind == t.SETOP:
        core = core.children[0]
    found = t.get_clause(core, "select")
    if not found:
        return []
    names: list[str] = []
    for item in found[1].children:
        if item.kind == t.ALIAS:
            names.append(item.value[0].lower())
        elif item.kind == t.COLUMN:
            names.append(item.value[1].lower())
        elif item.kind == t.STAR:
            names.extend(_star_columns(core, item.value[0], schema, cte_env))
        else:
            names.append(render_expr(item))
    return names


def _star_columns(core, qualifier, schema, cte_env) -> list[str]:
    """The columns ``*`` (or ``qualifier.*``) stands for in a core's FROM scope."""
    qlow = qualifier.lower()
    return [
        col
        for rel in _from_scope(core, schema, cte_env)
        if rel.columns and (not qlow or qlow in (rel.label.lower(), rel.relation.lower()))
        for col in rel.columns
    ]


def _select_aliases(select_node) -> tuple[str, ...]:
    found = t.get_clause(select_node, "select")
    if not found:
        return ()
    return tuple(
        item.value[0].lower() for item in found[1].children if item.kind == t.ALIAS
    )
