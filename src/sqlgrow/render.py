"""Canonical SQL rendering: the inverse of the parser.

Rendering is deterministic, emits clauses in canonical order, upper-cases
keywords, and inserts parentheses only where precedence requires them, so
``parse(render(ast))`` equals ``ast`` structurally.
"""

from __future__ import annotations

from . import tree as t
from .errors import StructuralError
from .lexer import KEYWORDS
from .sqlite import quote_ident

# Expression precedence, low to high. Parens are emitted when a child
# binds more loosely than its parent, and around the right operand of a
# binary operator when it binds no tighter: the parser reads every binary
# level left to right.
_PREC = {
    "or": 1,
    "and": 2,
    "not": 3,
    "=": 4, "!=": 4, "like": 4, "not_like": 4, "between": 4, "not_between": 4,
    "in": 4, "not_in": 4, "is_null": 4, "is_not_null": 4,
    "<": 5, "<=": 5, ">": 5, ">=": 5,
    "+": 6, "-": 6,
    "*": 7, "/": 7, "%": 7,
    "||": 8,
    "neg": 9, "pos": 9,
}
_ATOM_PREC = 10


def render_sql(ast: t.Node) -> str:
    """Render an AST to canonical SQL text."""
    if not t.is_query(ast):
        raise StructuralError(f"root must be a query node, got {ast.kind}")
    return _render_query(ast)


def render_expr(node: t.Node) -> str:
    """Render one expression, unparenthesized at the top level."""
    return _expr(node, 0)


def _render_query(node: t.Node) -> str:
    if node.kind == t.SELECT:
        return _render_select(node)
    if node.kind == t.SETOP:
        left, right = node.children[0], node.children[1]
        if right.kind == t.SETOP:
            raise StructuralError("set operations must nest on the left")
        for side in (left, right):
            if t.has_trailing_clauses(side):
                raise StructuralError(
                    "set operation operands may not carry ORDER BY or LIMIT; "
                    "wrap the operand in a derived table"
                )
        if t.get_clause(right, "with"):
            raise StructuralError(
                "only the first operand of a compound may carry WITH; "
                "wrap the operand in a derived table"
            )
        word = {"union": "UNION", "union_all": "UNION ALL",
                "intersect": "INTERSECT", "except": "EXCEPT"}[node.value[0]]
        parts = [_render_query(left), word, _render_query(right)]
        for extra in node.children[2:]:
            parts.append(_render_clause(extra))
        return " ".join(parts)
    raise StructuralError(f"not a query node: {node.kind}")


def _render_select(node: t.Node) -> str:
    parts = []
    for clause in node.children:
        parts.append(_render_clause(clause))
    return " ".join(parts)


def _render_clause(node: t.Node) -> str:
    kind = node.value[0]
    kids = node.children
    if kind == "with":
        return "WITH " + ", ".join(_render_cte(c) for c in kids)
    if kind == "select":
        head = "SELECT DISTINCT" if "distinct" in node.value[1:] else "SELECT"
        return head + " " + ", ".join(_expr(c, 0) for c in kids)
    if kind == "from":
        text = _render_source(kids[0])
        for join_node in kids[1:]:
            rendered = _render_join(join_node)
            text += rendered if rendered.startswith(",") else " " + rendered
        return "FROM " + text
    if kind == "where":
        return "WHERE " + _expr(kids[0], 0)
    if kind == "group_by":
        return "GROUP BY " + ", ".join(_expr(k, 0) for k in kids)
    if kind == "having":
        return "HAVING " + _expr(kids[0], 0)
    if kind == "order_by":
        return "ORDER BY " + ", ".join(_render_sort(k) for k in kids)
    if kind == "limit":
        if len(kids) == 2:
            return f"LIMIT {_expr(kids[0], 0)} OFFSET {_expr(kids[1], 0)}"
        return "LIMIT " + _expr(kids[0], 0)
    raise StructuralError(f"unknown clause kind {kind!r}")


def _render_cte(node: t.Node) -> str:
    if node.kind != t.CTE:
        raise StructuralError("WITH children must be CTE nodes")
    return f"{_ident(node.value[0])} AS {_render_subquery(node.children[0], with_alias=False)}"


def _render_source(node: t.Node) -> str:
    if node.kind == t.TABLE:
        name, alias = node.value
        return f"{_ident(name)} AS {_ident(alias)}" if alias else _ident(name)
    if node.kind == t.SUBQUERY:
        return _render_subquery(node, with_alias=True)
    raise StructuralError(f"invalid FROM source {node.kind}")


def _render_join(node: t.Node) -> str:
    if node.kind != t.JOIN:
        raise StructuralError("FROM children after the first must be join nodes")
    kind = node.value[0]
    source = _render_source(node.children[0])
    if kind == "comma":
        return f", {source}"
    if kind == "cross":
        return f"CROSS JOIN {source}"
    word = {"inner": "JOIN", "left": "LEFT JOIN"}[kind]
    if len(node.children) < 2:
        raise StructuralError(f"{kind} join requires an ON condition")
    return f"{word} {source} ON {_expr(node.children[1], 0)}"


def _render_subquery(node: t.Node, with_alias: bool) -> str:
    body = f"({_render_query(node.children[0])})"
    alias = node.value[0]
    if alias and with_alias:
        return f"{body} AS {_ident(alias)}"
    return body


def _render_sort(node: t.Node) -> str:
    if node.kind != t.SORT:
        raise StructuralError("ORDER BY children must be sort nodes")
    text = _expr(node.children[0], 0)
    return f"{text} DESC" if node.value[0] == "desc" else text


def _render_window(node: t.Node) -> str:
    inner = []
    for child in node.children[1:]:
        if child.value[0] == "group_by":
            inner.append("PARTITION BY " + ", ".join(_expr(k, 0) for k in child.children))
        else:
            inner.append(_render_clause(child))
    return f"{_expr(node.children[0], 0)} OVER ({' '.join(inner)})"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def _prec(node: t.Node) -> int:
    if node.kind == t.LOGICAL:
        return _PREC[node.value[0]]
    if node.kind == t.OPERATOR:
        return _PREC.get(node.value[0], _ATOM_PREC)
    return _ATOM_PREC


def _expr(node: t.Node, parent_prec: int) -> str:
    text = _expr_bare(node)
    return f"({text})" if _prec(node) < parent_prec else text


def _expr_bare(node: t.Node) -> str:
    kind = node.kind
    if kind == t.LITERAL:
        return node.value[0]
    if kind == t.COLUMN:
        qual, name = node.value
        return f"{_ident(qual)}.{_ident(name)}" if qual else _ident(name)
    if kind == t.STAR:
        return f"{_ident(node.value[0])}.*" if node.value[0] else "*"
    if kind == t.SUBQUERY:
        return _render_subquery(node, with_alias=False)
    if kind == t.FUNCTION:
        inner = ", ".join(_expr(a, 0) for a in node.children)
        if "distinct" in node.value[1:]:
            inner = "DISTINCT " + inner
        return f"{node.value[0].upper()}({inner})"
    if kind == t.WINDOW:
        return _render_window(node)
    if kind == t.LOGICAL:
        return _render_logical(node)
    if kind == t.OPERATOR:
        return _render_operator(node)
    if kind == t.ALIAS:
        return f"{_expr(node.children[0], 0)} AS {_ident(node.value[0])}"
    raise StructuralError(f"cannot render node kind {kind!r} as an expression")


def _render_logical(node: t.Node) -> str:
    conn = node.value[0]
    prec = _PREC[conn]
    if conn == "not":
        return "NOT " + _expr(node.children[0], prec + 1)
    word = f" {conn.upper()} "
    return word.join(_expr(c, prec + 1) for c in node.children)


def _render_operator(node: t.Node) -> str:
    sym = node.value[0]
    kids = node.children
    prec = _PREC.get(sym, _ATOM_PREC)
    if sym in ("=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "||"):
        left = _expr(kids[0], prec)
        right = _expr(kids[1], prec + 1)
        return f"{left} {sym} {right}"
    if sym in ("like", "not_like"):
        word = "LIKE" if sym == "like" else "NOT LIKE"
        return f"{_expr(kids[0], prec)} {word} {_expr(kids[1], prec + 1)}"
    if sym in ("between", "not_between"):
        word = "BETWEEN" if sym == "between" else "NOT BETWEEN"
        return (
            f"{_expr(kids[0], prec)} {word} "
            f"{_expr(kids[1], prec + 1)} AND {_expr(kids[2], prec + 1)}"
        )
    if sym in ("in", "not_in"):
        word = "IN" if sym == "in" else "NOT IN"
        lhs = _expr(kids[0], prec)
        if len(kids) == 2 and kids[1].kind == t.SUBQUERY:
            return f"{lhs} {word} {_render_subquery(kids[1], with_alias=False)}"
        items = ", ".join(_expr(k, 0) for k in kids[1:])
        return f"{lhs} {word} ({items})"
    if sym == "is_null":
        return f"{_expr(kids[0], prec)} IS NULL"
    if sym == "is_not_null":
        return f"{_expr(kids[0], prec)} IS NOT NULL"
    if sym == "exists":
        return f"EXISTS {_render_subquery(kids[0], with_alias=False)}"
    if sym == "not_exists":
        return f"NOT EXISTS {_render_subquery(kids[0], with_alias=False)}"
    if sym == "neg":
        operand = _expr(kids[0], _PREC["neg"])
        return ("- " if operand.startswith("-") else "-") + operand  # not a -- comment
    if sym == "pos":
        return "+" + _expr(kids[0], _PREC["pos"])
    if sym == "cast":
        return f"CAST({_expr(kids[0], 0)} AS {kids[1].value[0].upper()})"
    if sym == "case":
        parts = ["CASE"]
        kids_iter = list(kids)
        if "simple" in node.value[1:]:
            parts.append(_expr(kids_iter.pop(0), 0))
        for branch in kids_iter:
            if branch.value[0] == "when":
                parts.append(f"WHEN {_expr(branch.children[0], 0)} THEN {_expr(branch.children[1], 0)}")
            elif branch.value[0] == "else":
                parts.append(f"ELSE {_expr(branch.children[0], 0)}")
            else:
                raise StructuralError("CASE children must be WHEN/ELSE branches")
        parts.append("END")
        return " ".join(parts)
    raise StructuralError(f"unknown operator symbol {sym!r}")


_PLAIN_IDENT = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")
# The 147 words SQLite reads as keywords (https://www.sqlite.org/lang_keywords.html,
# as sqlite3_keyword_name lists them in SQLite 3.40). SQLite takes some of them
# as bare names and refuses others, such as ``index`` and ``values``; the
# subset's own keywords add ``true`` and ``false``. Each is quoted.
_QUOTED_WORDS = KEYWORDS | frozenset("""
    abort action add after all alter always analyze and as asc attach
    autoincrement before begin between by cascade case cast check collate column
    commit conflict constraint create cross current current_date current_time
    current_timestamp database default deferrable deferred delete desc detach
    distinct do drop each else end escape except exclude exclusive exists explain
    fail filter first following for foreign from full generated glob group groups
    having if ignore immediate in index indexed initially inner insert instead
    intersect into is isnull join key last left like limit match materialized
    natural no not nothing notnull null nulls of offset on or order others outer
    over partition plan pragma preceding primary query raise range recursive
    references regexp reindex release rename replace restrict returning right
    rollback row rows savepoint select set table temp temporary then ties to
    transaction trigger unbounded union unique update using vacuum values view
    virtual when where window with without
""".split())


def _ident(name: str) -> str:
    if not name:
        raise StructuralError("empty identifier")
    plain = (
        name[0].isalpha() or name[0] == "_"
    ) and _PLAIN_IDENT.issuperset(name) and name not in _QUOTED_WORDS
    return name if plain else quote_ident(name)
