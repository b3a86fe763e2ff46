"""Labeled ordered tree model for SQL queries.

Every query is a tree of immutable ``Node`` values: a node carries a kind
label, a small payload tuple, and an ordered tuple of children. Mutations
never edit a tree in place; they rebuild the spine from the root down to
the rewritten node.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import StructuralError

# Node kinds
SELECT = "select"
CLAUSE = "clause"
FUNCTION = "function"
OPERATOR = "operator"
LOGICAL = "logical"
SETOP = "setop"
JOIN = "join"
TABLE = "table"
COLUMN = "column"
LITERAL = "literal"
SUBQUERY = "subquery"
CTE = "cte"
WINDOW = "window"
STAR = "star"
ALIAS = "alias"
SORT = "sort"

# Canonical clause order inside a select core.
CLAUSE_ORDER = ("with", "select", "from", "where", "group_by", "having", "order_by", "limit")
_CLAUSE_RANK = {kind: i for i, kind in enumerate(CLAUSE_ORDER)}

AGGREGATE_FUNCTIONS = frozenset(
    {"count", "sum", "avg", "min", "max", "total", "group_concat"}
)

Path = tuple[int, ...]


class Node(NamedTuple):
    kind: str
    value: tuple = ()
    children: tuple["Node", ...] = ()

    def __repr__(self) -> str:  # compact for test failures
        val = ",".join(map(str, self.value))
        inner = f"[{len(self.children)}]" if self.children else ""
        return f"{self.kind}({val}){inner}"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def clause(kind: str, children, *flags: str) -> Node:
    if kind not in CLAUSE_ORDER:
        raise StructuralError(f"unknown clause kind {kind!r}")
    return Node(CLAUSE, (kind, *flags), tuple(children))


def select_core(clauses) -> Node:
    """Build a select node with clauses sorted into canonical order."""
    kids = sorted(clauses, key=lambda c: _CLAUSE_RANK[c.value[0]])
    seen = set()
    for c in kids:
        if c.kind != CLAUSE:
            raise StructuralError("select children must be clause nodes")
        if c.value[0] in seen:
            raise StructuralError(f"duplicate clause {c.value[0]!r}")
        seen.add(c.value[0])
    if "select" not in seen:
        raise StructuralError("select core requires a SELECT clause")
    return Node(SELECT, (), tuple(kids))


def column(qualifier: str, name: str) -> Node:
    return Node(COLUMN, (qualifier, name))


def table(name: str, alias: str = "") -> Node:
    return Node(TABLE, (name, alias))


def literal(lexeme: str) -> Node:
    return Node(LITERAL, (str(lexeme),))


def number(value) -> Node:
    return literal(repr(value) if isinstance(value, float) else str(value))


def string(text: str) -> Node:
    return literal("'" + text.replace("'", "''") + "'")


def func(name: str, args, distinct: bool = False) -> Node:
    value = (name.lower(), "distinct") if distinct else (name.lower(),)
    return Node(FUNCTION, value, tuple(args))


def operator(symbol: str, children) -> Node:
    return Node(OPERATOR, (symbol,), tuple(children))


def logical(connector: str, children) -> Node:
    kids = tuple(children)
    if connector == "not":
        if len(kids) != 1:
            raise StructuralError("NOT takes exactly one child")
    elif len(kids) < 2:
        raise StructuralError(f"{connector.upper()} takes at least two children")
    return Node(LOGICAL, (connector,), kids)


def setop(symbol: str, left: Node, right: Node, trailing=()) -> Node:
    return Node(SETOP, (symbol,), (left, right, *trailing))


def join(kind: str, source: Node, condition: Node | None = None) -> Node:
    kids = (source,) if condition is None else (source, condition)
    return Node(JOIN, (kind,), kids)


def subquery(query: Node, alias: str = "") -> Node:
    return Node(SUBQUERY, (alias,), (query,))


def cte(name: str, query: Node) -> Node:
    return Node(CTE, (name,), (subquery(query),))


def sort_key(expr: Node, direction: str = "asc") -> Node:
    return Node(SORT, (direction,), (expr,))


def star(qualifier: str = "") -> Node:
    return Node(STAR, (qualifier,))


def aliased(expr: Node, name: str) -> Node:
    return Node(ALIAS, (name,), (expr,))


# ---------------------------------------------------------------------------
# Navigation
# ---------------------------------------------------------------------------

def node_at(root: Node, path: Path) -> Node:
    node = root
    for i in path:
        try:
            node = node.children[i]
        except IndexError:
            raise StructuralError(f"path {path} does not resolve in tree")
    return node


def replace_at(root: Node, path: Path, new_node: Node) -> Node:
    """Return a new tree with the node at ``path`` replaced."""
    if not path:
        return new_node
    head, rest = path[0], path[1:]
    if head >= len(root.children):
        raise StructuralError(f"path {path} does not resolve in tree")
    kids = list(root.children)
    kids[head] = replace_at(kids[head], rest, new_node)
    return Node(root.kind, root.value, tuple(kids))


def walk(root: Node) -> Iterator[tuple[Path, Node]]:
    """Yield (path, node) for every node in pre-order."""
    stack: list[tuple[Path, Node]] = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.children) - 1, -1, -1):
            stack.append(((*path, i), node.children[i]))


def is_query(node: Node) -> bool:
    return node.kind in (SELECT, SETOP)


def get_clause(select_node: Node, kind: str) -> tuple[int, Node] | None:
    for i, child in enumerate(select_node.children):
        if child.kind == CLAUSE and child.value[0] == kind:
            return i, child
    return None


def set_clause(select_node: Node, new_clause: Node) -> Node:
    """Insert or replace a clause, keeping canonical order."""
    kind = new_clause.value[0]
    kept = [c for c in select_node.children if c.value[0] != kind]
    return select_core(kept + [new_clause])


def has_trailing_clauses(query: Node) -> bool:
    """True when a query carries a top-level ORDER BY or LIMIT."""
    if query.kind == SELECT:
        return any(get_clause(query, k) for k in ("order_by", "limit"))
    if query.kind == SETOP:
        return len(query.children) > 2
    return False


def flat_predicates(expr: Node) -> list[Node]:
    """Leaf predicates under AND/OR nesting, left to right."""
    if expr.kind == LOGICAL and expr.value[0] in ("and", "or"):
        out: list[Node] = []
        for child in expr.children:
            out.extend(flat_predicates(child))
        return out
    return [expr]
