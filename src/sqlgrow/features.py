"""Structural complexity features of a SQL query.

Nine counts per query: distinct tables referenced, join nodes, function
nodes, tokens of the canonical rendering, aggregate functions, subquery
nodes, window specs, CTEs, and maximum select-core nesting depth (root
depth is 1). Aggregates are classified by function name; CTE bodies count
toward both the CTE and subquery features.
"""

from __future__ import annotations

from typing import NamedTuple

from . import tree as t
from .errors import DomainError
from .lexer import tokenize
from .render import render_sql

FEATURE_COLUMNS = (
    ("tables", "Tables"),
    ("joins", "Joins"),
    ("functions", "Func."),
    ("tokens", "Toks."),
    ("aggregates", "Agg."),
    ("subqueries", "Subs."),
    ("windows", "Wins."),
    ("ctes", "CTEs"),
    ("nesting", "Nest."),
)
# the field names of FeatureVector and FeatureMeans, in declaration order
FEATURE_NAMES = tuple(name for name, _ in FEATURE_COLUMNS)


class _Features(NamedTuple):
    tables: float
    joins: float
    functions: float
    tokens: float
    aggregates: float
    subqueries: float
    windows: float
    ctes: float
    nesting: float

    def as_dict(self) -> dict[str, float]:
        return self._asdict()


class FeatureVector(_Features):
    """The nine counts of one query; counts no query can have raise DomainError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(FEATURE_NAMES, self):
            if value < 0:
                raise DomainError(f"feature {name} must be >= 0")
        if self.nesting < 1:
            raise DomainError("nesting depth is at least 1")
        if self.aggregates > self.functions:
            raise DomainError("aggregates cannot exceed functions")
        return self


class FeatureMeans(_Features):
    """The mean of each feature over a set of queries."""

    __slots__ = ()


def tokenize_sql(text: str) -> list[str]:
    """Deterministic lexical token list; ``a.b`` counts as three tokens."""
    return [tok.text for tok in tokenize(text)]


def extract_features(ast: t.Node) -> FeatureVector:
    """Count the nine structural features of a query tree."""
    table_names: set[str] = set()
    joins = functions = aggregates = subqueries = windows = ctes = 0
    max_depth = 1

    stack: list[tuple[t.Node, int]] = [(ast, 0)]
    while stack:
        node, depth = stack.pop()
        kind = node.kind
        if kind == t.SELECT:
            if depth == 0:
                depth = 1
            max_depth = max(max_depth, depth)
        elif kind == t.TABLE:
            table_names.add(node.value[0].lower())
        elif kind == t.JOIN:
            joins += 1
        elif kind == t.FUNCTION:
            functions += 1
            if node.value[0] in t.AGGREGATE_FUNCTIONS:
                aggregates += 1
        elif kind == t.SUBQUERY:
            subqueries += 1
        elif kind == t.WINDOW:
            windows += 1
        elif kind == t.CTE:
            ctes += 1
        child_depth = depth + 1 if kind == t.SUBQUERY else depth
        for child in node.children:
            stack.append((child, child_depth))

    return FeatureVector(
        tables=len(table_names),
        joins=joins,
        functions=functions,
        tokens=len(tokenize_sql(render_sql(ast))),
        aggregates=aggregates,
        subqueries=subqueries,
        windows=windows,
        ctes=ctes,
        nesting=max_depth,
    )


def aggregate_features(vectors: list[FeatureVector]) -> FeatureMeans:
    """Arithmetic mean per feature, reported to two decimals."""
    if not vectors:
        raise DomainError("cannot aggregate an empty feature list")
    n = len(vectors)
    means = {}
    for name in FEATURE_NAMES:
        means[name] = round(sum(getattr(v, name) for v in vectors) / n, 2)
    return FeatureMeans(**means)
