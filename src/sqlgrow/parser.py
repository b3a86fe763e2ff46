"""Recursive-descent parser for the supported SQLite dialect subset.

Covers: SELECT cores with DISTINCT, stars and expressions; FROM with comma
sources and INNER/LEFT/CROSS joins (ON required for inner/left); WHERE,
GROUP BY, HAVING, ORDER BY, LIMIT/OFFSET; scalar and aggregate functions;
window functions with OVER(PARTITION BY ... ORDER BY ...); CASE; CAST;
BETWEEN / IN / NOT IN / LIKE / IS NULL / EXISTS; scalar, IN-list and
derived-table subqueries; non-recursive CTEs; UNION / UNION ALL /
INTERSECT / EXCEPT.

Everything else (DDL, DML, PRAGMA, recursive CTEs, USING joins, window
frames) is rejected with an UnsupportedSqlError.
"""

from __future__ import annotations

from . import tree as t
from .errors import SqlSyntaxError, UnsupportedSqlError
from .lexer import Token, tokenize

_UNSUPPORTED_LEADS = {
    "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER", "PRAGMA",
    "REPLACE", "VACUUM", "ATTACH", "EXPLAIN",
}


def parse_sql(text: str, tokens: list[Token] | None = None) -> t.Node:
    """Parse SQL text into its labeled ordered tree.

    ``tokens``, when given, must be ``tokenize(text)``; a caller that has
    lexed the text already hands them on, so it is not lexed twice.
    """
    if not text or not text.strip():
        raise SqlSyntaxError("empty SQL text", 0)
    if tokens is None:
        tokens = tokenize(text)
    if not tokens:
        raise SqlSyntaxError("empty SQL text", 0)
    parser = _Parser(tokens)
    node = parser.parse_query()
    if not parser.at_end():
        raise SqlSyntaxError(
            f"unexpected trailing input {parser.texts[parser.i]!r}", parser.position())
    return node


# Left-associative binary operators above the predicate level, by binding
# strength; a higher level binds tighter.
_BINARY_LEVEL = {
    "<": 1, "<=": 1, ">": 1, ">=": 1,
    "+": 2, "-": 2,
    "*": 3, "/": 3, "%": 3,
    "||": 4,
}


class _Parser:
    """Token types and texts sit in two lists that end in two sentinels of
    type "", so a look at the current token or the one after it needs no
    bounds check."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        types, texts, _ = zip(*tokens)
        self.types = [*types, "", ""]
        self.texts = [*texts, "", ""]
        self.end = len(tokens)
        self.i = 0

    # -- token helpers ----------------------------------------------------

    def at_end(self) -> bool:
        return self.i >= self.end

    def position(self) -> int:
        """Where the next token starts; at end of input, where the last one does."""
        return self.tokens[min(self.i, self.end - 1)].pos

    def _got(self) -> str:
        return "end of input" if self.i >= self.end else repr(self.texts[self.i])

    def at_kw(self, *words: str) -> bool:
        return self.types[self.i] == "kw" and self.texts[self.i] in words

    def accept_kw(self, *words: str) -> bool:
        if self.types[self.i] == "kw" and self.texts[self.i] in words:
            self.i += 1
            return True
        return False

    def expect_kw(self, word: str) -> None:
        if self.types[self.i] != "kw" or self.texts[self.i] != word:
            raise SqlSyntaxError(f"expected {word}, got {self._got()}", self.position())
        self.i += 1

    def accept_punct(self, ch: str) -> bool:
        if self.types[self.i] == "punct" and self.texts[self.i] == ch:
            self.i += 1
            return True
        return False

    def expect_punct(self, ch: str) -> None:
        if self.types[self.i] != "punct" or self.texts[self.i] != ch:
            raise SqlSyntaxError(f"expected {ch!r}, got {self._got()}", self.position())
        self.i += 1

    def expect_ident(self, what: str = "identifier") -> str:
        if self.types[self.i] != "ident":
            raise SqlSyntaxError(f"expected {what}, got {self._got()}", self.position())
        self.i += 1
        return self.texts[self.i - 1]

    # -- query level -------------------------------------------------------

    def parse_query(self) -> t.Node:
        i = self.i
        if self.types[i] in ("kw", "ident") and self.texts[i].upper() in _UNSUPPORTED_LEADS:
            raise UnsupportedSqlError(
                f"unsupported statement {self.texts[i].upper()}", self.position())

        with_ctes: list[t.Node] = []
        if self.accept_kw("WITH"):
            i = self.i
            if self.texts[i].lower() == "recursive" and self.types[i + 1] == "ident":
                raise UnsupportedSqlError("recursive CTEs are not supported",
                                          self.position())
            with_ctes.append(self.parse_cte())
            while self.accept_punct(","):
                with_ctes.append(self.parse_cte())

        core = self.parse_select_core()
        compounds: list[tuple[str, t.Node]] = []
        while self.at_kw("UNION", "INTERSECT", "EXCEPT"):
            word = self.texts[self.i]
            self.i += 1
            symbol = word.lower()
            if word == "UNION" and self.accept_kw("ALL"):
                symbol = "union_all"
            compounds.append((symbol, self.parse_select_core()))

        order_by = self.parse_order_by() if self.at_kw("ORDER") else None
        limit = self.parse_limit() if self.at_kw("LIMIT") else None

        if with_ctes:
            core = t.set_clause(core, t.clause("with", with_ctes))

        if not compounds:
            if order_by is not None:
                core = t.set_clause(core, order_by)
            if limit is not None:
                core = t.set_clause(core, limit)
            return core

        node = core
        for symbol, rhs in compounds:
            node = t.setop(symbol, node, rhs)
        trailing = [c for c in (order_by, limit) if c is not None]
        if trailing:
            node = t.Node(t.SETOP, node.value, (*node.children, *trailing))
        return node

    def parse_cte(self) -> t.Node:
        name = self.expect_ident("CTE name")
        self.expect_kw("AS")
        self.expect_punct("(")
        body = self.parse_query()
        self.expect_punct(")")
        return t.cte(name, body)

    def parse_select_core(self) -> t.Node:
        self.expect_kw("SELECT")
        flags = []
        if self.accept_kw("DISTINCT"):
            flags.append("distinct")
        else:
            self.accept_kw("ALL")
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())
        clauses = [t.clause("select", items, *flags)]

        if self.accept_kw("FROM"):
            clauses.append(t.clause("from", self.parse_from_sources()))
        if self.accept_kw("WHERE"):
            clauses.append(t.clause("where", [self.parse_expr()]))
        if self.at_kw("GROUP"):
            self.i += 1
            self.expect_kw("BY")
            keys = [self.parse_expr()]
            while self.accept_punct(","):
                keys.append(self.parse_expr())
            clauses.append(t.clause("group_by", keys))
        if self.accept_kw("HAVING"):
            clauses.append(t.clause("having", [self.parse_expr()]))
        return t.select_core(clauses)

    def parse_order_by(self) -> t.Node:
        self.expect_kw("ORDER")
        self.expect_kw("BY")
        keys = [self.parse_sort_key()]
        while self.accept_punct(","):
            keys.append(self.parse_sort_key())
        return t.clause("order_by", keys)

    def parse_sort_key(self) -> t.Node:
        expr = self.parse_expr()
        direction = "asc"
        if self.accept_kw("DESC"):
            direction = "desc"
        else:
            self.accept_kw("ASC")
        return t.sort_key(expr, direction)

    def parse_limit(self) -> t.Node:
        self.expect_kw("LIMIT")
        count = self.parse_expr()
        if self.accept_kw("OFFSET"):
            return t.clause("limit", [count, self.parse_expr()])
        if self.accept_punct(","):
            # LIMIT skip, count  ==  LIMIT count OFFSET skip
            real_count = self.parse_expr()
            return t.clause("limit", [real_count, count])
        return t.clause("limit", [count])

    # -- FROM --------------------------------------------------------------

    def parse_from_sources(self) -> list[t.Node]:
        sources = [self.parse_source()]
        while True:
            if self.accept_punct(","):
                sources.append(t.join("comma", self.parse_source()))
                continue
            kind = self.parse_join_kind()
            if kind is None:
                break
            source = self.parse_source()
            if kind == "cross":
                sources.append(t.join("cross", source))
                continue
            if self.at_kw("USING"):
                raise UnsupportedSqlError("USING joins are not supported", self.position())
            self.expect_kw("ON")
            sources.append(t.join(kind, source, self.parse_expr()))
        return sources

    def parse_join_kind(self) -> str | None:
        if self.accept_kw("JOIN"):
            return "inner"
        if self.at_kw("INNER"):
            self.i += 1
            self.expect_kw("JOIN")
            return "inner"
        if self.at_kw("LEFT"):
            self.i += 1
            self.accept_kw("OUTER")
            self.expect_kw("JOIN")
            return "left"
        if self.at_kw("CROSS"):
            self.i += 1
            self.expect_kw("JOIN")
            return "cross"
        if self.at_kw("RIGHT", "FULL", "NATURAL"):
            raise UnsupportedSqlError(
                f"{self.texts[self.i]} joins are not supported", self.position()
            )
        return None

    def parse_source(self) -> t.Node:
        if self.accept_punct("("):
            body = self.parse_query()
            self.expect_punct(")")
            return t.subquery(body, self.parse_optional_alias() or "")
        name = self.expect_ident("table name")
        return t.table(name, self.parse_optional_alias() or "")

    def parse_optional_alias(self) -> str | None:
        """The alias that follows, with or without AS, or None; SQLite also
        takes a string literal as an alias, which is refused by name."""
        written_as = self.accept_kw("AS")
        if self.types[self.i] == "string":
            raise UnsupportedSqlError(
                f"string-literal alias {self.texts[self.i]!r} is not supported",
                self.position())
        if written_as or self.types[self.i] == "ident":
            return self.expect_ident("alias")
        return None

    # -- select items --------------------------------------------------------

    def parse_select_item(self) -> t.Node:
        i, types, texts = self.i, self.types, self.texts
        if types[i] == "op" and texts[i] == "*":
            self.i += 1
            return t.star()
        if types[i] == "ident" and types[i + 1] == "punct" and texts[i + 1] == "." \
                and types[i + 2] == "op" and texts[i + 2] == "*":
            self.i += 3
            return t.star(texts[i])
        expr = self.parse_expr()
        alias = self.parse_optional_alias()
        return expr if alias is None else t.aliased(expr, alias)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> t.Node:
        return self.parse_or()

    def parse_or(self) -> t.Node:
        node = self.parse_and()
        if self.types[self.i] != "kw" or self.texts[self.i] != "OR":
            return node
        children = [node]
        while self.accept_kw("OR"):
            children.append(self.parse_and())
        return t.logical("or", _flatten("or", children))

    def parse_and(self) -> t.Node:
        node = self.parse_not()
        if self.types[self.i] != "kw" or self.texts[self.i] != "AND":
            return node
        children = [node]
        while self.accept_kw("AND"):
            children.append(self.parse_not())
        return t.logical("and", _flatten("and", children))

    def parse_not(self) -> t.Node:
        if self.types[self.i] == "kw" and self.texts[self.i] == "NOT":
            if self.types[self.i + 1] == "kw" and self.texts[self.i + 1] == "EXISTS":
                self.i += 2
                return t.operator("not_exists", [self.parse_subquery_parens()])
            self.i += 1
            return t.logical("not", [self.parse_not()])
        return self.parse_predicate()

    def parse_predicate(self) -> t.Node:
        node = self.parse_binary()
        types, texts = self.types, self.texts
        while True:
            kind, word = types[self.i], texts[self.i]
            if kind == "op" and word in ("=", "!="):
                self.i += 1
                node = t.operator(word, [node, self.parse_binary()])
                continue
            if kind != "kw":
                return node
            if word == "IS":
                self.i += 1
                negated = self.accept_kw("NOT")
                if not self.at_kw("NULL") and not self.at_end():
                    raise UnsupportedSqlError(
                        f"IS{' NOT' if negated else ''} comparison with {self._got()} "
                        "is not supported", self.position())
                self.expect_kw("NULL")
                node = t.operator("is_not_null" if negated else "is_null", [node])
                continue
            negated = word == "NOT" and types[self.i + 1] == "kw" \
                and texts[self.i + 1] in ("LIKE", "BETWEEN", "IN")
            if negated:
                self.i += 1
                word = texts[self.i]
            if word == "LIKE":
                self.i += 1
                node = t.operator(
                    "not_like" if negated else "like", [node, self.parse_binary()]
                )
                continue
            if word == "BETWEEN":
                self.i += 1
                low = self.parse_binary()
                self.expect_kw("AND")
                high = self.parse_binary()
                node = t.operator(
                    "not_between" if negated else "between", [node, low, high]
                )
                continue
            if word == "IN":
                self.i += 1
                node = self.parse_in_rhs(node, negated)
                continue
            if word == "NOT" and types[self.i + 1] == "kw" and texts[self.i + 1] == "NULL":
                word = "NOT NULL"
            if word in ("ISNULL", "NOTNULL", "NOT NULL"):  # SQLite's, not the subset's
                raise UnsupportedSqlError(f"postfix {word} is not supported", self.position())
            return node

    def parse_in_rhs(self, lhs: t.Node, negated: bool) -> t.Node:
        symbol = "not_in" if negated else "in"
        self.expect_punct("(")
        if self.at_kw("SELECT", "WITH"):
            body = self.parse_query()
            self.expect_punct(")")
            return t.operator(symbol, [lhs, t.subquery(body)])
        items = [self.parse_expr()]
        while self.accept_punct(","):
            items.append(self.parse_expr())
        self.expect_punct(")")
        return t.operator(symbol, [lhs, *items])

    def parse_binary(self, min_level: int = 1) -> t.Node:
        """Binary operators of ``_BINARY_LEVEL`` from ``min_level`` up, by
        precedence climbing: each level is left-associative."""
        node = self.parse_unary()
        while self.types[self.i] == "op":
            sym = self.texts[self.i]
            level = _BINARY_LEVEL.get(sym, 0)
            if level < min_level:
                break
            self.i += 1
            node = t.operator(sym, [node, self.parse_binary(level + 1)])
        return node

    def parse_unary(self) -> t.Node:
        # unary + is kept: in SQLite it strips affinity and index use
        if self.types[self.i] == "op" and self.texts[self.i] in ("-", "+"):
            self.i += 1
            sign = "neg" if self.texts[self.i - 1] == "-" else "pos"
            return t.operator(sign, [self.parse_unary()])
        return self.parse_primary()

    def parse_subquery_parens(self) -> t.Node:
        self.expect_punct("(")
        body = self.parse_query()
        self.expect_punct(")")
        return t.subquery(body)

    def parse_primary(self) -> t.Node:
        i, types, texts = self.i, self.types, self.texts
        kind, text = types[i], texts[i]
        if not kind:
            raise SqlSyntaxError("unexpected end of input", self.position())

        if kind in ("number", "string"):
            self.i += 1
            return t.literal(text)
        if kind == "kw":
            if text in ("NULL", "TRUE", "FALSE"):
                self.i += 1
                return t.literal(text)
            if text == "CASE":
                return self.parse_case()
            if text == "CAST":
                return self.parse_cast()
            if text == "EXISTS":
                self.i += 1
                return t.operator("exists", [self.parse_subquery_parens()])

        if kind == "punct" and text == "(":
            if types[i + 1] == "kw" and texts[i + 1] in ("SELECT", "WITH"):
                return self.parse_subquery_parens()
            self.i += 1
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner

        if kind == "ident":
            if types[i + 1] == "punct" and texts[i + 1] == "(":
                return self.parse_function_call()
            if types[i + 1] == "punct" and texts[i + 1] == ".":
                self.i += 2
                if types[i + 2] == "op" and texts[i + 2] == "*":
                    self.i += 1
                    return t.star(text)
                return t.column(text, self.expect_ident("column name"))
            self.i += 1
            return t.column("", text)

        raise SqlSyntaxError(f"unexpected token {text!r}", self.position())

    def parse_function_call(self) -> t.Node:
        name = self.expect_ident("function name")
        self.expect_punct("(")
        distinct = False
        args: list[t.Node] = []
        if self.types[self.i] == "op" and self.texts[self.i] == "*":
            self.i += 1
            args.append(t.star())
        elif self.types[self.i] != "punct" or self.texts[self.i] != ")":
            if self.accept_kw("DISTINCT"):
                distinct = True
            args.append(self.parse_expr())
            while self.accept_punct(","):
                args.append(self.parse_expr())
        self.expect_punct(")")
        node = t.func(name, args, distinct=distinct)
        if self.at_kw("OVER"):
            self.i += 1
            return self.parse_window(node)
        return node

    def parse_window(self, func_node: t.Node) -> t.Node:
        self.expect_punct("(")
        kids: list[t.Node] = [func_node]
        if self.at_kw("PARTITION"):
            self.i += 1
            self.expect_kw("BY")
            keys = [self.parse_expr()]
            while self.accept_punct(","):
                keys.append(self.parse_expr())
            kids.append(t.clause("group_by", keys, "partition"))
        if self.at_kw("ORDER"):
            kids.append(self.parse_order_by())
        if self.types[self.i] == "ident" and self.texts[self.i] in ("rows", "range", "groups"):
            raise UnsupportedSqlError("window frames are not supported", self.position())
        self.expect_punct(")")
        return t.Node(t.WINDOW, (), tuple(kids))

    def parse_case(self) -> t.Node:
        self.expect_kw("CASE")
        kids: list[t.Node] = []
        simple = not self.at_kw("WHEN")
        if simple:
            kids.append(self.parse_expr())
        while self.accept_kw("WHEN"):
            cond = self.parse_expr()
            self.expect_kw("THEN")
            kids.append(t.operator("when", [cond, self.parse_expr()]))
        if self.accept_kw("ELSE"):
            kids.append(t.operator("else", [self.parse_expr()]))
        self.expect_kw("END")
        if len([k for k in kids if k.kind == t.OPERATOR and k.value[0] == "when"]) == 0:
            raise SqlSyntaxError("CASE requires at least one WHEN branch",
                                 self.position())
        value = ("case", "simple") if simple else ("case",)
        return t.Node(t.OPERATOR, value, tuple(kids))

    def parse_cast(self) -> t.Node:
        self.expect_kw("CAST")
        self.expect_punct("(")
        expr = self.parse_expr()
        self.expect_kw("AS")
        if self.types[self.i] not in ("ident", "kw"):
            raise SqlSyntaxError("expected type name in CAST", self.position())
        self.i += 1
        type_name = self.texts[self.i - 1].lower()
        self.expect_punct(")")
        return t.operator("cast", [expr, t.literal(type_name)])


def _flatten(connector: str, children: list[t.Node]) -> list[t.Node]:
    out: list[t.Node] = []
    for child in children:
        if child.kind == t.LOGICAL and child.value[0] == connector:
            out.extend(child.children)
        else:
            out.append(child)
    return out
