"""SQL lexer for the supported SQLite dialect subset.

Tokens are the unit the complexity profiler counts: identifiers, literals,
keywords, and punctuation each count as one token, so a qualified name
``a.b`` is three tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SqlSyntaxError

KEYWORDS = frozenset(
    """
    select from where group by having order limit offset as on join inner
    left outer cross right full natural using and or not in like between
    is null distinct all union intersect except exists case when then else
    end with over partition asc desc cast true false
    """.split()
)

TWO_CHAR_OPS = ("!=", "<>", "<=", ">=", "||", "==")
ONE_CHAR_OPS = "=<>+-*/%"
PUNCT = "(),."


@dataclass(frozen=True)
class Token:
    type: str  # kw | ident | number | string | op | punct
    text: str  # keywords upper-cased, unquoted identifiers lower-cased
    pos: int


def tokenize(sql: str) -> list[Token]:
    """Split SQL text into tokens, skipping whitespace and comments."""
    tokens: list[Token] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            j = sql.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if sql.startswith("/*", i):
            j = sql.find("*/", i + 2)
            if j < 0:
                raise SqlSyntaxError("unterminated comment", i)
            i = j + 2
            continue
        if ch == "'":
            tokens.append(_read_string(sql, i))
            i += len(tokens[-1].text)
            continue
        if ch in '"`[':
            tokens.append(_read_quoted_ident(sql, i))
            # raw length differs from normalized text; recompute
            i = _quoted_end(sql, i)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            tok = _read_number(sql, i)
            tokens.append(tok)
            i += len(tok.text)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            low = word.lower()
            if low in KEYWORDS:
                tokens.append(Token("kw", low.upper(), i))
            else:
                tokens.append(Token("ident", low, i))
            i = j
            continue
        two = sql[i : i + 2]
        if two in TWO_CHAR_OPS:
            text = "=" if two == "==" else ("!=" if two == "<>" else two)
            tokens.append(Token("op", text, i))
            i += 2
            continue
        if ch in ONE_CHAR_OPS:
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        if ch in PUNCT:
            tokens.append(Token("punct", ch, i))
            i += 1
            continue
        if ch == ";":
            # statement terminator; ignored (single-statement parser)
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def _read_string(sql: str, start: int) -> Token:
    i = start + 1
    n = len(sql)
    while i < n:
        if sql[i] == "'":
            if i + 1 < n and sql[i + 1] == "'":
                i += 2
                continue
            return Token("string", sql[start : i + 1], start)
        i += 1
    raise SqlSyntaxError("unterminated string literal", start)


def _quoted_end(sql: str, start: int) -> int:
    close = {'"': '"', "`": "`", "[": "]"}[sql[start]]
    j = sql.find(close, start + 1)
    if j < 0:
        raise SqlSyntaxError("unterminated quoted identifier", start)
    return j + 1


def _read_quoted_ident(sql: str, start: int) -> Token:
    end = _quoted_end(sql, start)
    # inner text verbatim; case preserved
    return Token("ident", sql[start + 1 : end - 1], start)


def _read_number(sql: str, start: int) -> Token:
    i = start
    n = len(sql)
    seen_dot = seen_e = False
    while i < n:
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_e:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_e and i > start:
            seen_e = True
            i += 1
            if i < n and sql[i] in "+-":
                i += 1
        else:
            break
    return Token("number", sql[start:i], start)
