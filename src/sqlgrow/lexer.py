"""SQL lexer for the supported SQLite dialect subset.

Tokens are the unit the complexity profiler counts: identifiers, literals,
keywords, and punctuation each count as one token, so a qualified name
``a.b`` is three tokens.

``_TOKEN`` is the whole token table: one pattern whose alternatives are
tried in order at each position. Whitespace, comments and ``;`` are
skipped. A string keeps its quotes and ``''`` escapes; an identifier in
double quotes, backticks or square brackets keeps its inner text verbatim.
An opener that never closes, or a character no alternative takes, is a
syntax error at its position. As in SQLite, a word starts with any word
character except a decimal digit, so non-ASCII number characters such as
``²`` and ``½`` are identifier characters.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import SqlSyntaxError

KEYWORDS = frozenset(
    """
    select from where group by having order limit offset as on join inner
    left outer cross right full natural using and or not in like between
    is null distinct all union intersect except exists case when then else
    end with over partition asc desc cast true false
    """.split()
)

_TOKEN = re.compile(r"""
    (?P<skip> \s+ | --[^\n]* | /\*(?s:.*?)\*/ | ; )
  | (?P<string> '[^']*(?:''[^']*)*'(?!') )
  | (?P<quoted> "[^"]*" | `[^`]*` | \[[^\]]*\] )
  | (?P<number> (?:\d+(?:\.\d*)? | \.\d+) (?:[eE][+-]?\d*)? )
  | (?P<word> [^\W\d]\w* )
  | (?P<unclosed> /\* | ['"`\[] )
  | (?P<op> != | <> | <= | >= | \|\| | == | [=<>+\-*/%] )
  | (?P<punct> [(),.] )
  | (?P<bad> (?s:.) )
""", re.VERBOSE)

_OP_ALIASES = {"==": "=", "<>": "!="}
_UNCLOSED = {"/*": "unterminated comment", "'": "unterminated string literal"}


class Token(NamedTuple):
    type: str  # kw | ident | number | string | op | punct
    text: str  # keywords upper-cased, unquoted identifiers lower-cased
    pos: int


def tokenize(sql: str) -> list[Token]:
    """Split SQL text into tokens, skipping whitespace and comments."""
    tokens: list[Token] = []
    for match in _TOKEN.finditer(sql):
        kind, text, pos = match.lastgroup, match.group(), match.start()
        if kind == "skip":
            continue
        if kind == "word":
            low = text.lower()
            if low in KEYWORDS:
                tokens.append(Token("kw", low.upper(), pos))
            else:
                tokens.append(Token("ident", low, pos))
        elif kind == "quoted":
            tokens.append(Token("ident", text[1:-1], pos))
        elif kind == "op":
            tokens.append(Token("op", _OP_ALIASES.get(text, text), pos))
        elif kind == "unclosed":
            raise SqlSyntaxError(
                _UNCLOSED.get(text, "unterminated quoted identifier"), pos)
        elif kind == "bad":
            raise SqlSyntaxError(f"unexpected character {text!r}", pos)
        else:
            tokens.append(Token(kind, text, pos))  # string, number, punct
    return tokens
