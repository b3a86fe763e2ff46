"""SQL lexer for the supported SQLite dialect subset.

Tokens are the unit the complexity profiler counts: identifiers, literals,
keywords, and punctuation each count as one token, so a qualified name
``a.b`` is three tokens.

``_TOKEN`` is the whole token table: one pattern that reads whatever
whitespace, comments and ``;`` come first, then one token, whose
alternatives are tried in order. A match that reaches the end of the text
instead of a token ends it. A string keeps its quotes and ``''`` escapes;
an identifier in double quotes, backticks or square brackets keeps its
inner text verbatim. An opener that never closes, or a character no
alternative takes, is a syntax error at its position. As in SQLite, a word
starts with any word character except a decimal digit, so non-ASCII number
characters such as ``²`` and ``½`` are identifier characters.
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

# No two alternatives match at the same position except the number and
# punct ``.``, string and unclosed ``'``, quoted and unclosed, and unclosed
# and op ``/``; each of those pairs comes in the order that gives the longer
# token. The skipped prefix always ends at a token or at ``end``, so it is
# never backtracked into, and a run of whitespace is read once.
_TOKEN = re.compile(r"""
    (?: \s+ | --[^\n]* | /\*(?s:.*?)\*/ | ; )*
    (?: (?P<word> [^\W\d]\w* )
      | (?P<number> (?:\d+(?:\.\d*)? | \.\d+) (?:[eE][+-]?\d*)? )
      | (?P<punct> [(),.] )
      | (?P<string> '[^']*(?:''[^']*)*'(?!') )
      | (?P<quoted> "[^"]*" | `[^`]*` | \[[^\]]*\] )
      | (?P<unclosed> /\* | ['"`\[] )
      | (?P<op> != | <> | <= | >= | \|\| | == | [=<>+\-*/%] )
      | (?P<bad> (?s:.) )
      | (?P<end> \Z ) )
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
    append = tokens.append
    for match in _TOKEN.finditer(sql):
        kind = match.lastgroup
        text, pos = match.group(kind), match.start(kind)
        if kind == "word":
            low = text.lower()
            if low in KEYWORDS:
                append(Token("kw", low.upper(), pos))
            else:
                append(Token("ident", low, pos))
        elif kind == "quoted":
            append(Token("ident", text[1:-1], pos))
        elif kind == "op":
            append(Token("op", _OP_ALIASES.get(text, text), pos))
        elif kind == "end":
            break
        elif kind == "unclosed":
            raise SqlSyntaxError(
                _UNCLOSED.get(text, "unterminated quoted identifier"), pos)
        elif kind == "bad":
            raise SqlSyntaxError(f"unexpected character {text!r}", pos)
        else:
            append(Token(kind, text, pos))  # number, punct, string
    return tokens
