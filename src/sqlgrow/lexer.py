"""SQL lexer for the supported SQLite dialect subset.

Tokens are the unit the complexity profiler counts: identifiers, literals,
keywords, and punctuation each count as one token, so a qualified name
``a.b`` is three tokens.

``_TOKEN`` is the whole token table: one pattern that reads whatever
whitespace, comments and ``;`` come first, then one token, whose
alternatives are tried in order. A match that reaches the end of the text
instead of a token ends it. A string keeps its quotes and ``''`` escapes;
an identifier in double quotes, backticks or square brackets keeps its
inner text verbatim, except that ``""`` inside double quotes is one ``"``
and a doubled backtick inside backticks is one backtick, as in SQLite. An
opener that never closes, or a character no alternative takes, is a
syntax error at its position; SQLite's blob
literal ``X'…'`` and bitwise ``~ << >> & |`` are refused by name. As in
SQLite, a word starts with any word character but a decimal digit, so
``²`` and ``½`` are identifier characters.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import SqlSyntaxError, UnsupportedSqlError

KEYWORDS = frozenset(
    """
    select from where group by having order limit offset as on join inner
    left outer cross right full natural using and or not in like between
    is null distinct all union intersect except exists case when then else
    end with over partition asc desc cast true false isnull notnull
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
      | (?P<quoted> "[^"]*(?:""[^"]*)*"(?!") | `[^`]*(?:``[^`]*)*`(?!`) | \[[^\]]*\] )
      | (?P<unclosed> /\* | ['"`\[] )
      | (?P<op> != | <> | <= | >= | << | >> | \|\| | == | [=<>+\-*/%~&|] )
      | (?P<bad> (?s:.) )
      | (?P<end> \Z ) )
""", re.VERBOSE)

_OP_ALIASES = {"==": "=", "<>": "!="}
_UPPER = {word: word.upper() for word in KEYWORDS}
_BITWISE = frozenset(("~", "&", "|", "<<", ">>"))
_UNCLOSED = {"/*": "unterminated comment", "'": "unterminated string literal"}


class Token(NamedTuple):
    type: str  # kw | ident | number | string | op | punct
    text: str  # keywords upper-cased, unquoted identifiers lower-cased
    pos: int


def tokenize(sql: str) -> list[Token]:
    """Split SQL text into tokens, skipping whitespace and comments."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # skips Token.__new__'s argument handling; Token checks nothing
    for match in _TOKEN.finditer(sql):
        kind = match.lastgroup
        text = match[kind]
        pos = match.end() - len(text)  # every token ends its match
        if kind == "word":
            low = text.lower()
            if low in KEYWORDS:
                append(new(Token, ("kw", _UPPER[low], pos)))
            # a blob X'…'; an unclosed X' is left to the unclosed ' after it
            elif low == "x" and sql.startswith("'", pos + 1) and "'" in sql[pos + 2:]:
                blob = sql[pos:sql.index("'", pos + 2) + 1]
                raise UnsupportedSqlError(f"blob literal {blob!r} is not supported", pos)
            else:
                append(new(Token, ("ident", low, pos)))
        elif kind == "quoted":
            quote = text[0]
            name = text[1:-1] if quote == "[" else text[1:-1].replace(quote * 2, quote)
            append(new(Token, ("ident", name, pos)))
        elif kind == "op":
            if text in _BITWISE:
                raise UnsupportedSqlError(f"bitwise operator {text!r} is not supported", pos)
            append(new(Token, ("op", _OP_ALIASES.get(text, text), pos)))
        elif kind == "end":
            break
        elif kind == "unclosed":
            raise SqlSyntaxError(
                _UNCLOSED.get(text, "unterminated quoted identifier"), pos)
        elif kind == "bad":
            raise SqlSyntaxError(f"unexpected character {text!r}", pos)
        else:
            append(new(Token, (kind, text, pos)))  # number, punct, string
    return tokens
