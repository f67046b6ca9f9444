"""Tokenizer for the supported SQL dialect."""

from __future__ import annotations

import re
from typing import NamedTuple


class SqlError(Exception):
    """A query outside the supported dialect: the base of SqlParseError
    (syntax) and ResolutionError (a name the catalog does not have)."""


class SqlParseError(SqlError):
    """Lexical or syntax error, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


KEYWORDS = frozenset(
    {
        "select", "distinct", "from", "join", "inner", "on", "as",
        "where", "and", "or", "not", "in", "like", "between", "exists",
        "group", "by", "having", "order", "asc", "desc", "limit",
        "union", "intersect", "except",
    }
)


class Token(NamedTuple):
    """One lexeme. kind is KW, IDENT, NUM, STR, OP or END; a keyword's
    value is lower case, a string's has its quotes and escapes removed."""

    kind: str
    value: str
    pos: int

    def is_kw(self, *words: str) -> bool:
        return self.kind == "KW" and self.value in words


# One alternative per token kind, tried in order at each position. NUM
# comes before OP so that ".5" is a number, while a dot before anything but
# a digit is the qualifier operator. A closing quote must not be followed
# by the same quote, which would make it half of an escaped pair. BAD takes
# any other character, so matches cover the text without gaps.
_TOKEN = re.compile(
    r"""(?P<SPACE>\s+)
    |(?P<NUM>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)
    |(?P<WORD>[^\W\d]\w*)
    |(?P<STR>'[^']*(?:''[^']*)*'(?!')|"[^"]*(?:""[^"]*)*"(?!"))
    |(?P<QUOTED>`[^`]*`)
    |(?P<OP><>|==|[<>!]=|[=<>(),.;*+\-/%])
    |(?P<BAD>.)""",
    re.VERBOSE | re.DOTALL,
)
_OP_ALIASES = {"<>": "!=", "==": "="}
_UNTERMINATED = {
    "'": "unterminated string literal",
    '"': "unterminated string literal",
    "`": "unterminated quoted identifier",
}
_new = tuple.__new__  # skips NamedTuple's Python-level __new__


def tokenize(text: str) -> list[Token]:
    """Split text into tokens ending with END. A number is Unicode decimal
    digits; an identifier is a letter or _, then letters, digits or _."""
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "SPACE":
            continue
        value = m.group()
        pos = m.start()
        if kind == "WORD":
            lower = value.lower()
            if lower in KEYWORDS:
                append(_new(Token, ("KW", lower, pos)))
                continue
            # \w also takes numerals such as Ⅷ or ², which start no identifier
            if not (value[0].isalpha() or value[0] == "_"):
                raise SqlParseError(f"unexpected character {value[0]!r}", pos)
            kind = "IDENT"
        elif kind == "OP":
            value = _OP_ALIASES.get(value, value)
        elif kind == "STR":
            quote = value[0]
            value = value[1:-1].replace(quote + quote, quote)
        elif kind == "QUOTED":
            kind, value = "IDENT", value[1:-1]
        elif kind == "BAD":
            raise SqlParseError(_UNTERMINATED.get(value, f"unexpected character {value!r}"), pos)
        append(_new(Token, (kind, value, pos)))
    append(_new(Token, ("END", "", len(text))))
    return tokens
