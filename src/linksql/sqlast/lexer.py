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


# One match per token, in the order the alternatives are tried: a word, a
# number, a quoted string, a backquoted name, an operator, any other
# non-space character. A number is ASCII digits, as in SQLite, which reads
# any other digit as part of a name; a word does not start with a digit,
# so a token that starts with another digit is an error. NUM comes before
# OP so that ".5" is a number, while a dot before anything but a digit is
# the qualifier operator. A closing quote must not be followed by the same
# quote, which would make it half of an escaped pair. Only whitespace is
# left between matches. The pattern has no capture groups, so ``findall``
# returns the token texts themselves; ``scan`` looks each up in
# ``_FIXED_TAGS`` and tells the rest apart by their first character.
_TOKEN = re.compile(
    r"""[^\W\d]\w*
    |(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?
    |'[^']*(?:''[^']*)*'(?!')|"[^"]*(?:""[^"]*)*"(?!")
    |`[^`]*`
    |<>|==|[<>!]=|[=<>(),.;*+\-/%]
    |\S""",
    re.VERBOSE,
)
# The tag of every token whose text alone decides it: each operator (the
# aliases <> and == as != and =) and each keyword in lower and upper case.
# A keyword in mixed case is found by lower-casing the word.
_FIXED_TAGS = {
    **{op: op for op in ("!=", "<=", ">=", *"=<>(),.;*+-/%")},
    "<>": "!=",
    "==": "=",
    **{kw: kw for kw in KEYWORDS},
    **{kw.upper(): kw for kw in KEYWORDS},
}
_UNTERMINATED = {
    "'": "unterminated string literal",
    '"': "unterminated string literal",
    "`": "unterminated quoted identifier",
}
# after the last token, so a lookahead of up to two never runs off the end
_END_PADDING = 3


def scan(text: str) -> tuple[list[str], list[str]]:
    """The tags and values of the tokens of text, then END padding.

    A tag is a keyword (lower case) or an operator as written, else IDENT,
    NUM or STR; a number is ASCII digits and an identifier a letter or _,
    then letters, digits or _. Positions are left out: they are only
    needed for an error, and ``token_start`` finds them then.
    """
    tags: list[str] = []
    values: list[str] = []
    add_tag = tags.append
    add_value = values.append
    fixed = _FIXED_TAGS.get
    for token in _TOKEN.findall(text):
        tag = fixed(token)
        if tag is not None:
            add_tag(tag)
            add_value(tag)
            continue
        first = token[0]
        # \w also takes numerals such as Ⅷ or ², which start no identifier
        if first.isalpha() or first == "_":
            lower = token.lower()
            if lower in KEYWORDS:
                add_tag(lower)
                add_value(lower)
            else:
                add_tag("IDENT")
                add_value(token)
        elif first in "0123456789.":  # a lone "." is fixed
            add_tag("NUM")
            add_value(token)
        # a quote alone is one that no closing quote matched
        elif (first == "'" or first == '"') and len(token) > 1:
            add_tag("STR")
            add_value(token[1:-1].replace(first * 2, first))
        elif first == "`" and len(token) > 1:
            add_tag("IDENT")
            add_value(token[1:-1])
        else:
            message = _UNTERMINATED.get(token, f"unexpected character {first!r}")
            raise SqlParseError(message, token_start(text, len(tags)))
    tags += ["END"] * _END_PADDING
    values += [""] * _END_PADDING
    return tags, values


def _token_starts(text: str) -> list[int]:
    return [m.start() for m in _TOKEN.finditer(text)]


def token_start(text: str, index: int) -> int:
    """Character position of the token ``scan`` put at ``index``; END and
    its padding are at the end of the text."""
    starts = _token_starts(text)
    return starts[index] if index < len(starts) else len(text)


def tokenize(text: str) -> list[Token]:
    """Split text into tokens ending with END, as ``scan`` does, with the
    position of each."""
    tags, values = scan(text)
    tokens = []
    for tag, value, pos in zip(tags, values, _token_starts(text)):
        if tag not in ("IDENT", "NUM", "STR"):
            tag = "KW" if tag in KEYWORDS else "OP"
        tokens.append(Token(tag, value, pos))
    tokens.append(Token("END", "", len(text)))
    return tokens
