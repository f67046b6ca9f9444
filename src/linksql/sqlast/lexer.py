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


# One match per token, whitespace before it included, with one group per
# kind: WORD, NUM, STR, QUOTED, OP, BAD. The alternatives are tried in
# order: NUM comes before OP so that ".5" is a number, while a dot before
# anything but a digit is the qualifier operator. A closing quote must not
# be followed by the same quote, which would make it half of an escaped
# pair. BAD takes any other non-space character, so matches cover the text
# without gaps but for trailing whitespace.
_TOKEN = re.compile(
    r"""\s*(?:
    ([^\W\d]\w*)
    |((?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)
    |('[^']*(?:''[^']*)*'(?!')|"[^"]*(?:""[^"]*)*"(?!"))
    |(`[^`]*`)
    |(<>|==|[<>!]=|[=<>(),.;*+\-/%])
    |(\S))""",
    re.VERBOSE,
)
_OP_ALIASES = {"<>": "!=", "==": "="}
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
    NUM or STR; a number is Unicode decimal digits and an identifier a
    letter or _, then letters, digits or _. Positions are left out: they
    are only needed for an error, and ``token_start`` finds them then.
    """
    tags: list[str] = []
    values: list[str] = []
    add_tag = tags.append
    add_value = values.append
    for word, num, string, quoted, op, bad in _TOKEN.findall(text):
        if word:
            lower = word.lower()
            if lower in KEYWORDS:
                add_tag(lower)
                add_value(lower)
            # \w also takes numerals such as Ⅷ or ², which start no identifier
            elif word[0].isalpha() or word[0] == "_":
                add_tag("IDENT")
                add_value(word)
            else:
                message = f"unexpected character {word[0]!r}"
                raise SqlParseError(message, token_start(text, len(tags)))
        elif op:
            op = _OP_ALIASES.get(op, op)
            add_tag(op)
            add_value(op)
        elif num:
            add_tag("NUM")
            add_value(num)
        elif string:
            add_tag("STR")
            add_value(string[1:-1].replace(string[0] * 2, string[0]))
        elif quoted:
            add_tag("IDENT")
            add_value(quoted[1:-1])
        else:
            message = _UNTERMINATED.get(bad, f"unexpected character {bad!r}")
            raise SqlParseError(message, token_start(text, len(tags)))
    tags += ["END"] * _END_PADDING
    values += [""] * _END_PADDING
    return tags, values


def _token_starts(text: str) -> list[int]:
    return [m.start(m.lastindex) for m in _TOKEN.finditer(text)]


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
