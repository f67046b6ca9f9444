"""Tokenizer for the supported SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass


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

# Token kinds: KW, IDENT, NUM, STR, OP, END
@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    pos: int

    def is_kw(self, *words: str) -> bool:
        return self.kind == "KW" and self.value in words


_PUNCT2 = ("<=", ">=", "!=", "<>", "==")
_PUNCT1 = "=<>(),.;*+-/%"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            buf = []
            while j < n:
                if text[j] == quote:
                    if j + 1 < n and text[j + 1] == quote:
                        buf.append(quote)
                        j += 2
                        continue
                    break
                buf.append(text[j])
                j += 1
            else:
                raise SqlParseError("unterminated string literal", i)
            tokens.append(Token("STR", "".join(buf), i))
            i = j + 1
            continue
        if ch == "`":
            j = text.find("`", i + 1)
            if j < 0:
                raise SqlParseError("unterminated quoted identifier", i)
            tokens.append(Token("IDENT", text[i + 1 : j], i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot followed by a non-digit is a qualifier, not a decimal.
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(Token("NUM", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            lower = word.lower()
            if lower in KEYWORDS:
                tokens.append(Token("KW", lower, i))
            else:
                tokens.append(Token("IDENT", word, i))
            i = j
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            op = {"<>": "!=", "==": "="}.get(two, two)
            tokens.append(Token("OP", op, i))
            i += 2
            continue
        if ch in _PUNCT1:
            tokens.append(Token("OP", ch, i))
            i += 1
            continue
        raise SqlParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("END", "", n))
    return tokens
