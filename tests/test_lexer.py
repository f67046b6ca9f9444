import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linksql.sqlast import SqlParseError, tokenize
from linksql.sqlast.lexer import KEYWORDS, scan, token_start

# (text, expected): the (kind, value, pos) tokens up to and including END,
# or the message of the SqlParseError that tokenize raises.
CASES = [
    # numbers: a leading dot, one decimal point, an exponent only with digits
    (".5e-3", [("NUM", ".5e-3", 0), ("END", "", 5)]),
    (".5", [("NUM", ".5", 0), ("END", "", 2)]),
    ("x.5", [("IDENT", "x", 0), ("NUM", ".5", 1), ("END", "", 3)]),
    ("1.5.3", [("NUM", "1.5", 0), ("NUM", ".3", 3), ("END", "", 5)]),
    ("1.x", [("NUM", "1", 0), ("OP", ".", 1), ("IDENT", "x", 2), ("END", "", 3)]),
    ("1.", [("NUM", "1", 0), ("OP", ".", 1), ("END", "", 2)]),
    ("1e", [("NUM", "1", 0), ("IDENT", "e", 1), ("END", "", 2)]),
    ("1E-", [("NUM", "1", 0), ("IDENT", "E", 1), ("OP", "-", 2), ("END", "", 3)]),
    ("1e+5", [("NUM", "1e+5", 0), ("END", "", 4)]),
    # quoting: doubled quotes inside '…' and "…", backticks verbatim
    ("'it''s'", [("STR", "it's", 0), ("END", "", 7)]),
    ("'a''''b'", [("STR", "a''b", 0), ("END", "", 8)]),
    ('"a""b"', [("STR", 'a"b', 0), ("END", "", 6)]),
    ("'say \"hi\"'", [("STR", 'say "hi"', 0), ("END", "", 10)]),
    ("`my col`", [("IDENT", "my col", 0), ("END", "", 8)]),
    ("`select`", [("IDENT", "select", 0), ("END", "", 8)]),
    # operators: <> and == normalise, two-character operators stay whole
    ("a <> b", [("IDENT", "a", 0), ("OP", "!=", 2), ("IDENT", "b", 5), ("END", "", 6)]),
    ("a == b", [("IDENT", "a", 0), ("OP", "=", 2), ("IDENT", "b", 5), ("END", "", 6)]),
    (
        "x<=y>=z!=w",
        [
            ("IDENT", "x", 0), ("OP", "<=", 1), ("IDENT", "y", 3), ("OP", ">=", 4),
            ("IDENT", "z", 6), ("OP", "!=", 7), ("IDENT", "w", 9), ("END", "", 10),
        ],
    ),
    # keywords fold to lower case; identifiers keep their spelling
    (
        "SeLeCt x FROM T",
        [("KW", "select", 0), ("IDENT", "x", 7), ("KW", "from", 9), ("IDENT", "T", 14), ("END", "", 15)],
    ),
    # Unicode: letters start identifiers, other numerals do not
    ("é", [("IDENT", "é", 0), ("END", "", 1)]),
    ("_x1", [("IDENT", "_x1", 0), ("END", "", 3)]),
    ("a²", [("IDENT", "a²", 0), ("END", "", 2)]),
    ("a\u3000b", [("IDENT", "a", 0), ("IDENT", "b", 2), ("END", "", 3)]),
    ("x Ⅷ", "unexpected character 'Ⅷ' (at position 2)"),
    # a number is ASCII digits: any other digit starts no token
    ("x ٣", "unexpected character '٣' (at position 2)"),
    ("1٣", "unexpected character '٣' (at position 1)"),
    ("x٣", [("IDENT", "x٣", 0), ("END", "", 2)]),
    ("x ½", "unexpected character '½' (at position 2)"),
    ("a ? b", "unexpected character '?' (at position 2)"),
    # unterminated quotes fail at the opening quote
    ("x 'abc", "unterminated string literal (at position 2)"),
    ("x 'ab''", "unterminated string literal (at position 2)"),
    ('x "abc', "unterminated string literal (at position 2)"),
    ("x `abc", "unterminated quoted identifier (at position 2)"),
    ("", [("END", "", 0)]),
]


@pytest.mark.parametrize("text,expected", CASES, ids=[repr(c[0]) for c in CASES])
def test_tokenize_edge_cases(text, expected):
    if isinstance(expected, str):
        with pytest.raises(SqlParseError) as info:
            tokenize(text)
        assert str(info.value) == expected
    else:
        assert [(t.kind, t.value, t.pos) for t in tokenize(text)] == expected


# -- equivalence with the six-group lexer ----------------------------------

# The lexer before ``scan`` told token kinds apart by the regex alone: one
# capture group per kind, the whitespace before a token folded into its
# match. It is kept here as the reference that ``scan`` must agree with,
# with numbers of ASCII digits only, as the dialect now reads them.
_SIX_GROUPS = re.compile(
    r"""\s*(?:
    ([^\W\d]\w*)
    |((?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
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


def _six_group_starts(text):
    return [m.start(m.lastindex) for m in _SIX_GROUPS.finditer(text)]


def _six_group_scan(text):
    """(tags, values) without the END padding, or the message of the
    SqlParseError it raises."""
    starts = _six_group_starts(text)
    tags, values = [], []
    for word, num, string, quoted, op, bad in _SIX_GROUPS.findall(text):
        pos = starts[len(tags)]
        if word:
            lower = word.lower()
            if lower in KEYWORDS:
                tags.append(lower)
                values.append(lower)
            elif word[0].isalpha() or word[0] == "_":
                tags.append("IDENT")
                values.append(word)
            else:
                return f"unexpected character {word[0]!r} (at position {pos})"
        elif op:
            op = _OP_ALIASES.get(op, op)
            tags.append(op)
            values.append(op)
        elif num:
            tags.append("NUM")
            values.append(num)
        elif string:
            tags.append("STR")
            values.append(string[1:-1].replace(string[0] * 2, string[0]))
        elif quoted:
            tags.append("IDENT")
            values.append(quoted[1:-1])
        else:
            message = _UNTERMINATED.get(bad, f"unexpected character {bad!r}")
            return f"{message} (at position {pos})"
    return tags, values


def _mixed_case(word, upper):
    return "".join(c.upper() if u else c for c, u in zip(word, upper))


_OPERATORS = (
    "<>", "==", "<=", ">=", "!=", "=", "<", ">", "(", ")", ",", ".", ";", "*", "+", "-", "/", "%",
)
_pieces = st.one_of(
    st.builds(
        _mixed_case,
        st.sampled_from(sorted(KEYWORDS)),
        st.lists(st.booleans(), min_size=9, max_size=9),
    ),
    st.sampled_from(_OPERATORS),
    st.sampled_from(
        (
            "x", "Name", "_a1", "é", "a²", "K", "ǅ", "٣", "x٣", "²", "½", "Ⅷ",
            "0", "12", "٣٤", ".5", "1.", "1.5", "1e+5", "1E-3", "1e", ".5e3",
            "'", '"', "`", "''", "'a''b'", "'it''s", '"a""b"', '""', "`q q`", "``",
            "?", "!", " ", "  ", "\t", "\n", "　",
        )
    ),
    st.text(alphabet=" 'x\"`.1e+-٣²_", max_size=4),
)


@settings(max_examples=500, deadline=None)
@given(text=st.lists(_pieces, max_size=12).map("".join))
@example(text="SeLeCt `a` FROM t WHERE x <> 'it''s' AND y == .5e3 '")
@example(text="x 'ab''")
@example(text='x "')
@example(text="x `")
def test_scan_agrees_with_the_six_group_lexer(text):
    want = _six_group_scan(text)
    try:
        tags, values = scan(text)
    except SqlParseError as err:
        assert str(err) == want
    else:
        assert not isinstance(want, str), want
        assert (tags, values) == (want[0] + ["END"] * 3, want[1] + [""] * 3)
    starts = _six_group_starts(text)
    assert [token_start(text, i) for i in range(len(starts) + 2)] == starts + [len(text)] * 2
