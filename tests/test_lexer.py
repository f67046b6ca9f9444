import pytest

from linksql.sqlast import SqlParseError, tokenize

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


def test_is_kw_matches_keywords_only():
    kw, ident, end = tokenize("order `order`")
    assert kw.is_kw("asc", "order")
    assert not ident.is_kw("order")
    assert not end.is_kw("order")
