
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksql.sqlast import (
    Agg,
    Arith,
    BoolNode,
    ColumnRef,
    JoinPair,
    Literal,
    Predicate,
    QueryAst,
    ResolutionError,
    SqlError,
    SqlParseError,
    Star,
    exact_set_match,
    parse_sql,
    render_sql,
)


@pytest.fixture
def cat(catalogs):
    return catalogs["venue_events"]


def test_simple_select(cat):
    ast = parse_sql("SELECT Venue.Name FROM Venue", cat)
    assert ast.from_order == ("venue",)
    assert ast.select_items[0] == ColumnRef("venue", "name")
    assert not ast.select_distinct


def test_case_insensitive_identifiers(cat):
    a = parse_sql("select VENUE.name from venue", cat)
    b = parse_sql("SELECT Venue.Name FROM Venue", cat)
    assert a == b


def test_unqualified_column_resolves(cat):
    ast = parse_sql("SELECT Capacity FROM Venue", cat)
    assert ast.select_items[0] == ColumnRef("venue", "capacity")


def test_bare_alias_and_as_alias(cat):
    for sql in (
        "SELECT T1.Name FROM Venue AS T1",
        "SELECT T1.Name FROM Venue T1",
    ):
        ast = parse_sql(sql, cat)
        assert ast.select_items[0] == ColumnRef("venue", "name")


def test_alias_shadows_table_name(cat):
    # Venue aliased away; the alias is the only way to reach it
    ast = parse_sql("SELECT v.City FROM Venue v", cat)
    assert ast.select_items[0] == ColumnRef("venue", "city")
    with pytest.raises(ResolutionError):
        parse_sql("SELECT Venue.City FROM Venue v JOIN Artist a ON v.Venue_ID = a.Artist_ID", cat)


def test_star_and_qualified_star(cat):
    ast = parse_sql("SELECT * FROM Venue", cat)
    assert ast.select_items[0] == Star(None)
    ast = parse_sql("SELECT Venue.* FROM Venue", cat)
    assert ast.select_items[0] == Star("venue")


def test_distinct_flag(cat):
    assert parse_sql("SELECT DISTINCT Venue.City FROM Venue", cat).select_distinct


def test_aggregates(cat):
    ast = parse_sql("SELECT count(*), avg(Capacity), count(DISTINCT City) FROM Venue", cat)
    assert ast.select_items == (
        Agg("count", False, Star(None)),
        Agg("avg", False, ColumnRef("venue", "capacity")),
        Agg("count", True, ColumnRef("venue", "city")),
    )


def test_select_aggregate_is_the_same_node_as_elsewhere(cat):
    ast = parse_sql(
        "SELECT count(DISTINCT City) FROM Venue GROUP BY Venue_ID"
        " HAVING count(DISTINCT City) > 1 ORDER BY count(DISTINCT City)",
        cat,
    )
    call = Agg("count", True, ColumnRef("venue", "city"))
    assert ast.select_items == (call,)
    assert ast.having_tree.lhs == call
    assert ast.order_by[0].expr == call


def test_aggregate_inside_arithmetic(cat):
    ast = parse_sql("SELECT max(Capacity) - min(Capacity) FROM Venue", cat)
    expr = ast.select_items[0]
    assert isinstance(expr, Arith) and expr.op == "-"
    assert isinstance(expr.left, Agg) and isinstance(expr.right, Agg)


def test_arithmetic_precedence(cat):
    ast = parse_sql("SELECT Capacity + Venue_ID * 2 FROM Venue", cat)
    expr = ast.select_items[0]
    assert expr.op == "+"
    assert isinstance(expr.right, Arith) and expr.right.op == "*"


def test_join_condition_is_unordered(cat):
    a = parse_sql(
        "SELECT Title FROM Event JOIN Venue ON Event.Venue_ID = Venue.Venue_ID", cat
    )
    b = parse_sql(
        "SELECT Title FROM Event JOIN Venue ON Venue.Venue_ID = Event.Venue_ID", cat
    )
    assert a.join_conditions == b.join_conditions
    pair = next(iter(a.join_conditions))
    assert isinstance(pair, JoinPair)


def test_comma_join_without_on(cat):
    ast = parse_sql("SELECT Event.Title FROM Event, Venue WHERE Event.Venue_ID = Venue.Venue_ID", cat)
    assert ast.from_tables == frozenset({"event", "venue"})
    assert ast.join_conditions == frozenset()
    assert ast.where_tree is not None


def test_non_equality_on_goes_to_where(cat):
    ast = parse_sql(
        "SELECT Title FROM Event JOIN Venue ON Event.Venue_ID = Venue.Venue_ID"
        " AND Venue.Capacity > 100",
        cat,
    )
    assert len(ast.join_conditions) == 1
    assert isinstance(ast.where_tree, Predicate)
    assert ast.where_tree.op == ">"


def test_where_and_or_shape(cat):
    ast = parse_sql(
        "SELECT Name FROM Venue WHERE City = 'a' AND (Capacity > 5 OR Outdoor = 1)", cat
    )
    tree = ast.where_tree
    assert isinstance(tree, BoolNode) and tree.op == "and"
    ors = [c for c in tree.children if isinstance(c, BoolNode)]
    assert len(ors) == 1 and ors[0].op == "or"


def test_and_chain_flattens(cat):
    ast = parse_sql("SELECT Name FROM Venue WHERE City = 'a' AND Capacity > 5 AND Outdoor = 1", cat)
    assert isinstance(ast.where_tree, BoolNode)
    assert len(ast.where_tree.children) == 3


def test_between_and_in(cat):
    ast = parse_sql(
        "SELECT Name FROM Venue WHERE Capacity BETWEEN 10 AND 20 AND City IN ('a', 'b')",
        cat,
    )
    between, inlist = ast.where_tree.children
    assert between.op == "between"
    lo, hi = between.rhs
    assert (lo.text, hi.text) == ("10", "20")
    assert inlist.op == "in"
    assert [v.text for v in inlist.rhs] == ["a", "b"]


def test_not_like_and_not_in(cat):
    ast = parse_sql(
        "SELECT Name FROM Venue WHERE City NOT LIKE 'a%' AND Venue_ID NOT IN (1, 2)", cat
    )
    ops = sorted(c.op for c in ast.where_tree.children)
    assert ops == ["not in", "not like"]


def test_in_subquery(cat):
    ast = parse_sql(
        "SELECT Name FROM Venue WHERE Venue_ID IN (SELECT Venue_ID FROM Event)", cat
    )
    pred = ast.where_tree
    assert pred.op == "in"
    assert pred.rhs.from_order == ("event",)


def test_scalar_subquery_compare(cat):
    ast = parse_sql(
        "SELECT Name FROM Venue WHERE Capacity > (SELECT avg(Capacity) FROM Venue)", cat
    )
    assert ast.where_tree.op == ">"
    assert ast.where_tree.rhs.select_items[0] == Agg("avg", False, ColumnRef("venue", "capacity"))


def test_exists_correlates_to_outer_scope(cat):
    ast = parse_sql(
        "SELECT Name FROM Venue WHERE EXISTS"
        " (SELECT * FROM Event WHERE Event.Venue_ID = Venue.Venue_ID)",
        cat,
    )
    pred = ast.where_tree
    assert pred.op == "exists" and pred.lhs is None
    inner = pred.rhs.where_tree
    assert inner.lhs == ColumnRef("event", "venue_id")
    assert inner.rhs == ColumnRef("venue", "venue_id")


def test_derived_table_positional_name(cat):
    ast = parse_sql("SELECT count(*) FROM (SELECT City FROM Venue)", cat)
    assert ast.from_order == ("#sq0",)
    assert ast.from_tables == frozenset()
    assert ast.derived[0].name == "#sq0"
    assert ast.derived[0].query.from_order == ("venue",)


def test_derived_alias_does_not_change_name(cat):
    a = parse_sql("SELECT count(*) FROM (SELECT City FROM Venue)", cat)
    b = parse_sql("SELECT count(*) FROM (SELECT City FROM Venue) AS sub", cat)
    assert a == b


def test_derived_output_column_resolves(cat):
    ast = parse_sql("SELECT City FROM (SELECT City FROM Venue)", cat)
    assert ast.select_items[0] == ColumnRef("#sq0", "city")


def test_set_ops(cat):
    ast = parse_sql("SELECT Name FROM Venue UNION SELECT Name FROM Artist", cat)
    assert ast.set_op.op == "union"
    assert ast.set_op.rhs.from_order == ("artist",)
    for op in ("INTERSECT", "EXCEPT"):
        assert parse_sql(f"SELECT Name FROM Venue {op} SELECT Name FROM Artist", cat).set_op.op == op.lower()


def test_order_by_and_limit(cat):
    ast = parse_sql("SELECT Name FROM Venue ORDER BY Capacity DESC, Name LIMIT 3", cat)
    assert [o.direction for o in ast.order_by] == ["desc", "asc"]
    assert ast.limit == 3
    assert ast.has_toplevel_order()


def test_order_on_set_op_rhs_counts_as_toplevel(cat):
    ast = parse_sql(
        "SELECT Name FROM Venue UNION SELECT Name FROM Artist ORDER BY Name", cat
    )
    assert ast.has_toplevel_order()


def test_group_by_and_having(cat):
    ast = parse_sql(
        "SELECT City, count(*) FROM Venue GROUP BY City HAVING count(*) >= 2", cat
    )
    assert ast.group_by == (ColumnRef("venue", "city"),)
    assert ast.having_tree.op == ">="
    assert isinstance(ast.having_tree.lhs, Agg)


def test_numeric_literal_normalization(cat):
    a = parse_sql("SELECT Name FROM Venue WHERE Capacity > 100", cat)
    b = parse_sql("SELECT Name FROM Venue WHERE Capacity > 100.0", cat)
    c = parse_sql("SELECT Name FROM Venue WHERE Capacity > 0100", cat)
    assert a == b == c
    assert a.where_tree.rhs == Literal("num", "100")


def test_string_literal_escape(cat):
    ast = parse_sql("SELECT Name FROM Venue WHERE City = 'O''Hare'", cat)
    assert ast.where_tree.rhs == Literal("str", "O'Hare")


def test_trailing_semicolon_ok(cat):
    parse_sql("SELECT Name FROM Venue;", cat)


def test_ambiguous_unqualified_is_a_resolution_error(cat):
    # SQLite rejects each of these with "ambiguous column name"
    for sql in (
        # Venue and Artist both have a Name column
        "SELECT Name FROM Venue JOIN Artist ON Venue.Venue_ID = Artist.Artist_ID",
        "SELECT Venue.Name FROM Venue JOIN Artist ON Venue.Venue_ID = Artist.Artist_ID"
        " WHERE Name = 'x'",
        "SELECT a.City FROM Venue AS a JOIN Venue AS b ON a.Venue_ID = b.Venue_ID"
        " GROUP BY Name",
        # Event has no Name, so the outer scope's two are in play
        "SELECT Venue.Name FROM Venue JOIN Artist ON Venue.Venue_ID = Artist.Artist_ID"
        " WHERE EXISTS (SELECT Title FROM Event WHERE Name = 'x')",
    ):
        with pytest.raises(ResolutionError, match="ambiguous"):
            parse_sql(sql, cat)


def test_unqualified_resolves_in_the_innermost_scope_that_has_it(cat):
    # Venue and Event both have Venue_ID, but the subquery's scope has one
    ast = parse_sql(
        "SELECT Venue.Name FROM Venue JOIN Event ON Venue.Venue_ID = Event.Venue_ID"
        " WHERE Event.Venue_ID IN (SELECT Venue_ID FROM Venue WHERE Capacity > 100)",
        cat,
    )
    sub = ast.where_tree.rhs
    assert sub.select_items[0] == ColumnRef("venue", "venue_id")


def _items(ast):
    return ast.select_items


def _exists_lhs(ast):
    return ast.where_tree.rhs.where_tree.lhs


# Each row is what SQLite 3.40 does with the query on the venue_events
# database: the error it reports, or the node the name is bound to.
@pytest.mark.parametrize(
    "sql, part, expected",
    [
        # a derived table exposes its select list, not its source's columns
        ("SELECT x.City FROM (SELECT Name FROM Venue) AS x", None,
         "no column 'City' in 'x'"),
        # ... and `t.*` in that list exposes every column of t
        ("SELECT s.City FROM (SELECT v.* FROM Venue v) s", _items,
         (ColumnRef("#sq0", "city"),)),
        ("SELECT s.* FROM (SELECT v.* FROM Venue v) s", _items, (Star("#sq0"),)),
        # the inner v shadows the outer one
        ("SELECT v.Name FROM Venue v"
         " WHERE EXISTS (SELECT * FROM Event v WHERE v.Title = 'x')",
         _exists_lhs, ColumnRef("event", "title")),
        # a FROM subquery sees no outer or sibling names
        ("SELECT * FROM Venue v, (SELECT v.Name FROM Artist)", None,
         "unknown table or alias 'v'"),
        ("SELECT Name FROM (SELECT Name FROM Venue) JOIN (SELECT Name FROM Artist)",
         None, "ambiguous column name 'Name'"),
        # an alias hides the table name it stands for
        ("SELECT Name FROM Venue AS v WHERE Venue.Capacity > 1", None,
         "unknown table or alias 'Venue'"),
    ],
)
def test_scope_rules(cat, sql, part, expected):
    if part is None:
        with pytest.raises(ResolutionError) as info:
            parse_sql(sql, cat)
        assert str(info.value) == expected
    else:
        assert part(parse_sql(sql, cat)) == expected


@pytest.mark.parametrize(
    "sql",
    [
        "",
        "SELECT",
        "SELECT FROM Venue",
        "Name FROM Venue",
        "SELECT Name FROM Venue extra tokens",
        "SELECT Name FROM Venue LIMIT many",
        "SELECT Name FROM Venue WHERE",
        "SELECT a AS b FROM Venue",
        "SELECT Name FROM Venue LEFT JOIN Event ON 1 = 1",
        "SELECT Name FROM Venue NATURAL JOIN Event",
        "SELECT Name FROM Venue UNION SELECT Name FROM Artist UNION SELECT Title FROM Event",
        "SELECT Name FROM Venue WHERE City IS NULL",
        "SELECT Name FROM Venue WHERE Capacity NOT BETWEEN 1 AND 2",
        "SELECT Name FROM (SELECT City FROM Venue",
        "SELECT ² FROM Venue",  # a digit, but not a decimal one
        "SELECT Name FROM Venue LIMIT ²",
    ],
)
def test_syntax_rejected(cat, sql):
    with pytest.raises(SqlParseError):
        parse_sql(sql, cat)


# position: (head, opening, innermost, closing, tail)
_NESTING = {
    "value": ("SELECT ", "(", "1", ")", " FROM Venue"),
    "condition": ("SELECT Name FROM Venue WHERE ", "(", "Capacity > 1", ")", ""),
    "from": ("SELECT * FROM ", "(SELECT * FROM ", "Venue", ")", ""),
}


def _nested(position: str, depth: int, inner: str | None = None) -> str:
    head, opening, innermost, closing, tail = _NESTING[position]
    inner = innermost if inner is None else inner
    return head + opening * depth + inner + closing * depth + tail


@pytest.mark.parametrize("position", list(_NESTING))
def test_deep_nesting_is_a_parse_error(cat, position):
    parse_sql(_nested(position, 20), cat)
    with pytest.raises(SqlParseError) as info:
        parse_sql(_nested(position, 2000), cat)
    assert str(info.value) == "query nested too deeply (at position 0)"
    assert info.value.pos == 0


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT Name FROM Nowhere",
        "SELECT Nothing FROM Venue",
        "SELECT x.Name FROM Venue",
        "SELECT Venue.Nothing FROM Venue",
        "SELECT a.Name FROM Venue a JOIN Artist a ON a.Venue_ID = a.Artist_ID",
    ],
)
def test_resolution_rejected(cat, sql):
    with pytest.raises(ResolutionError):
        parse_sql(sql, cat)


@pytest.mark.parametrize(
    "sql", ["SELECT Name FROM Venue WHERE", "SELECT Name FROM Nowhere"]
)
def test_dialect_errors_share_one_base(cat, sql):
    with pytest.raises(SqlError):
        parse_sql(sql, cat)


# -- properties ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_render_roundtrip_preserves_match(catalogs, corpus, data):
    q = data.draw(st.sampled_from(corpus))
    cat = catalogs[q.db_id]
    ast = parse_sql(q.sql, cat)
    again = parse_sql(render_sql(ast), cat)
    assert exact_set_match(ast, again)
    assert exact_set_match(ast, again, ignore_values=True)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=-(10**9), max_value=10**9))
def test_integer_spellings_equivalent(catalogs, n):
    cat = catalogs["venue_events"]
    a = parse_sql(f"SELECT Name FROM Venue WHERE Capacity > {n}", cat)
    b = parse_sql(f"select name from venue where capacity > {float(n)!r}", cat)
    assert exact_set_match(a, b)


_SAFE_TEXT = st.text(
    alphabet=st.characters(blacklist_characters="'", blacklist_categories=("Cs", "Cc")),
    min_size=0,
    max_size=20,
)


@settings(max_examples=80, deadline=None)
@given(s=_SAFE_TEXT)
def test_string_literals_roundtrip(catalogs, s):
    cat = catalogs["venue_events"]
    ast = parse_sql(f"SELECT Name FROM Venue WHERE City = '{s}'", cat)
    assert ast.where_tree.rhs == Literal("str", s)
    again = parse_sql(render_sql(ast), cat)
    assert exact_set_match(ast, again)


_NESTED_TEXT = st.builds(
    _nested,
    st.sampled_from(sorted(_NESTING)),
    st.integers(min_value=0, max_value=2500),
    st.none() | st.text(max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(sql=st.text() | _NESTED_TEXT)
def test_parse_sql_returns_an_ast_or_raises_sql_error(catalogs, sql):
    try:
        ast = parse_sql(sql, catalogs["venue_events"])
    except SqlError:
        return
    assert isinstance(ast, QueryAst)
