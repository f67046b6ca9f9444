import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querygen import make_corpus

from linksql.sqlast import (
    SqlError,
    exact_set_match,
    extract_link_targets,
    parse_sql,
    tokenize,
)
from linksql.sqlast.nodes import DERIVED_PREFIX, Agg, BoolNode, ColumnRef, Literal, QueryAst, Star


@pytest.fixture
def cat(catalogs):
    return catalogs["venue_events"]


def em(cat, a, b, **kw):
    return exact_set_match(parse_sql(a, cat), parse_sql(b, cat), **kw)


# -- commutative positions -------------------------------------------------


def test_select_order_free(cat):
    assert em(cat, "SELECT Name, City FROM Venue", "SELECT City, Name FROM Venue")


def test_and_order_free(cat):
    assert em(
        cat,
        "SELECT Name FROM Venue WHERE City = 'a' AND Capacity > 5",
        "SELECT Name FROM Venue WHERE Capacity > 5 AND City = 'a'",
    )


def test_or_order_free(cat):
    assert em(
        cat,
        "SELECT Name FROM Venue WHERE City = 'a' OR Capacity > 5",
        "SELECT Name FROM Venue WHERE Capacity > 5 OR City = 'a'",
    )


def test_in_list_order_free(cat):
    assert em(
        cat,
        "SELECT Name FROM Venue WHERE City IN ('a', 'b', 'c')",
        "SELECT Name FROM Venue WHERE City IN ('c', 'a', 'b')",
    )


def test_join_side_order_free(cat):
    assert em(
        cat,
        "SELECT Title FROM Event JOIN Venue ON Event.Venue_ID = Venue.Venue_ID",
        "SELECT Title FROM Event JOIN Venue ON Venue.Venue_ID = Event.Venue_ID",
    )


def test_from_order_free(cat):
    assert em(
        cat,
        "SELECT Event.Title FROM Event JOIN Venue ON Event.Venue_ID = Venue.Venue_ID",
        "SELECT Event.Title FROM Venue JOIN Event ON Event.Venue_ID = Venue.Venue_ID",
    )


def test_union_operands_order_free(cat):
    assert em(
        cat,
        "SELECT Name FROM Venue UNION SELECT Name FROM Artist",
        "SELECT Name FROM Artist UNION SELECT Name FROM Venue",
    )
    assert em(
        cat,
        "SELECT Name FROM Venue INTERSECT SELECT Name FROM Artist",
        "SELECT Name FROM Artist INTERSECT SELECT Name FROM Venue",
    )


def test_aliases_do_not_matter(cat):
    assert em(
        cat,
        "SELECT Event.Title FROM Event JOIN Venue ON Event.Venue_ID = Venue.Venue_ID",
        "SELECT T1.Title FROM Event AS T1 JOIN Venue AS T2 ON T1.Venue_ID = T2.Venue_ID",
    )
    assert em(
        cat,
        "SELECT count(*) FROM Venue AS a JOIN Venue AS b",
        "SELECT count(*) FROM Venue AS x, Venue AS y",
    )


def test_keyword_case_immaterial(cat):
    assert em(cat, "SELECT Name FROM Venue", "select name from venue")


# -- order-sensitive positions ---------------------------------------------


def test_order_by_sequence_matters(cat):
    assert not em(
        cat,
        "SELECT Name FROM Venue ORDER BY City, Capacity",
        "SELECT Name FROM Venue ORDER BY Capacity, City",
    )


def test_order_direction_matters(cat):
    assert not em(
        cat,
        "SELECT Name FROM Venue ORDER BY Capacity ASC",
        "SELECT Name FROM Venue ORDER BY Capacity DESC",
    )


def test_except_operands_keep_order(cat):
    assert not em(
        cat,
        "SELECT Name FROM Venue EXCEPT SELECT Name FROM Artist",
        "SELECT Name FROM Artist EXCEPT SELECT Name FROM Venue",
    )


def test_between_bounds_keep_order(cat):
    assert not em(
        cat,
        "SELECT Name FROM Venue WHERE Capacity BETWEEN 1 AND 9",
        "SELECT Name FROM Venue WHERE Capacity BETWEEN 9 AND 1",
    )


def test_where_operand_sides_matter(cat):
    assert not em(
        cat,
        "SELECT Title FROM Event, Venue WHERE Event.Venue_ID = Venue.Venue_ID",
        "SELECT Title FROM Event, Venue WHERE Venue.Venue_ID = Event.Venue_ID",
    )


def test_distinct_matters(cat):
    assert not em(cat, "SELECT City FROM Venue", "SELECT DISTINCT City FROM Venue")


def test_and_vs_or_matters(cat):
    assert not em(
        cat,
        "SELECT Name FROM Venue WHERE City = 'a' AND Capacity > 5",
        "SELECT Name FROM Venue WHERE City = 'a' OR Capacity > 5",
    )


def test_aggregate_function_matters(cat):
    assert not em(cat, "SELECT max(Capacity) FROM Venue", "SELECT min(Capacity) FROM Venue")


def test_limit_matters(cat):
    assert not em(
        cat,
        "SELECT Name FROM Venue ORDER BY Capacity LIMIT 1",
        "SELECT Name FROM Venue ORDER BY Capacity LIMIT 2",
    )
    assert not em(
        cat,
        "SELECT Name FROM Venue ORDER BY Capacity",
        "SELECT Name FROM Venue ORDER BY Capacity LIMIT 2",
    )


# -- value-insensitive mode ------------------------------------------------


def test_ignore_values_masks_literals(cat):
    assert not em(
        cat,
        "SELECT Name FROM Venue WHERE Capacity > 5",
        "SELECT Name FROM Venue WHERE Capacity > 99",
    )
    assert em(
        cat,
        "SELECT Name FROM Venue WHERE Capacity > 5",
        "SELECT Name FROM Venue WHERE Capacity > 99",
        ignore_values=True,
    )


def test_ignore_values_collapses_in_arity(cat):
    assert em(
        cat,
        "SELECT Name FROM Venue WHERE City IN ('a', 'b')",
        "SELECT Name FROM Venue WHERE City IN ('x', 'y', 'z')",
        ignore_values=True,
    )


def test_ignore_values_keeps_structure_significant(cat):
    assert not em(
        cat,
        "SELECT Name FROM Venue WHERE Capacity > 5",
        "SELECT Name FROM Venue WHERE Capacity < 5",
        ignore_values=True,
    )


def test_ignore_values_keeps_limit_verbatim(cat):
    assert not em(
        cat,
        "SELECT Name FROM Venue ORDER BY Capacity LIMIT 1",
        "SELECT Name FROM Venue ORDER BY Capacity LIMIT 3",
        ignore_values=True,
    )


def test_ignore_values_keeps_between_shape(cat):
    assert em(
        cat,
        "SELECT Name FROM Venue WHERE Capacity BETWEEN 1 AND 9",
        "SELECT Name FROM Venue WHERE Capacity BETWEEN 5 AND 20",
        ignore_values=True,
    )


# -- canonical form --------------------------------------------------------


def test_component_dict_equality_is_em(cat):
    a = parse_sql("SELECT Name, City FROM Venue WHERE Capacity > 3", cat)
    b = parse_sql("SELECT City, Name FROM Venue WHERE Capacity > 3", cat)
    c = parse_sql("SELECT City FROM Venue WHERE Capacity > 3", cat)
    assert exact_set_match(a, b)
    assert not exact_set_match(a, c)


def test_set_op_components_stable_under_operand_swap(cat):
    left = "SELECT Name FROM Venue WHERE Capacity > 1"
    union = f"{left} UNION SELECT Name FROM Artist"
    assert em(cat, union, f"SELECT Name FROM Artist UNION {left}")
    # the compound is not its first operand alone
    assert not em(cat, union, left)


def test_nested_bool_flattening(cat):
    assert em(
        cat,
        "SELECT Name FROM Venue WHERE (City = 'a' AND Capacity > 5) AND Outdoor = 1",
        "SELECT Name FROM Venue WHERE City = 'a' AND (Capacity > 5 AND Outdoor = 1)",
    )


# -- extraction ------------------------------------------------------------


def xt(cat, sql):
    t = extract_link_targets(parse_sql(sql, cat))
    return set(t.tables), set(t.columns)


def test_extract_simple(cat):
    tables, cols = xt(cat, "SELECT Name FROM Venue WHERE Capacity > 5")
    assert tables == {"venue"}
    assert cols == {("venue", "name"), ("venue", "capacity")}


def test_extract_star_contributes_nothing(cat):
    tables, cols = xt(cat, "SELECT * FROM Venue")
    assert tables == {"venue"}
    assert cols == set()


def test_extract_join_and_subquery_tables(cat):
    tables, cols = xt(
        cat,
        "SELECT Event.Title FROM Event WHERE Event.Venue_ID IN"
        " (SELECT Venue_ID FROM Venue WHERE Capacity > 10)",
    )
    assert tables == {"event", "venue"}
    assert ("venue", "capacity") in cols


def test_extract_derived_inner_contributes(cat):
    tables, cols = xt(cat, "SELECT count(*) FROM (SELECT City FROM Venue)")
    assert tables == {"venue"}
    assert cols == {("venue", "city")}


def test_extract_derived_outer_ref_not_counted(cat):
    tables, cols = xt(cat, "SELECT City FROM (SELECT City FROM Venue)")
    assert cols == {("venue", "city")}
    assert all(not t.startswith("#") for t in tables)


def test_extract_set_op_both_sides(cat):
    tables, _ = xt(cat, "SELECT Name FROM Venue UNION SELECT Name FROM Artist")
    assert tables == {"venue", "artist"}


def test_extract_correlated_exists(cat):
    tables, cols = xt(
        cat,
        "SELECT Name FROM Venue WHERE EXISTS"
        " (SELECT * FROM Event WHERE Event.Venue_ID = Venue.Venue_ID)",
    )
    assert tables == {"venue", "event"}
    assert ("event", "venue_id") in cols and ("venue", "venue_id") in cols


def test_extract_order_group_having_columns(cat):
    _, cols = xt(
        cat,
        "SELECT City FROM Venue GROUP BY City HAVING max(Capacity) > 5 ORDER BY City",
    )
    assert cols == {("venue", "city"), ("venue", "capacity")}


# -- corpus properties -----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_em_reflexive_on_corpus(catalogs, corpus, data):
    q = data.draw(st.sampled_from(corpus))
    ast = parse_sql(q.sql, catalogs[q.db_id])
    assert exact_set_match(ast, ast)
    assert exact_set_match(ast, ast, ignore_values=True)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_em_symmetric_on_twin_and_variant(catalogs, corpus, data):
    q = data.draw(st.sampled_from(corpus))
    cat = catalogs[q.db_id]
    gold = parse_sql(q.sql, cat)
    for other_sql in (q.twin_sql, q.variant_sql):
        if other_sql is None:
            continue
        other = parse_sql(other_sql, cat)
        for iv in (False, True):
            assert exact_set_match(gold, other, ignore_values=iv) == exact_set_match(
                other, gold, ignore_values=iv
            )


# -- agreement with the repr-sorted canonical form -------------------------

# The canonical form before bags: each order-free part a tuple sorted by
# repr. It is kept here as the reference that exact_set_match must agree
# with.


def _ref_components(ast, iv):
    cq = _ref_query(ast, iv)
    if cq[0] == "compound":
        _, op, operands = cq
        core, set_entry = operands[0], (op, operands)
    else:
        core, set_entry = cq, None
    keys = ("select", "from", "joins", "where", "group_by", "having", "order_by", "limit")
    parts = dict(zip(keys, core[1:]))
    parts["set_op"] = set_entry
    return parts


def _ref_em(pred, gold, iv):
    return _ref_components(pred, iv) == _ref_components(gold, iv)


def _ref_sorted(items):
    return tuple(sorted(items, key=repr))


def _ref_query(q, iv):
    core = (
        "query",
        (q.select_distinct, _ref_sorted(_ref_expr(it, iv) for it in q.select_items)),
        (
            tuple(sorted(t for t in q.from_order if not t.startswith(DERIVED_PREFIX))),
            _ref_sorted(_ref_query(d.query, iv) for d in q.derived),
        ),
        _ref_sorted(
            (("col", p.left.table, p.left.column), ("col", p.right.table, p.right.column))
            for p in q.join_conditions
        ),
        _ref_tree(q.where_tree, iv),
        tuple(sorted(("col", r.table, r.column) for r in q.group_by)),
        _ref_tree(q.having_tree, iv),
        tuple((_ref_expr(o.expr, iv), o.direction) for o in q.order_by),
        q.limit,
    )
    if q.set_op is None:
        return core
    operands = [core, _ref_query(q.set_op.rhs, iv)]
    if q.set_op.op in ("union", "intersect"):
        operands.sort(key=repr)
    return ("compound", q.set_op.op, tuple(operands))


def _ref_expr(expr, iv):
    if isinstance(expr, Star):
        return ("star", expr.table)
    if isinstance(expr, ColumnRef):
        return ("col", expr.table, expr.column)
    if isinstance(expr, Literal):
        return ("lit", "?", "?") if iv else ("lit", expr.kind, expr.text)
    if isinstance(expr, Agg):
        return ("agg", expr.func, expr.distinct, _ref_expr(expr.arg, iv))
    # unrolled into the left-nested binary chain, so that the reference does
    # not depend on how the parser flattens a run
    ref = _ref_expr(expr.operands[0], iv)
    for op, operand in zip(expr.ops, expr.operands[1:]):
        ref = ("arith", op, ref, _ref_expr(operand, iv))
    return ref


def _ref_tree(tree, iv):
    if tree is None:
        return None
    if isinstance(tree, BoolNode):
        children = []
        for child in tree.children:
            c = _ref_tree(child, iv)
            if isinstance(c, tuple) and len(c) == 2 and c[0] == tree.op:
                children.extend(c[1])
            else:
                children.append(c)
        return (tree.op, _ref_sorted(children))
    lhs = _ref_expr(tree.lhs, iv) if tree.lhs is not None else None
    rhs = tree.rhs
    if isinstance(rhs, QueryAst):
        rhs_c = ("subq", _ref_query(rhs, iv))
    elif isinstance(rhs, tuple) and tree.op == "between":
        rhs_c = ("range", _ref_expr(rhs[0], iv), _ref_expr(rhs[1], iv))
    elif isinstance(rhs, tuple):
        values = (("lit", "?", "?"),) if iv else _ref_sorted(_ref_expr(v, False) for v in rhs)
        rhs_c = ("list", values)
    else:
        rhs_c = _ref_expr(rhs, iv)
    return ("pred", tree.op, lhs, rhs_c)


def _assert_em_agrees(a, b):
    for iv in (False, True):
        assert exact_set_match(a, b, iv) == _ref_em(a, b, iv)
        assert exact_set_match(b, a, iv) == _ref_em(b, a, iv)


def _mutants(text, rng, count):
    """Texts made from ``text`` by deleting, repeating, swapping or copying
    over one token."""
    tokens = tokenize(text)
    starts = [t.pos for t in tokens]
    pieces = [text[a:b].strip() for a, b in zip(starts, starts[1:])]
    for _ in range(count):
        out = list(pieces)
        i = rng.randrange(len(out))
        how = rng.randrange(4)
        if how == 0:
            del out[i]
        elif how == 1:
            out.insert(i, out[i])
        elif how == 2 and i + 1 < len(out):
            out[i], out[i + 1] = out[i + 1], out[i]
        else:
            out[i] = rng.choice(pieces)
        yield " ".join(out)


@pytest.mark.parametrize("seed", [20240, 7])
def test_em_agrees_with_repr_sorted_form(pools, catalogs, seed):
    rng = random.Random(seed)
    outcomes = Counter()
    for q in make_corpus(pools, per_schema=400, seed=seed):
        cat = catalogs[q.db_id]
        texts = [t for t in (q.sql, q.twin_sql, q.variant_sql) if t is not None]
        asts = [parse_sql(t, cat) for t in texts]
        for other in asts:
            _assert_em_agrees(asts[0], other)
        _assert_em_agrees(asts[1], asts[-1])
        for text in texts:
            for mutant in _mutants(text, rng, 3):
                try:
                    ast = parse_sql(mutant, cat)
                except SqlError:
                    continue
                _assert_em_agrees(ast, asts[0])
                outcomes[exact_set_match(ast, asts[0])] += 1
    # the mutants that parse include matches (a swap of equal tokens, a
    # commuted operand) and mismatches
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


@pytest.mark.parametrize(
    "db, a, b, same",
    [
        (
            "venue_events",
            "SELECT Name FROM Venue WHERE (City = 'a' AND Capacity > 5)"
            " AND (Outdoor = 1 AND Venue_ID < 9)",
            "SELECT Name FROM Venue WHERE City = 'a' AND Capacity > 5"
            " AND Outdoor = 1 AND Venue_ID < 9",
            True,
        ),
        (
            "venue_events",
            "SELECT Name FROM Venue WHERE (City = 'a' AND City = 'a')"
            " AND (City = 'a' OR Outdoor = 1)",
            "SELECT Name FROM Venue WHERE City = 'a'"
            " AND (Outdoor = 1 OR City = 'a') AND City = 'a'",
            True,
        ),
        (
            "venue_events",
            "SELECT Name FROM Venue WHERE (City = 'a' AND City = 'a') AND Outdoor = 1",
            "SELECT Name FROM Venue WHERE City = 'a' AND Outdoor = 1",
            False,
        ),
        ("venue_events", "SELECT Name, Name FROM Venue", "SELECT Name FROM Venue", False),
        (
            "venue_events",
            "SELECT Name, City, Name FROM Venue",
            "SELECT Name, Name, City FROM Venue",
            True,
        ),
        (
            "venue_events",
            "SELECT Name, City, Name FROM Venue",
            "SELECT Name, City, City FROM Venue",
            False,
        ),
        (
            "venue_events",
            "SELECT Name FROM Venue WHERE City IN ('a', 'a', 'b')",
            "SELECT Name FROM Venue WHERE City IN ('b', 'a')",
            False,
        ),
        (
            "library",
            "SELECT count(*) FROM Loan AS a JOIN Loan AS b",
            "SELECT count(*) FROM Loan",
            False,
        ),
        (
            "venue_events",
            "SELECT ((Capacity * Venue_ID)) / 2 FROM Venue WHERE 3 < (Capacity + 1) - Venue_ID",
            "SELECT Capacity * Venue_ID / 2 FROM Venue WHERE 3 < Capacity + 1 - Venue_ID",
            True,
        ),
        (
            "venue_events",
            "SELECT Capacity + (Venue_ID + 1) FROM Venue",
            "SELECT Capacity + Venue_ID + 1 FROM Venue",
            False,
        ),
        (
            "venue_events",
            "SELECT (Capacity + Venue_ID) * 2 FROM Venue",
            "SELECT Capacity + Venue_ID * 2 FROM Venue",
            False,
        ),
        (
            "venue_events",
            "SELECT Name FROM Venue WHERE (Capacity + 1) > 3",
            "SELECT Name FROM Venue WHERE Capacity + 1 > 3",
            True,
        ),
        (
            "venue_events",
            "SELECT Name FROM Venue WHERE ((Capacity + 1)) * 2 > 3 AND (City = 'a')",
            "SELECT Name FROM Venue WHERE (Capacity + 1) * 2 > 3 AND City = 'a'",
            True,
        ),
        (
            "venue_events",
            "SELECT Name FROM Venue WHERE (Capacity) IN (1, 2) OR (City) NOT LIKE 'a%'",
            "SELECT Name FROM Venue WHERE Capacity IN (1, 2) OR City NOT LIKE 'a%'",
            True,
        ),
        (
            "venue_events",
            "SELECT 9007199254740993 FROM Venue",
            "SELECT 9007199254740992 FROM Venue",
            False,
        ),
    ],
    ids=[
        "two-nested-ands",
        "repeated-conjunct",
        "twice-vs-once",
        "duplicate-select-item",
        "reordered-duplicates",
        "other-duplicate",
        "in-list-duplicate",
        "self-join",
        "parenthesized-first-operand",
        "parenthesized-last-operand",
        "parenthesized-lower-class",
        "parenthesized-left-operand",
        "twice-parenthesized-left-operand",
        "parenthesized-column-operand",
        "long-integers",
    ],
)
def test_bags_flatten_and_count_as_before(catalogs, db, a, b, same):
    cat = catalogs[db]
    a, b = parse_sql(a, cat), parse_sql(b, cat)
    assert exact_set_match(a, b) is same
    _assert_em_agrees(a, b)
