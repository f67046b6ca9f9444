import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksql.linker import (
    aggregate_linking,
    parse_linker_output,
    score_linking,
)
from linksql.promptgen import serialize_link_target
from linksql.sqlast import LinkTarget, extract_link_targets, parse_sql


@pytest.fixture
def cat(catalogs):
    return catalogs["venue_events"]


def test_parse_exact_serialization(cat):
    text = "tables: venue, event\ncolumns: venue.city, event.title"
    target = parse_linker_output(text, cat)
    assert set(target.tables) == {"venue", "event"}
    assert set(target.columns) == {("venue", "city"), ("event", "title")}


def _debug_messages(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "linksql.linker"]


def test_parse_is_total_on_garbage(cat, caplog):
    caplog.set_level(logging.DEBUG, logger="linksql.linker")
    target = parse_linker_output("I cannot answer that.", cat)
    assert target == LinkTarget()
    assert _debug_messages(caplog)


def test_parse_tolerates_surrounding_prose(cat):
    text = "Sure! Here you go:\ntables: venue\ncolumns: venue.city\nHope that helps."
    target = parse_linker_output(text, cat)
    assert set(target.tables) == {"venue"}


def test_parse_case_insensitive(cat):
    target = parse_linker_output("tables: VENUE\ncolumns: Venue.CITY", cat)
    assert set(target.tables) == {"venue"}
    assert set(target.columns) == {("venue", "city")}


def test_parse_fuzzy_underscore_variants(cat):
    target = parse_linker_output(
        "tables: Shop Order\ncolumns: shop-order.order-id", cat
    )
    # no such table here; dropped with warning
    assert target == LinkTarget()


def test_parse_fuzzy_on_matching_schema(catalogs):
    cat = catalogs["retail"]
    target = parse_linker_output(
        "tables: Shop Order, product\ncolumns: shop-order.order-id", cat
    )
    assert set(target.tables) == {"shop_order", "product"}
    assert set(target.columns) == {("shop_order", "order_id")}


def test_parse_unknown_dropped_with_warning(cat, caplog):
    caplog.set_level(logging.DEBUG, logger="linksql.linker")
    target = parse_linker_output(
        "tables: venue, ghosts\ncolumns: venue.city, venue.nothing", cat
    )
    assert set(target.tables) == {"venue"}
    assert set(target.columns) == {("venue", "city")}
    assert len(_debug_messages(caplog)) == 2


def test_parse_unqualified_column_unique_owner(cat):
    target = parse_linker_output("tables: event\ncolumns: ticket_price", cat)
    assert set(target.columns) == {("event", "ticket_price")}


def test_parse_unqualified_column_ambiguous_dropped(cat, caplog):
    caplog.set_level(logging.DEBUG, logger="linksql.linker")
    # Venue and Artist both carry a Name column
    target = parse_linker_output("tables:\ncolumns: name", cat)
    assert target == LinkTarget()
    assert _debug_messages(caplog)


def test_parse_empty_lines(cat):
    target = parse_linker_output("tables:\ncolumns:", cat)
    assert target == LinkTarget()


def test_column_mention_implies_table(cat):
    target = parse_linker_output("tables:\ncolumns: venue.city", cat)
    assert set(target.tables) == {"venue"}


def test_roundtrip_serialize_parse(catalogs, corpus):
    for q in corpus[:60]:
        cat = catalogs[q.db_id]
        gold = extract_link_targets(parse_sql(q.sql, cat))
        back = parse_linker_output(serialize_link_target(gold, cat), cat)
        assert back == gold


# -- scoring ---------------------------------------------------------------


def T(tables=(), columns=()):
    return LinkTarget(frozenset(tables), frozenset(columns))


def test_identity_scores_perfect():
    gold = T({"venue"}, {("venue", "city")})
    s = score_linking(gold, gold)
    assert s.precision == s.recall == 1.0
    assert s.exact_match
    assert s.tables.precision == s.tables.recall == 1.0
    assert s.columns.exact_match


def test_hand_computed_combined_universe():
    # pred universe {venue, venue.city, venue.name}; gold {venue, event, venue.city}
    pred = T({"venue"}, {("venue", "city"), ("venue", "name")})
    gold = T({"venue", "event"}, {("venue", "city")})
    s = score_linking(pred, gold)
    assert s.precision == pytest.approx(2 / 3)
    assert s.recall == pytest.approx(2 / 3)
    assert not s.exact_match
    assert s.tables.precision == 1.0
    assert s.tables.recall == 0.5
    assert s.columns.precision == 0.5
    assert s.columns.recall == 1.0


def test_empty_set_conventions():
    # both empty is vacuously perfect; exactly one empty scores zero on both
    both = score_linking(T(), T())
    assert both.precision == both.recall == 1.0 and both.exact_match
    pred_only = score_linking(T({"venue"}), T())
    assert pred_only.precision == 0.0 and pred_only.recall == 0.0
    gold_only = score_linking(T(), T({"venue"}))
    assert gold_only.precision == 0.0 and gold_only.recall == 0.0
    assert not pred_only.exact_match and not gold_only.exact_match


def test_tables_right_columns_wrong():
    pred = T({"venue"}, {("venue", "name")})
    gold = T({"venue"}, {("venue", "city")})
    s = score_linking(pred, gold)
    assert s.tables.exact_match and not s.columns.exact_match
    assert not s.exact_match


def test_aggregate_macro_average():
    a = score_linking(T({"venue"}), T({"venue"}))
    b = score_linking(T({"venue"}), T({"event"}))
    summary = aggregate_linking([a, b])
    assert summary.n == 2
    assert summary.precision == pytest.approx((1.0 + 0.0) / 2)
    assert summary.recall == pytest.approx((1.0 + 0.0) / 2)
    assert summary.exact_match_rate == 0.5
    assert summary.tables[2] == 0.5


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate_linking([])


def _recount(pred: LinkTarget, gold: LinkTarget):
    pu = set(pred.tables) | {f"{t}.{c}" for t, c in pred.columns}
    gu = set(gold.tables) | {f"{t}.{c}" for t, c in gold.columns}
    if not pu and not gu:
        return 1.0, 1.0
    if not pu or not gu:
        return 0.0, 0.0
    inter = len(pu & gu)
    return inter / len(pu), inter / len(gu)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_score_matches_brute_force(catalogs, corpus, data):
    q = data.draw(st.sampled_from(corpus[:300]))
    o = data.draw(st.sampled_from(corpus[:300]))
    pred = LinkTarget(q.tables, q.columns)
    gold = LinkTarget(o.tables, o.columns)
    s = score_linking(pred, gold)
    p, r = _recount(pred, gold)
    assert s.precision == pytest.approx(p, abs=1e-12)
    assert s.recall == pytest.approx(r, abs=1e-12)
