import dataclasses
import itertools
import json
import math
import sqlite3
import time
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mockserver
from mockserver import MockEndpoint

from linksql.evalx import (
    DEFAULT_TIMEOUT_MS,
    FAILURE_KINDS,
    ConnectionSet,
    EvalReport,
    GoldExecutionError,
    SqlVerdict,
    _cell_key,
    _tables_equal,
    em_with_detail,
    evaluate_pair,
    evaluate_split,
    ex_with_detail,
    read_report,
    report_dict,
    report_text,
    write_verdicts,
)
from linksql.ingest import Example, Split, db_file_for
from linksql.linker import LinkingSummary
from linksql.orchestrate import EndpointConfig, run_pipeline
from linksql.promptgen import emit_sft_dataset
from linksql.sqlast import parse_sql, tokenize


@pytest.fixture
def cat(catalogs):
    return catalogs["venue_events"]


@pytest.fixture
def venue_db(fixture_paths):
    return db_file_for(fixture_paths["db_root_a"], "venue_events")


@pytest.fixture
def conns():
    with ConnectionSet() as connections:
        yield connections


@pytest.fixture
def scratch_db(tmp_path):
    """Tiny hand-built database for directed result comparisons."""
    path = tmp_path / "scratch.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE t (a INTEGER, b REAL, c TEXT);
        INSERT INTO t VALUES (1, 1.5, 'x');
        INSERT INTO t VALUES (2, 2.5, 'y');
        INSERT INTO t VALUES (3, NULL, 'z');
        INSERT INTO t VALUES (NULL, 0.0, 'x');
        """
    )
    conn.commit()
    conn.close()
    return path


# -- exact set match -------------------------------------------------------


def test_em_true_and_false(cat):
    gold = parse_sql("SELECT Name, City FROM Venue", cat)
    assert em_with_detail("SELECT City, Name FROM Venue", gold, cat) == (True, None)
    assert not em_with_detail("SELECT City FROM Venue", gold, cat)[0]


def test_em_detail_pred_parse_error(cat):
    gold = parse_sql("SELECT Name FROM Venue", cat)
    for pred in (
        "SELEC nonsense",
        "SELECT ² FROM Venue",  # a digit, but not a decimal one
        "SELECT Name FROM Venue WHERE " + "(" * 2000 + "Capacity > 1" + ")" * 2000,
    ):
        matched, kind = em_with_detail(pred, gold, cat)
        assert not matched and kind == "pred_parse_error", pred[:40]


def test_em_detail_component_mismatch(cat):
    gold = parse_sql("SELECT Name FROM Venue", cat)
    matched, kind = em_with_detail("SELECT City FROM Venue", gold, cat)
    assert not matched and kind == "component_mismatch"


# -- execution accuracy ----------------------------------------------------


def _ex_match(pred, gold, db, conns, *, ordered):
    return ex_with_detail(pred, gold, db, conns, ordered=ordered)[0]


def test_ex_identical_query(venue_db, conns):
    assert _ex_match(
        "SELECT Name FROM Venue", "SELECT Name FROM Venue", venue_db, conns, ordered=False
    )


def test_ex_row_multiset_not_set(scratch_db, conns):
    # duplicates matter: c='x' appears twice
    assert not _ex_match(
        "SELECT DISTINCT c FROM t", "SELECT c FROM t", scratch_db, conns, ordered=False
    )


def test_ex_column_order_permutation_accepted(scratch_db, conns):
    assert _ex_match("SELECT c, a FROM t", "SELECT a, c FROM t", scratch_db, conns, ordered=False)


def test_ex_column_count_mismatch(scratch_db, conns):
    assert not _ex_match("SELECT a FROM t", "SELECT a, c FROM t", scratch_db, conns, ordered=False)


def _tables_equal_by_brute_force(pred_rows, gold_rows, ordered):
    """Reference: try every column permutation of the prediction."""
    if len(pred_rows) != len(gold_rows):
        return False
    if not gold_rows:
        return True  # no row, so no width to compare
    ncols = len(gold_rows[0])
    if len(pred_rows[0]) != ncols:
        return False
    for perm in itertools.permutations(range(ncols)):
        permuted = [tuple(row[j] for j in perm) for row in pred_rows]
        if permuted == gold_rows if ordered else Counter(permuted) == Counter(gold_rows):
            return True
    return False


# three cell values, so that equal columns and equal rows are common
_cells = st.sampled_from((None, 0, "x")).map(_cell_key)


def _tables(ncols: int):
    return st.lists(st.tuples(*[_cells] * ncols), max_size=6)


@st.composite
def _table_pairs(draw):
    """(pred_rows, gold_rows): gold drawn, pred drawn afresh or derived from
    gold by shuffling its rows and columns and perhaps changing one cell."""
    ncols = draw(st.integers(1, 4))
    gold = draw(_tables(ncols))
    how = draw(st.sampled_from(("drawn", "identical", "rows", "columns", "both", "one cell")))
    if how == "drawn":
        return draw(_tables(draw(st.integers(1, 4)))), gold
    pred = list(gold)
    if how in ("rows", "both", "one cell"):
        pred = draw(st.permutations(pred))
    if how in ("columns", "both", "one cell"):
        perm = draw(st.permutations(range(ncols)))
        pred = [tuple(row[j] for j in perm) for row in pred]
    if how == "one cell" and pred:
        i = draw(st.integers(0, len(pred) - 1))
        j = draw(st.integers(0, ncols - 1))
        row = list(pred[i])
        row[j] = draw(_cells)
        pred[i] = tuple(row)
    return pred, gold


@settings(max_examples=600, deadline=None)
@given(tables=_table_pairs(), ordered=st.booleans())
def test_tables_equal_agrees_with_brute_force(tables, ordered):
    pred, gold = tables
    want = _tables_equal_by_brute_force(pred, gold, ordered)
    assert _tables_equal(pred, gold, ordered, math.inf) == want


def test_ex_null_distinct_from_zero_and_empty(scratch_db, conns):
    assert not _ex_match(
        "SELECT b FROM t WHERE a = 3", "SELECT 0 WHERE 0", scratch_db, conns, ordered=False
    )
    assert not _ex_match("SELECT 0", "SELECT NULL", scratch_db, conns, ordered=False)
    assert _ex_match("SELECT NULL", "SELECT NULL", scratch_db, conns, ordered=False)


def test_ex_int_float_unify(scratch_db, conns):
    assert _ex_match("SELECT 1", "SELECT 1.0", scratch_db, conns, ordered=False)
    assert _ex_match(
        "SELECT a + 0.0 FROM t WHERE a = 2", "SELECT 2", scratch_db, conns, ordered=False
    )


def test_ex_float_tolerance(scratch_db, conns):
    # differ at the 9th significant digit: same 7-significant-digit key
    assert _ex_match("SELECT 1.000000001", "SELECT 1.0000000005", scratch_db, conns, ordered=False)
    assert not _ex_match("SELECT 1.001", "SELECT 1.002", scratch_db, conns, ordered=False)


_non_integral = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda v: not v.is_integer()
)


@settings(max_examples=300, deadline=None)
@given(
    x=_non_integral,
    y=st.one_of(
        _non_integral,
        st.tuples(_non_integral, st.floats(-2e-6, 2e-6)).map(lambda p: p[0] * (1 + p[1])),
    ),
)
@example(x=1.0000005, y=1.00000049999999)
def test_cell_key_is_seven_digit_quantization(x, y):
    assume(not y.is_integer())
    assert (_cell_key(x) == _cell_key(y)) == (f"{x:.6e}" == f"{y:.6e}")


def test_cell_key_boundary_is_not_a_tolerance():
    # 1e-14 apart relative to each other, yet on two sides of a rounding
    # boundary: the keys differ, so EX calls the cells different.
    x, y = 1.0000005, 1.00000049999999
    assert abs(x - y) / x < 1e-13
    assert _cell_key(x) != _cell_key(y)


def test_ex_text_number_distinct(scratch_db, conns):
    assert not _ex_match("SELECT '1'", "SELECT 1", scratch_db, conns, ordered=False)


def test_ex_unordered_gold_accepts_permuted_rows(scratch_db, conns):
    assert _ex_match(
        "SELECT c FROM t ORDER BY c DESC", "SELECT c FROM t", scratch_db, conns, ordered=False
    )


def test_ex_ordered_gold_rejects_permuted_rows(scratch_db, conns):
    assert not _ex_match(
        "SELECT c FROM t ORDER BY c DESC",
        "SELECT c FROM t ORDER BY c ASC",
        scratch_db,
        conns,
        ordered=True,
    )
    assert _ex_match(
        "SELECT c FROM t ORDER BY c",
        "SELECT c FROM t ORDER BY c ASC",
        scratch_db,
        conns,
        ordered=True,
    )


def test_ex_order_within_sqlite_dialect_not_ours(scratch_db, conns):
    # gold uses syntax outside the supported parse dialect; EX still works
    assert _ex_match(
        "SELECT a FROM t WHERE a IS NOT NULL",
        "SELECT a FROM t WHERE a IS NOT NULL",
        scratch_db,
        conns,
        ordered=False,
    )


def test_ex_pred_error_detail(scratch_db, conns):
    matched, kind = ex_with_detail(
        "SELECT nope FROM missing", "SELECT 1", scratch_db, conns, ordered=False
    )
    assert not matched and kind == "pred_exec_error"


def test_ex_result_mismatch_detail(scratch_db, conns):
    matched, kind = ex_with_detail("SELECT 1", "SELECT 2", scratch_db, conns, ordered=False)
    assert not matched and kind == "result_mismatch"


def test_ex_empty_statement_is_error(scratch_db, conns):
    # sqlite accepts "" as a no-op; it must not match an empty result set
    matched, kind = ex_with_detail(
        "", "SELECT a FROM t WHERE a > 99", scratch_db, conns, ordered=False
    )
    assert not matched and kind == "pred_exec_error"


def test_ex_pred_timeout_detail(scratch_db, conns):
    slow = (
        "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r)"
        " SELECT count(*) FROM r"
    )
    start = time.monotonic()
    matched, kind = ex_with_detail(
        slow, "SELECT 1", scratch_db, conns, ordered=False, timeout_ms=200
    )
    elapsed = time.monotonic() - start
    assert not matched and kind == "timeout"
    assert elapsed < 5


def test_permutation_search_counts_against_the_deadline(tmp_path, conns):
    """Nine columns hold the same 40 values, each rotated by a triangular
    number. Every column has every other's multiset, but the shifts of
    c1..c8 are not those of c0..c7 plus a constant, so no permutation
    aligns the rows and an unbounded search would try all 8! of them."""
    shifts = [i * (i + 1) // 2 for i in range(9)]
    path = tmp_path / "rotations.sqlite"
    conn = sqlite3.connect(path)
    conn.execute(f"CREATE TABLE r ({', '.join(f'c{i}' for i in range(9))})")
    conn.executemany(
        f"INSERT INTO r VALUES ({', '.join('?' * 9)})",
        [[(row + s) % 40 for s in shifts] for row in range(40)],
    )
    conn.commit()
    conn.close()
    gold = f"SELECT {', '.join(f'c{i}' for i in range(8))} FROM r"
    pred = f"SELECT {', '.join(f'c{i}' for i in range(1, 9))} FROM r"
    start = time.monotonic()
    assert ex_with_detail(pred, gold, path, conns, ordered=False, timeout_ms=200) == (
        False,
        "timeout",
    )
    assert time.monotonic() - start < 2


def test_ex_gold_error_raises(scratch_db, conns):
    with pytest.raises(GoldExecutionError):
        ex_with_detail("SELECT 1", "SELECT broken FROM missing", scratch_db, conns, ordered=False)


def test_ex_gold_timeout_raises(scratch_db, conns):
    slow = (
        "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r)"
        " SELECT count(*) FROM r"
    )
    with pytest.raises(GoldExecutionError):
        ex_with_detail("SELECT 1", slow, scratch_db, conns, ordered=False, timeout_ms=200)


def test_ex_missing_db_is_infrastructure(tmp_path, conns):
    with pytest.raises(OSError):
        ex_with_detail("SELECT 1", "SELECT 1", tmp_path / "none.sqlite", conns, ordered=False)


def test_opening_a_connection_checks_the_file(scratch_db, conns, tmp_path):
    query = "SELECT a FROM t"
    with pytest.raises(OSError, match="not readable"):
        conns.run(tmp_path / "none.sqlite", query, time.monotonic() + 5)
    assert ex_with_detail(query, query, scratch_db, conns, ordered=False) == (True, None)
    scratch_db.rename(tmp_path / "moved.sqlite")
    # the kept connection is not checked again...
    assert ex_with_detail(query, query, scratch_db, conns, ordered=False) == (True, None)
    # ...but a dirty query closes it, and reopening checks the file
    assert ex_with_detail("DELETE FROM t", query, scratch_db, conns, ordered=False) == (
        False,
        "pred_exec_error",
    )
    with pytest.raises(OSError, match="not readable"):
        ex_with_detail(query, query, scratch_db, conns, ordered=False)


def test_ex_readonly_cannot_mutate(scratch_db, conns):
    matched, kind = ex_with_detail("DELETE FROM t", "SELECT 1", scratch_db, conns, ordered=False)
    assert not matched and kind == "pred_exec_error"
    conn = sqlite3.connect(scratch_db)
    assert conn.execute("SELECT count(*) FROM t").fetchone()[0] == 4
    conn.close()


# -- combined verdicts -----------------------------------------------------


@pytest.fixture
def pair(cat, venue_db, conns):
    """evaluate_pair on the venue_events database, gold parsed here."""
    return lambda example_id, pred, gold: evaluate_pair(
        example_id, pred, gold, parse_sql(gold, cat), cat, venue_db, conns
    )


def test_evaluate_pair_perfect(pair):
    v = pair("e:0", "SELECT Name FROM Venue", "SELECT Name FROM Venue")
    assert v.exact_match and v.execution_match
    assert v.failure_kind is None
    assert set(v.timings) == {"match_ms", "execution_ms"}
    assert all(t >= 0 for t in v.timings.values())


def test_gold_is_an_exact_match_of_itself(corpus, catalogs):
    """What evaluate_pair relies on when it skips parsing a prediction
    spelled as its gold."""
    for q in corpus:
        cat = catalogs[q.db_id]
        gold_ast = parse_sql(q.sql, cat)
        for ignore_values in (False, True):
            assert em_with_detail(q.sql, gold_ast, cat, ignore_values) == (True, None), q.sql


def test_prediction_spelled_as_gold_is_not_parsed_again(pair, monkeypatch):
    def no_parse(*args):
        raise AssertionError("prediction parsed again")

    monkeypatch.setattr("linksql.evalx.parse_sql", no_parse)
    gold = "SELECT Name, City FROM Venue WHERE Capacity > 100"
    v = pair("e:0", gold, gold)  # the fixture parses the gold itself
    assert v.exact_match and v.execution_match and v.failure_kind is None
    # one character off is a different text, which is parsed
    with pytest.raises(AssertionError, match="parsed again"):
        pair("e:0", gold + " ", gold)


@pytest.mark.parametrize(
    "gold, parsed",
    [
        ("SELECT Name FROM Venue", "SELECT Name FROM Venue"),
        # random() is outside the dialect; the shortcut reads only the text,
        # so the parse of the same query ordered by a column stands in
        (
            "SELECT Name FROM Venue ORDER BY random() LIMIT 1",
            "SELECT Name FROM Venue ORDER BY Name LIMIT 1",
        ),
    ],
)
def test_prediction_spelled_as_gold_is_still_executed(
    cat, venue_db, conns, monkeypatch, gold, parsed
):
    ran = []
    run = ConnectionSet.run

    def spy(self, db_file, sql, deadline):
        ran.append(sql)
        return run(self, db_file, sql, deadline)

    monkeypatch.setattr(ConnectionSet, "run", spy)
    v = evaluate_pair("e:0", gold, gold, parse_sql(parsed, cat), cat, venue_db, conns)
    assert ran == [gold, gold]
    assert v.exact_match


def test_evaluate_pair_em_false_ex_true(pair):
    # equivalent but structurally different: EX true, EM component mismatch
    v = pair(
        "e:1",
        "SELECT Name FROM Venue WHERE Capacity >= 0 OR Capacity < 0 OR Capacity IS NULL",
        "SELECT Name FROM Venue",
    )
    assert v.execution_match and not v.exact_match
    assert v.failure_kind == "pred_parse_error"  # IS NULL is outside the dialect


def test_evaluate_pair_component_mismatch_kind(pair):
    v = pair("e:2", "SELECT Name FROM Venue WHERE Capacity > 0", "SELECT Name FROM Venue")
    # fixture capacities are all positive so results agree
    assert v.execution_match and not v.exact_match
    assert v.failure_kind == "component_mismatch"


def test_evaluate_pair_execution_side_wins(pair):
    v = pair("e:3", "SELECT Name FROM Nowhere", "SELECT Name FROM Venue")
    assert not v.execution_match and not v.exact_match
    assert v.failure_kind == "pred_exec_error"


def test_evaluate_pair_result_mismatch(pair):
    v = pair("e:4", "SELECT City FROM Venue", "SELECT Name FROM Venue")
    assert v.failure_kind == "result_mismatch"
    assert v.failure_kind in FAILURE_KINDS


def test_aggregate_math(catalogs, venue_split):
    split = venue_split("SELECT Name FROM Venue", "SELECT Name FROM Venue")
    predictions = {"t:0": "SELECT Name FROM Venue", "t:1": "SELECT City FROM Venue"}
    report = evaluate_split("full", split, catalogs, predictions, model_name="m1")
    assert report.n == 2
    assert report.ex_accuracy == 0.5
    assert report.em_accuracy == 0.5
    assert report.mode == "full"
    assert report.model == "m1"


def test_aggregate_empty_rejected(catalogs):
    with pytest.raises(ValueError, match="no evaluable examples"):
        evaluate_split("full", Split("t", ()), catalogs, {})


def test_verdict_roundtrip(pair, tmp_path):
    verdicts = [pair("a", "SELECT Name FROM Venue", "SELECT Name FROM Venue")]
    out = tmp_path / "verdicts.jsonl"
    write_verdicts(out, verdicts)
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[0]["example_id"] == "a"
    assert [SqlVerdict(**row) for row in rows] == verdicts


def test_report_roundtrip_and_text(pair, tmp_path):
    verdicts = [
        pair("a", "SELECT Name FROM Venue", "SELECT Name FROM Venue"),
        pair("b", "SELECT City FROM Venue", "SELECT Name FROM Venue"),
    ]
    report = EvalReport(
        mode="dts",
        model="toy-7b",
        n=2,
        ex_accuracy=0.5,
        em_accuracy=0.5,
        quarantined=("q:0",),
        invalid_gold=(),
        skipped_no_database=("s:1",),
        verdicts=tuple(verdicts),
        linking=LinkingSummary(2, 0.75, 0.5, 0.5, (1.0, 1.0, 1.0), (0.25, 0.5, 0.0)),
    )
    path = tmp_path / "report.json"
    for written in (report, dataclasses.replace(report, linking=None)):
        path.write_text(json.dumps(report_dict(written), indent=2), encoding="utf-8")
        assert read_report(path) == written
    text = report_text(report)
    assert "toy-7b" in text
    assert "two-stage" in text
    assert "50.0" in text
    assert "quarantined" in text.lower()


def test_default_timeout_is_30s():
    assert DEFAULT_TIMEOUT_MS == 30000


# -- scoring a split -------------------------------------------------------

def _split(db_root, rows) -> Split:
    """Examples t:0, t:1, ... from rows of (db_id, gold SQL)."""
    examples = tuple(
        Example(f"t:{i}", f"question {i}", gold, db_id, db_file_for(db_root, db_id))
        for i, (db_id, gold) in enumerate(rows)
    )
    return Split("t", examples)


def _outcome(v):
    return (v.example_id, v.exact_match, v.execution_match, v.failure_kind)


def _fresh(split, catalogs, predictions):
    """Per-example verdicts, each scored on connections of its own."""
    out = []
    for ex in split.examples:
        cat = catalogs[ex.db_id]
        with ConnectionSet() as conns:
            v = evaluate_pair(
                ex.example_id,
                predictions[ex.example_id],
                ex.gold_sql,
                parse_sql(ex.gold_sql, cat),
                cat,
                ex.db_file,
                conns,
            )
        out.append(_outcome(v))
    return out


def _token_scan_order(sql: str) -> bool:
    """Reference: an ORDER BY keyword outside every parenthesis."""
    depth = 0
    for tok in tokenize(sql):
        if tok.kind == "OP" and tok.value == "(":
            depth += 1
        elif tok.kind == "OP" and tok.value == ")":
            depth -= 1
        elif depth == 0 and tok.is_kw("order"):
            return True
    return False


def test_has_toplevel_order_matches_token_scan(corpus, catalogs):
    checked = 0
    for q in corpus:
        for sql in filter(None, (q.sql, q.twin_sql, q.variant_sql)):
            want = _token_scan_order(sql)
            assert parse_sql(sql, catalogs[q.db_id]).has_toplevel_order() == want, sql
            checked += 1
    assert checked > 2 * len(corpus)


def test_ambiguous_column_fails_em_as_it_fails_ex(cat, venue_db, conns):
    # venue and artist both carry a name column; SQLite rejects the bare one
    gold = "SELECT venue.name FROM venue JOIN artist ON venue.venue_id = artist.artist_id"
    pred = "SELECT name FROM venue JOIN artist ON venue.venue_id = artist.artist_id"
    gold_ast = parse_sql(gold, cat)
    assert em_with_detail(pred, gold_ast, cat) == (False, "pred_parse_error")
    assert ex_with_detail(pred, gold, venue_db, conns, ordered=False) == (
        False,
        "pred_exec_error",
    )


def test_evaluate_split_matches_evaluate_pair_on_corpus(corpus, catalogs, fixture_paths):
    picked = corpus[::3]
    split = _split(fixture_paths["db_root_a"], [(q.db_id, q.sql) for q in picked])
    kinds = (
        lambda q: q.sql,
        lambda q: q.twin_sql or q.sql,
        lambda q: q.variant_sql or q.sql,
        lambda q: q.sql[: len(q.sql) // 2],  # broken: parse and execution errors
    )
    predictions = {
        ex.example_id: kinds[i % len(kinds)](q)
        for i, (ex, q) in enumerate(zip(split.examples, picked))
    }
    report = evaluate_split("dts", split, catalogs, predictions)
    assert report.n == len(picked)
    kinds_seen = {v.failure_kind for v in report.verdicts}
    assert kinds_seen >= {None, "pred_exec_error", "result_mismatch", "component_mismatch"}
    assert [_outcome(v) for v in report.verdicts] == _fresh(split, catalogs, predictions)


@pytest.fixture
def venue_split(fixture_paths):
    return lambda *golds: _split(fixture_paths["db_root_a"], [("venue_events", g) for g in golds])


def _first_venue_name(venue_db) -> str:
    conn = sqlite3.connect(venue_db)
    try:
        return conn.execute("SELECT Name FROM Venue ORDER BY Venue_ID LIMIT 1").fetchone()[0]
    finally:
        conn.close()


@pytest.mark.parametrize("polluter", ["temp_table", "pragma", "attach", "begin"])
def test_connection_state_does_not_leak(polluter, catalogs, venue_split, venue_db):
    name = _first_venue_name(venue_db)
    # (state-changing prediction, next gold, next prediction): the next
    # pair scores differently on a connection that kept the state, except
    # after BEGIN, whose open transaction no read can see
    cases = {
        "temp_table": (
            "CREATE TEMP TABLE Venue AS SELECT 99 AS Name",
            "SELECT Name FROM Venue",
            "SELECT 99",
        ),
        "pragma": (
            "PRAGMA case_sensitive_like=1",
            f"SELECT Name FROM Venue WHERE Name LIKE '{name.lower()}'",
            f"SELECT Name FROM Venue WHERE Name LIKE '{name}'",
        ),
        "attach": (
            "ATTACH ':memory:' AS x",
            "SELECT Name FROM Venue WHERE Capacity < 0",
            "SELECT name FROM x.sqlite_master",
        ),
        "begin": ("BEGIN", "SELECT Name FROM Venue", "SELECT Name FROM Venue"),
    }
    first, next_gold, next_pred = cases[polluter]
    split = venue_split("SELECT Name FROM Venue", next_gold)
    predictions = {"t:0": first, "t:1": next_pred}
    report = evaluate_split("full", split, catalogs, predictions)
    assert report.verdicts[0].failure_kind == "pred_exec_error"
    assert [_outcome(v) for v in report.verdicts] == _fresh(split, catalogs, predictions)


def test_timeout_on_reused_connection_then_normal_query(catalogs, venue_split):
    split = venue_split("SELECT Name FROM Venue", "SELECT City FROM Venue")
    slow = (
        "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r)"
        " SELECT count(*) FROM r"
    )
    predictions = {"t:0": slow, "t:1": "SELECT City FROM Venue"}
    start = time.monotonic()
    report = evaluate_split("full", split, catalogs, predictions, timeout_ms=200)
    assert time.monotonic() - start < 5
    assert _outcome(report.verdicts[0]) == ("t:0", False, False, "timeout")
    assert _outcome(report.verdicts[1]) == ("t:1", True, True, None)


def test_evaluate_split_cannot_mutate(catalogs, venue_split, venue_db):
    def count():
        conn = sqlite3.connect(venue_db)
        try:
            return conn.execute("SELECT count(*) FROM Venue").fetchone()[0]
        finally:
            conn.close()

    before = count()
    split = venue_split("SELECT Name FROM Venue", "SELECT count(*) FROM Venue")
    predictions = {"t:0": "DELETE FROM Venue", "t:1": "SELECT count(*) FROM Venue"}
    report = evaluate_split("full", split, catalogs, predictions)
    assert report.verdicts[0].failure_kind == "pred_exec_error"
    assert _outcome(report.verdicts[1]) == ("t:1", True, True, None)
    assert count() == before


def test_three_jobs_quarantine_the_same_gold(catalogs, venue_split, tmp_path):
    split = venue_split(
        "SELECT Name FROM Venue",
        "SELECT Name FROM Venue WHERE Capacity IS NOT NULL",  # syntax outside the dialect
        "SELECT City FROM Venue",
        "SELECT Ghost FROM Venue",  # unknown column
        "SELECT name FROM venue JOIN artist ON venue.venue_id = artist.artist_id",  # ambiguous
        "SELECT count(*) FROM Venue",
        "SELECT Name FROM Venue LIMIT ²",  # a digit, but not a decimal one
        "SELECT * FROM " + "(SELECT * FROM " * 2000 + "Venue" + ")" * 2000,  # nested too deeply
    )
    bad = ["t:1", "t:3", "t:4", "t:6", "t:7"]

    manifest = emit_sft_dataset(split.examples, catalogs, "link", tmp_path / "link.jsonl")
    assert manifest["quarantined"] == bad
    assert manifest["count"] == 3

    with MockEndpoint(mockserver.constant("SELECT 1")) as ep:
        config = EndpointConfig(base_url=ep.base_url, model_name="m", max_retries=0)
        traces = run_pipeline("oracle_link", split, catalogs, config=config)
    unusable = [
        t.example_id
        for t in traces
        if t.fallback_full_schema
        and t.error is not None
        and t.error.startswith("gold SQL unusable for linking")
    ]
    assert unusable == bad
    assert all(t.error is None for t in traces if t.example_id not in bad)

    predictions = {ex.example_id: ex.gold_sql for ex in split.examples}
    report = evaluate_split("oracle_link", split, catalogs, predictions)
    assert list(report.quarantined) == bad
    assert report.n == 3
    assert [v.example_id for v in report.verdicts] == ["t:0", "t:2", "t:5"]
    assert report.ex_accuracy == report.em_accuracy == 1.0
