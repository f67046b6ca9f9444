import dataclasses
import itertools
import json
import math
import re
import sqlite3
import tempfile
import time
from collections import Counter
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mockserver
from mockserver import MockEndpoint

from linksql.evalx import (
    DEFAULT_TIMEOUT_MS,
    FAILURE_KINDS,
    MAX_RESULT_ROWS,
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
from linksql.sqlast import LinkTarget, extract_link_targets, parse_sql, tokenize


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


def test_unicode_digit_is_not_a_number(cat, venue_db, conns):
    # SQLite reads ٣ as a column name, so EM must not read it as 3
    gold = "SELECT Name FROM Venue WHERE Capacity > 3"
    pred = "SELECT Name FROM Venue WHERE Capacity > ٣"
    assert em_with_detail(pred, parse_sql(gold, cat), cat) == (False, "pred_parse_error")
    assert ex_with_detail(pred, gold, venue_db, conns, ordered=False) == (
        False,
        "pred_exec_error",
    )


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
    ncols = draw(st.integers(1, 5))
    gold = draw(_tables(ncols))
    how = draw(st.sampled_from(("drawn", "identical", "rows", "columns", "both", "one cell")))
    if how == "drawn":
        return draw(_tables(draw(st.integers(1, 5)))), gold
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


_stored_cells = st.one_of(
    st.none(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.sampled_from((10**16, 1e16, -0.0, math.inf, -math.inf, 2, 2.0)),
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(_stored_cells, min_size=3, max_size=3), min_size=1, max_size=4))
@example(rows=[[10**16, 1e16, None], [-0.0, math.inf, "x"], [2, 2.0, b"\x00"], [2, 3, b"2"]])
def test_run_keys_rows_as_cell_key_does(rows):
    # run converts only the rows that hold a real; every row must still
    # come back as the cell keys of what SQLite returned
    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "cells.sqlite"
        with closing(sqlite3.connect(db)) as raw:
            raw.execute("CREATE TABLE t (a, b, c)")
            raw.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
            raw.commit()
            stored = raw.execute("SELECT a, b, c FROM t ORDER BY rowid").fetchall()
        with ConnectionSet() as conns:
            got = conns.run(db, "SELECT a, b, c FROM t ORDER BY rowid", time.monotonic() + 10)
    assert got == [tuple(map(_cell_key, row)) for row in stored]
    # the same type per cell: 10**16 == 1e16, but their keys differ
    assert [tuple(map(type, row)) for row in got] == [
        tuple(map(type, map(_cell_key, row))) for row in stored
    ]


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


def _table_db(path, rows):
    """A database with one table ``r`` holding ``rows`` in columns c0, c1, ..."""
    width = len(rows[0])
    conn = sqlite3.connect(path)
    conn.execute(f"CREATE TABLE r ({', '.join(f'c{i}' for i in range(width))})")
    conn.executemany(f"INSERT INTO r VALUES ({', '.join('?' * width)})", rows)
    conn.commit()
    conn.close()
    return path


def _select(columns):
    return f"SELECT {', '.join(f'c{i}' for i in columns)} FROM r"


@pytest.mark.parametrize("k", [8, 9])
def test_rotation_probe_is_decided_within_the_deadline(tmp_path, conns, k):
    """k+1 columns hold the same 40 values, each rotated by a triangular
    number. Every column has every other's multiset, but the shifts of
    c1..ck are not those of c0..c(k-1) plus a constant, so no permutation
    aligns the rows. A search that compares only whole rows tries all k!
    orders; comparing the rows projected onto the columns placed so far
    rejects most orders after two columns."""
    shifts = [i * (i + 1) // 2 for i in range(k + 1)]
    rows = [[(row + s) % 40 for s in shifts] for row in range(40)]
    path = _table_db(tmp_path / "rotations.sqlite", rows)
    gold = _select(range(k))
    rotated = _select(range(1, k + 1))
    shuffled = _select(reversed(range(k))) + " ORDER BY c1 DESC"
    start = time.monotonic()
    assert ex_with_detail(rotated, gold, path, conns, ordered=False, timeout_ms=1000) == (
        False,
        "result_mismatch",
    )
    assert ex_with_detail(shuffled, gold, path, conns, ordered=False, timeout_ms=1000) == (
        True,
        None,
    )
    assert time.monotonic() - start < 0.5


def test_equal_columns_are_tried_once(tmp_path, conns):
    """Nine equal columns and one odd column; the prediction's odd column
    holds gold's values on other rows, so every order of the nine equal
    columns matches until the last column is placed. Trying each distinct
    column once per depth keeps that to one order instead of 9!."""
    rows = [[i % 3] * 9 + [i, (i + 1) % 30] for i in range(30)]
    path = _table_db(tmp_path / "equal.sqlite", rows)
    gold = _select(range(10))
    pred = _select([10, *range(9)])
    start = time.monotonic()
    assert ex_with_detail(pred, gold, path, conns, ordered=False, timeout_ms=1000) == (
        False,
        "result_mismatch",
    )
    assert time.monotonic() - start < 0.5


def test_permutation_search_counts_against_the_deadline(tmp_path, conns):
    """Eight 0/1 columns: gold holds the 128 rows of even parity and the
    prediction the 128 of odd parity. Dropping any one column maps either
    set onto all 128 patterns of the other seven, so every projection
    short of all eight columns matches and the search cannot stop before
    it has tried all 8! orders."""
    rows = [[(n >> b) & 1 for b in range(8)] + [bin(n).count("1") % 2] for n in range(256)]
    path = _table_db(tmp_path / "parity.sqlite", rows)
    gold = _select(range(8)) + " WHERE c8 = 0"
    pred = _select(range(8)) + " WHERE c8 = 1"
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


def test_ex_takes_the_database_path_as_a_string(scratch_db, tmp_path, conns):
    query = "SELECT a FROM t"
    assert ex_with_detail(query, query, str(scratch_db), conns, ordered=False) == (True, None)
    with pytest.raises(OSError, match="not readable"):
        ex_with_detail(query, query, str(tmp_path / "none.sqlite"), conns, ordered=False)


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


def test_a_file_that_is_not_sqlite_fails_to_open(corrupt_retail_root, venue_db, conns):
    # its gold used to score as invalid gold: opening the file read nothing
    retail = db_file_for(corrupt_retail_root, "retail")
    query = "SELECT count(*) FROM Customer"
    message = f"^cannot read database file {re.escape(str(retail))}: file is not a database$"
    with pytest.raises(OSError, match=message):
        ex_with_detail(query, query, retail, conns, ordered=False)
    with pytest.raises(OSError, match=message):
        conns.run(retail, "SELECT 1", time.monotonic() + 5)
    # the other files' connections still serve
    query = "SELECT Name FROM Venue"
    assert ex_with_detail(query, query, venue_db, conns, ordered=False) == (True, None)


_ENDLESS = "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r) SELECT count(*) FROM r"


@pytest.mark.parametrize(
    "gold, timeout_ms, kind, reason",
    [
        ("SELECT broken FROM missing", 5000, "pred_exec_error", "no such table: missing"),
        ("", 5000, "pred_exec_error", "statement produced no result set"),
        (_ENDLESS, 200, "timeout", "interrupted at the deadline"),
        (
            "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r"
            f" WHERE i <= {MAX_RESULT_ROWS}) SELECT i FROM r",
            5000,
            "result_too_large",
            f"more than {MAX_RESULT_ROWS} rows",
        ),
    ],
    ids=["sqlite-error", "no-result-set", "timeout", "too-large"],
)
def test_gold_execution_error_names_the_kind_and_why(
    scratch_db, conns, gold, timeout_ms, kind, reason
):
    message = rf"^gold query failed \({kind}\): {re.escape(reason)}$"
    with pytest.raises(GoldExecutionError, match=message):
        ex_with_detail("SELECT 1", gold, scratch_db, conns, ordered=False, timeout_ms=timeout_ms)
    # the same query as a prediction scores that kind
    scored = ex_with_detail(gold, "SELECT 1", scratch_db, conns, ordered=False, timeout_ms=timeout_ms)
    assert scored == (False, kind)


def test_reopened_connection_keeps_the_deadline(fixture_paths, conns):
    library = db_file_for(fixture_paths["db_root_a"], "library")
    # a pragma marks the connection dirty: it is closed, and the next query
    # runs on a new one
    assert ex_with_detail(
        "PRAGMA case_sensitive_like=1", "SELECT 1", library, conns, ordered=False
    ) == (False, "pred_exec_error")
    assert library not in conns._open
    cross = "SELECT count(*) FROM Loan AS a, Loan AS b, Loan AS c, Loan AS d, Loan AS e"
    start = time.monotonic()
    assert ex_with_detail(
        cross, "SELECT 1", library, conns, ordered=False, timeout_ms=200
    ) == (False, "timeout")
    assert time.monotonic() - start < 5
    # the new connection reads inside a transaction of its own, and the
    # interrupted query leaves the next one inside one too
    assert conns._open[library].in_transaction
    query = "SELECT Title FROM Book"
    assert ex_with_detail(query, query, library, conns, ordered=False) == (True, None)
    assert conns._open[library].in_transaction


# 10 authors x 30 books x 12 members x 50 loans = 180,000 rows
CROSS_JOIN = "SELECT * FROM Author, Book, Member, Loan"


def test_prediction_over_the_row_cap_scores_result_too_large(fixture_paths, conns):
    library = db_file_for(fixture_paths["db_root_a"], "library")
    deadline = time.monotonic() + 30
    count = CROSS_JOIN.replace("*", "count(*)", 1)
    assert conns.run(library, count, deadline) == [(180_000,)]
    assert 180_000 > MAX_RESULT_ROWS
    gold = "SELECT Title FROM Book"
    assert ex_with_detail(CROSS_JOIN, gold, library, conns, ordered=False) == (
        False,
        "result_too_large",
    )
    # the fetch takes one row past the cap, and the cursor may step one
    # row ahead of its fetch: SQLite computes no other row
    made = itertools.count()
    conns._connection(library).create_function("tick", 0, lambda: next(made))
    ticking = CROSS_JOIN.replace("*", "tick(), *", 1)
    assert ex_with_detail(ticking, gold, library, conns, ordered=False) == (
        False,
        "result_too_large",
    )
    assert MAX_RESULT_ROWS + 1 <= next(made) <= MAX_RESULT_ROWS + 2
    # the connection is left ready for the next query
    assert library in conns._open
    assert ex_with_detail(gold, gold, library, conns, ordered=False) == (True, None)


def test_kept_connection_reads_inside_one_transaction(scratch_db, conns):
    assert conns.run(scratch_db, "SELECT a FROM t", time.monotonic() + 5)
    conn = conns._open[scratch_db]
    assert conn.in_transaction
    # whatever ends the transaction, the query after it is the connection's last
    conn.execute("COMMIT")
    assert conns.run(scratch_db, "SELECT a FROM t", time.monotonic() + 5)
    assert scratch_db not in conns._open
    assert conns.run(scratch_db, "SELECT a FROM t", time.monotonic() + 5)
    assert conns._open[scratch_db].in_transaction


# a lone surrogate has no UTF-8 form, so the sqlite3 module cannot pass it on
LONE_SURROGATE = "SELECT '\ud800'"


def test_prediction_without_utf8_form_scores_pred_exec_error(scratch_db, conns):
    assert ex_with_detail(LONE_SURROGATE, "SELECT 1", scratch_db, conns, ordered=False) == (
        False,
        "pred_exec_error",
    )
    # the connection is left ready for the next query
    assert ex_with_detail("SELECT 1", "SELECT 1", scratch_db, conns, ordered=False) == (
        True,
        None,
    )


def test_gold_without_utf8_form_is_invalid_gold(scratch_db, conns):
    with pytest.raises(GoldExecutionError):
        ex_with_detail("SELECT 1", LONE_SURROGATE, scratch_db, conns, ordered=False)


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


def test_aggregate_math(venue_split):
    split = venue_split("SELECT Name FROM Venue", "SELECT Name FROM Venue")
    predictions = {"t:0": "SELECT Name FROM Venue", "t:1": "SELECT City FROM Venue"}
    report, _ = evaluate_split("full", split, predictions, model_name="m1")
    assert report.n == 2
    assert report.ex_accuracy == 0.5
    assert report.em_accuracy == 0.5
    assert report.mode == "full"
    assert report.model == "m1"


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError, match="no evaluable examples"):
        evaluate_split("full", Split(()), {})


def test_verdict_roundtrip(pair, tmp_path):
    verdicts = [pair("a", "SELECT Name FROM Venue", "SELECT Name FROM Venue")]
    out = tmp_path / "verdicts.jsonl"
    write_verdicts(out, verdicts)
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[0]["example_id"] == "a"
    assert [SqlVerdict(**row) for row in rows] == verdicts


def test_report_roundtrip_and_text(tmp_path):
    report = EvalReport(
        mode="dts",
        model="toy-7b",
        n=2,
        ex_accuracy=0.5,
        em_accuracy=0.5,
        quarantined=("q:0",),
        invalid_gold=(),
        skipped_no_database=("s:1",),
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

def _split(catalogs, db_root, rows) -> Split:
    """Examples t:0, t:1, ... from rows of (db_id, gold SQL)."""
    examples = tuple(
        Example(f"t:{i}", f"question {i}", gold, catalogs[db_id], db_file_for(db_root, db_id))
        for i, (db_id, gold) in enumerate(rows)
    )
    return Split(examples)


def _outcome(v):
    return (v.example_id, v.exact_match, v.execution_match, v.failure_kind)


def _fresh(split, predictions):
    """Per-example verdicts, each scored on connections of its own."""
    out = []
    for ex in split.examples:
        with ConnectionSet() as conns:
            v = evaluate_pair(
                ex.example_id,
                predictions[ex.example_id],
                ex.gold_sql,
                parse_sql(ex.gold_sql, ex.catalog),
                ex.catalog,
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
        elif depth == 0 and tok.kind == "KW" and tok.value == "order":
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


@pytest.mark.parametrize(
    "pred",
    [
        "SELECT count(*) FROM Loan AS a, Loan AS b",
        "SELECT count(*) FROM Loan AS a JOIN Loan AS b",
    ],
)
def test_self_join_is_not_an_exact_match_of_its_table(catalogs, fixture_paths, conns, pred):
    cat = catalogs["library"]
    library = db_file_for(fixture_paths["db_root_a"], "library")
    gold = "SELECT count(*) FROM Loan"
    v = evaluate_pair("e:0", pred, gold, parse_sql(gold, cat), cat, library, conns)
    assert not v.exact_match and not v.execution_match
    assert v.failure_kind == "result_mismatch"


def test_evaluate_split_matches_evaluate_pair_on_corpus(corpus, catalogs, fixture_paths):
    picked = corpus[::3]
    split = _split(catalogs, fixture_paths["db_root_a"], [(q.db_id, q.sql) for q in picked])
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
    report, verdicts = evaluate_split("dts", split, predictions)
    assert report.n == len(picked)
    kinds_seen = {v.failure_kind for v in verdicts}
    assert kinds_seen >= {None, "pred_exec_error", "result_mismatch", "component_mismatch"}
    assert [_outcome(v) for v in verdicts] == _fresh(split, predictions)


@pytest.fixture
def venue_split(fixture_paths, catalogs):
    return lambda *golds: _split(
        catalogs, fixture_paths["db_root_a"], [("venue_events", g) for g in golds]
    )


def _first_venue_name(venue_db) -> str:
    conn = sqlite3.connect(venue_db)
    try:
        return conn.execute("SELECT Name FROM Venue ORDER BY Venue_ID LIMIT 1").fetchone()[0]
    finally:
        conn.close()


@pytest.mark.parametrize(
    "polluter", ["temp_table", "pragma", "attach", "begin", "commit", "rollback", "savepoint"]
)
def test_connection_state_does_not_leak(polluter, venue_split, venue_db):
    name = _first_venue_name(venue_db)
    # (state-changing prediction, next gold, next prediction): the next
    # pair scores differently on a connection that kept the state, except
    # after a transaction statement, whose effect on the connection's
    # transaction no read can see
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
        "commit": ("COMMIT", "SELECT Name FROM Venue", "SELECT Name FROM Venue"),
        "rollback": ("ROLLBACK", "SELECT Name FROM Venue", "SELECT Name FROM Venue"),
        "savepoint": ("SAVEPOINT s", "SELECT Name FROM Venue", "SELECT Name FROM Venue"),
    }
    first, next_gold, next_pred = cases[polluter]
    split = venue_split("SELECT Name FROM Venue", next_gold)
    predictions = {"t:0": first, "t:1": next_pred}
    _, verdicts = evaluate_split("full", split, predictions)
    assert verdicts[0].failure_kind == "pred_exec_error"
    assert [_outcome(v) for v in verdicts] == _fresh(split, predictions)


def test_timeout_on_reused_connection_then_normal_query(venue_split):
    split = venue_split("SELECT Name FROM Venue", "SELECT City FROM Venue")
    slow = (
        "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r)"
        " SELECT count(*) FROM r"
    )
    predictions = {"t:0": slow, "t:1": "SELECT City FROM Venue"}
    start = time.monotonic()
    _, verdicts = evaluate_split("full", split, predictions, timeout_ms=200)
    assert time.monotonic() - start < 5
    assert _outcome(verdicts[0]) == ("t:0", False, False, "timeout")
    assert _outcome(verdicts[1]) == ("t:1", True, True, None)


@pytest.mark.parametrize(
    "gold, pred, n",
    [
        # two select items: the canonical sum is hashed into a bag; 950
        # terms is about as deep as SQLite's expression limit allows
        ("SELECT Name, {sum} FROM Venue", "select {spaced}, name from venue", 950),
        # UNION operands: the canonical sums are hashed into a bag of queries
        (
            "SELECT {sum} FROM Venue UNION SELECT Capacity FROM Venue",
            "select capacity from venue union select {spaced} from venue",
            930,
        ),
    ],
    ids=["select-list", "union"],
)
def test_long_sum_gets_a_verdict(venue_split, gold, pred, n):
    sums = {"sum": "+".join(["1"] * n), "spaced": " + ".join(["1"] * n)}
    split = venue_split(gold.format(**sums))
    _, verdicts = evaluate_split("full", split, {"t:0": pred.format(**sums)})
    assert [_outcome(v) for v in verdicts] == [("t:0", True, True, None)]


def test_evaluate_split_cannot_mutate(venue_split, venue_db):
    def count():
        conn = sqlite3.connect(venue_db)
        try:
            return conn.execute("SELECT count(*) FROM Venue").fetchone()[0]
        finally:
            conn.close()

    before = count()
    split = venue_split("SELECT Name FROM Venue", "SELECT count(*) FROM Venue")
    predictions = {"t:0": "DELETE FROM Venue", "t:1": "SELECT count(*) FROM Venue"}
    _, verdicts = evaluate_split("full", split, predictions)
    assert verdicts[0].failure_kind == "pred_exec_error"
    assert _outcome(verdicts[1]) == ("t:1", True, True, None)
    assert count() == before


def test_gold_over_the_row_cap_is_invalid_gold(catalogs, fixture_paths):
    titles = "SELECT Title FROM Book"
    rows = [("library", CROSS_JOIN), ("library", titles)]
    split = _split(catalogs, fixture_paths["db_root_a"], rows)
    predictions = {"t:0": CROSS_JOIN, "t:1": titles}
    report, verdicts = evaluate_split("full", split, predictions)
    assert report.invalid_gold == ("t:0",)
    assert report.n == 1
    assert [_outcome(v) for v in verdicts] == [("t:1", True, True, None)]


def test_two_passes_keep_split_order_and_drop_invalid_gold_links(catalogs, fixture_paths):
    rows = [
        ("library", "SELECT Title FROM Book"),
        ("library", "SELECT Title FROM Book WHERE Title IS NOT NULL"),  # quarantined
        ("library", "SELECT count(*) FROM Book"),  # its database file is missing
        ("library", CROSS_JOIN),  # gold over the row cap
        ("venue_events", "SELECT Name FROM Venue"),
        ("venue_events", "SELECT count(*) FROM Venue"),
    ]
    split = _split(catalogs, fixture_paths["db_root_a"], rows)
    examples = list(split.examples)
    examples[2] = dataclasses.replace(examples[2], db_file=None)
    split = Split(tuple(examples))
    predictions = {
        "t:0": "SELECT Title FROM Book",
        "t:1": "SELECT Title FROM Book",
        "t:2": "SELECT count(*) FROM Book",
        "t:3": CROSS_JOIN,
        "t:4": "SELECT City FROM Venue",
        "t:5": "SELECT count(*) FROM Venues",
    }
    # every scored example links perfectly; the over-cap gold links nothing
    predicted_links = {
        ex.example_id: extract_link_targets(parse_sql(ex.gold_sql, ex.catalog))
        for ex in split.examples
        if ex.example_id not in ("t:1", "t:3")
    }
    predicted_links["t:1"] = predicted_links["t:3"] = LinkTarget()

    report, verdicts = evaluate_split("dts", split, predictions, predicted_links=predicted_links)
    assert [v.example_id for v in verdicts] == ["t:0", "t:4", "t:5"]
    assert report.quarantined == ("t:1",)
    assert report.skipped_no_database == ("t:2",)
    assert report.invalid_gold == ("t:3",)
    assert report.linking.n == report.n == 3
    assert report.linking.exact_match_rate == 1.0
    assert [v.failure_kind for v in verdicts] == [None, "result_mismatch", "pred_exec_error"]
    by_id = {ex.example_id: ex for ex in split.examples}
    for v in verdicts:
        ex = by_id[v.example_id]
        with ConnectionSet() as conns:
            alone = evaluate_pair(
                ex.example_id,
                predictions[ex.example_id],
                ex.gold_sql,
                parse_sql(ex.gold_sql, ex.catalog),
                ex.catalog,
                ex.db_file,
                conns,
            )
        assert dataclasses.replace(v, timings={}) == dataclasses.replace(alone, timings={})
        assert set(v.timings) == {"match_ms", "execution_ms"}


def test_three_jobs_quarantine_the_same_gold(venue_split, tmp_path):
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

    manifest = emit_sft_dataset(split.examples, "link", tmp_path / "link.jsonl")
    assert manifest["quarantined"] == bad
    assert manifest["count"] == 3

    with MockEndpoint(mockserver.constant("SELECT 1")) as ep:
        config = EndpointConfig(base_url=ep.base_url, model_name="m", max_retries=0)
        traces = run_pipeline("oracle_link", split, config=config)
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
    report, verdicts = evaluate_split("oracle_link", split, predictions)
    assert list(report.quarantined) == bad
    assert report.n == 3
    assert [v.example_id for v in verdicts] == ["t:0", "t:2", "t:5"]
    assert report.ex_accuracy == report.em_accuracy == 1.0
