"""Exact set match and execution accuracy, plus corpus-level reports.

Execution accuracy compares result tables after canonicalizing every
cell to a hashable key. NULL, integer, text and blob cells keep the
value SQLite gave, so NULLs compare equal to each other and never to 0
or ''. An integral real below 1e15 becomes the integer, so 2.0 and 2
unify exactly, and any other real becomes ``("f", f"{x:.6e}")``, its
seven-significant-digit spelling. That is quantization, not a
tolerance: two reals share a key iff they round to the same spelling,
so values 1e-14 apart can straddle a rounding boundary (1.0000005 and
1.00000049999999 differ) while values 4e-7 apart can share one. Unlike
a tolerance it is transitive, which keeps multiset comparison well
defined. Since only a real has a key other than itself, a result is
keyed only when one scan over its cells finds a real. Column order is
free: two result tables count as identical when some single column
permutation aligns them, matching the set treatment of select items.
When the gold fixes its row order that needs no search: a permutation
aligns the rows as sequences iff it aligns every column, so the two
multisets of columns must be equal.
"""

from __future__ import annotations

import json
import logging
import math
import sqlite3
import time
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .catalog import DatabaseCatalog
from .ingest import Split
from .linker import LinkingSummary, aggregate_linking, score_linking
from .sqlast import LinkTarget, QueryAst, SqlError, exact_set_match, extract_link_targets, parse_sql

log = logging.getLogger(__name__)

FAILURE_KINDS = (
    "pred_parse_error",
    "pred_exec_error",
    "timeout",
    "result_too_large",
    "result_mismatch",
    "component_mismatch",
)

DEFAULT_TIMEOUT_MS = 30000
# Rows one query may return; the fetch stops one row past it.
MAX_RESULT_ROWS = 100_000


class GoldExecutionError(Exception):
    """The gold query itself failed to execute; the example is invalid."""


@dataclass(frozen=True)
class SqlVerdict:
    """One scored example; its fields, in order, are a ``verdicts.jsonl`` row."""

    example_id: str
    exact_match: bool
    execution_match: bool
    failure_kind: str | None
    timings: dict


@dataclass(frozen=True)
class EvalReport:
    """One scored run's aggregates; its verdicts go to ``verdicts.jsonl``
    alone. Its fields, in this order, are the keys of ``report.json``;
    ``linking`` is left out when links were not scored."""

    mode: str
    model: str | None
    n: int
    ex_accuracy: float
    em_accuracy: float
    quarantined: tuple[str, ...]  # gold outside the supported dialect
    invalid_gold: tuple[str, ...]  # gold failed to execute
    skipped_no_database: tuple[str, ...]
    linking: LinkingSummary | None = None


# -- exact set match -------------------------------------------------------


def em_with_detail(
    pred: str,
    gold_ast: QueryAst,
    catalog: DatabaseCatalog,
    ignore_values: bool = False,
) -> tuple[bool, str | None]:
    """(matched, failure kind) — unparseable prediction is a distinct kind.

    ``gold_ast`` is the gold query parsed against ``catalog``."""
    try:
        pred_ast = parse_sql(pred, catalog)
    except SqlError:
        return False, "pred_parse_error"
    if exact_set_match(pred_ast, gold_ast, ignore_values):
        return True, None
    return False, "component_mismatch"


# -- execution -------------------------------------------------------------


class _QueryFailed(Exception):
    """A query that gave no result table: ``kind`` is the failure kind a
    prediction scores for it, the message why (SQLite's, if it refused)."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def _cell_key(value):
    if isinstance(value, float):
        if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
            return int(value)
        return ("f", f"{value:.6e}")
    return value


# Authorizer actions a query needs to read. Any other action (a pragma,
# ATTACH, a transaction, a temp object, a write) can leave state on the
# connection that a later query would see.
_READ_ACTIONS = frozenset(
    {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE}
)


class ConnectionSet:
    """Read-only connections, one per database file, reused across queries.

    Each connection opens one deferred read transaction, so every query on
    it reads one snapshot: the database as it was when the connection first
    read it. SQLite then locks the file and checks it for changes once per
    connection, not once per query. A writer on another connection gets
    ``SQLITE_BUSY`` until this one closes; in WAL mode it may write, and
    this connection keeps reading its snapshot.

    A connection is closed after any query that did more than read, or
    that left it outside its transaction (a ``COMMIT``, say), and reopened,
    in a new transaction, on next use; so every query sees what a fresh
    connection would show. Each connection gets its authorizer and
    progress handler once, when it opens; the handler checks the deadline
    of whichever query runs, so a reopened connection times out like the
    first. Opening a file that is missing, or whose schema SQLite cannot
    read, raises OSError. Not thread-safe; close() releases everything.
    """

    def __init__(self) -> None:
        self._open: dict[Path, sqlite3.Connection] = {}
        self._dirty = False
        self._deadline = 0.0
        self._timed_out = False

    def _authorize(self, action, *_) -> int:
        if action not in _READ_ACTIONS:
            self._dirty = True
        return sqlite3.SQLITE_OK

    def _progress(self) -> int:
        if time.monotonic() > self._deadline:
            self._timed_out = True
            return 1  # SQLite interrupts the statement
        return 0

    def _connection(self, db_file: Path) -> sqlite3.Connection:
        conn = self._open.get(db_file)
        if conn is None:
            if not db_file.is_file():
                raise OSError(f"database file not readable: {db_file}")
            conn = None
            try:
                conn = sqlite3.connect(f"file:{db_file}?mode=ro", uri=True, isolation_level=None)
                conn.execute("BEGIN")
                conn.execute("SELECT count(*) FROM sqlite_master")  # reads the schema
            except sqlite3.Error as err:
                if conn is not None:
                    conn.close()
                raise OSError(f"cannot read database file {db_file}: {err}") from err
            conn.set_authorizer(self._authorize)
            conn.set_progress_handler(self._progress, 1000)
            self._open[db_file] = conn
        return conn

    def run(self, db_file: Path, sql: str, deadline: float) -> list[tuple]:
        """Execute one query; rows come back as tuples of canonical cell keys.

        A query that gives no result table raises _QueryFailed, of kind
        ``timeout`` past ``deadline``, ``result_too_large`` past
        MAX_RESULT_ROWS rows (it fetches one more), and ``pred_exec_error``
        when SQLite rejects it, gives no result set, or its text has no
        UTF-8 form (a lone surrogate, which sqlite3 cannot pass on)."""
        conn = self._connection(db_file)
        self._deadline = deadline
        self._timed_out = False
        self._dirty = False
        try:
            try:
                cursor = conn.execute(sql)
                rows = cursor.fetchmany(MAX_RESULT_ROWS + 1)
            except (sqlite3.Error, UnicodeEncodeError) as err:
                if not self._timed_out:
                    raise _QueryFailed("pred_exec_error", str(err)) from err
            if self._timed_out:
                raise _QueryFailed("timeout", "interrupted at the deadline")
            if cursor.description is None:
                # empty or non-query statement; sqlite accepts it silently
                raise _QueryFailed("pred_exec_error", "statement produced no result set")
            if len(rows) > MAX_RESULT_ROWS:
                cursor.close()
                raise _QueryFailed("result_too_large", f"more than {MAX_RESULT_ROWS} rows")
            if float in map(type, chain.from_iterable(rows)):
                return [tuple(map(_cell_key, row)) for row in rows]
            return rows
        finally:
            if self._dirty or not conn.in_transaction:
                self._open.pop(db_file).close()

    def close(self) -> None:
        for conn in self._open.values():
            conn.close()
        self._open.clear()

    def __enter__(self) -> "ConnectionSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _tables_equal(
    pred_rows: list[tuple], gold_rows: list[tuple], ordered: bool, deadline: float
) -> bool:
    """True when some column permutation makes the result tables identical,
    as sequences when ordered, as multisets otherwise. Raises a ``timeout``
    _QueryFailed once ``deadline`` (a ``time.monotonic()`` value) passes."""
    if pred_rows == gold_rows:
        return True  # the identity permutation aligns them
    if len(pred_rows) != len(gold_rows) or len(pred_rows[0]) != len(gold_rows[0]):
        return False
    pred_cols = list(zip(*pred_rows))
    gold_cols = list(zip(*gold_rows))
    if ordered:
        return Counter(pred_cols) == Counter(gold_cols)

    # Gold columns are placed in written order; a prediction column is kept
    # only when the rows projected onto the columns placed so far form the
    # same multiset as gold's projection onto its first ones. Columns with
    # equal contents lead to the same subtree, so each is tried once.
    def extend(chosen: list[int]) -> bool:
        if time.monotonic() > deadline:
            raise _QueryFailed("timeout", "column search passed the deadline")
        depth = len(chosen)
        if depth == len(gold_cols):
            return True
        want = Counter(zip(*gold_cols[: depth + 1]))
        tried = set()
        for j, col in enumerate(pred_cols):
            if j in chosen or col in tried:
                continue
            tried.add(col)
            if Counter(zip(*(pred_cols[i] for i in chosen), col)) == want and extend(
                chosen + [j]
            ):
                return True
        return False

    return extend([])


def ex_with_detail(
    pred: str,
    gold: str,
    db_file: str | Path,
    connections: ConnectionSet,
    *,
    ordered: bool,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> tuple[bool, str | None]:
    """(matched, failure kind). A prediction that gives no result table
    scores the kind ConnectionSet.run names (``timeout``,
    ``result_too_large`` or ``pred_exec_error``), one whose table differs
    ``result_mismatch``. A gold query that gives no result table raises
    GoldExecutionError naming that kind and why. A database file that is
    missing, or that SQLite cannot open or read, raises OSError.

    Both queries run on ``connections``. ``ordered`` says whether the gold
    query fixes its row order, which then has to match as well. The
    prediction's deadline covers both its execution and the search for a
    column permutation that aligns the two result tables; when it runs
    out in either, the prediction scores ``timeout``."""
    if isinstance(db_file, str):
        db_file = Path(db_file)
    try:
        gold_rows = connections.run(db_file, gold, time.monotonic() + timeout_ms / 1000.0)
    except _QueryFailed as err:
        raise GoldExecutionError(f"gold query failed ({err.kind}): {err}") from err
    deadline = time.monotonic() + timeout_ms / 1000.0
    try:
        pred_rows = connections.run(db_file, pred, deadline)
        matched = _tables_equal(pred_rows, gold_rows, ordered, deadline)
    except _QueryFailed as err:
        return False, err.kind
    return (True, None) if matched else (False, "result_mismatch")


# -- combined per-example verdict -----------------------------------------


def _match_half(
    pred: str, gold: str, gold_ast: QueryAst, catalog: DatabaseCatalog, ignore_values: bool
) -> tuple[bool, str | None, float]:
    """evaluate_pair's exact-match half, no SQLite: (matched, failure kind,
    match_ms)."""
    t0 = time.monotonic()
    if pred == gold:
        matched, kind = True, None
    else:
        matched, kind = em_with_detail(pred, gold_ast, catalog, ignore_values)
    return matched, kind, round((time.monotonic() - t0) * 1000.0, 3)


def _execution_half(
    example_id: str,
    match: tuple[bool, str | None, float],
    pred: str,
    gold: str,
    db_file: str | Path,
    connections: ConnectionSet,
    ordered: bool,
    timeout_ms: int,
) -> SqlVerdict:
    """evaluate_pair's execution half: the verdict, given what its
    exact-match half returned. Raises GoldExecutionError as
    ex_with_detail does."""
    t0 = time.monotonic()
    ex, ex_kind = ex_with_detail(
        pred, gold, db_file, connections, ordered=ordered, timeout_ms=timeout_ms
    )
    execution_ms = round((time.monotonic() - t0) * 1000.0, 3)
    em, em_kind, match_ms = match
    return SqlVerdict(
        example_id=example_id,
        exact_match=em,
        execution_match=ex,
        failure_kind=ex_kind or em_kind,  # each is None exactly on its match
        timings={"match_ms": match_ms, "execution_ms": execution_ms},
    )


def evaluate_pair(
    example_id: str,
    pred: str,
    gold: str,
    gold_ast: QueryAst,
    catalog: DatabaseCatalog,
    db_file: str | Path,
    connections: ConnectionSet,
    *,
    ignore_values: bool = False,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> SqlVerdict:
    """Both metrics for one example. Execution-side failures win the
    failure_kind slot; a prediction our dialect cannot parse but that
    still executes correctly records no failure on the execution side.

    ``gold_ast`` is ``gold`` parsed against ``catalog``; it decides the
    exact match and whether row order counts. A prediction spelled
    exactly as ``gold`` reuses that parse: it is an exact match without
    being parsed again, since parsing depends only on the text and the
    catalog and the match is reflexive. It is still executed, so a query
    that calls ``random()`` gets the verdict its two runs earn. Result
    tables that are already equal match without a search over column
    permutations; a search that does run counts against the prediction's
    deadline. Queries run on ``connections``. The exact match and the
    execution are the two halves that evaluate_split runs in its two
    passes; ``match_ms`` and ``execution_ms`` time one half each."""
    match = _match_half(pred, gold, gold_ast, catalog, ignore_values)
    ordered = gold_ast.has_toplevel_order()
    return _execution_half(example_id, match, pred, gold, db_file, connections, ordered, timeout_ms)


def evaluate_split(
    mode: str,
    split: Split,
    predictions: Mapping[str, str],
    *,
    predicted_links: Mapping[str, LinkTarget] | None = None,
    ignore_values: bool = False,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    model_name: str | None = None,
) -> tuple[EvalReport, tuple[SqlVerdict, ...]]:
    """Score the predicted SQL of every example in ``split``: the run's
    report, and the verdict of each example that counts, in split order.

    ``predictions`` and ``predicted_links`` are keyed by example id; link
    scores are computed only when ``predicted_links`` is given. Gold
    outside the dialect is quarantined, gold that fails to execute is
    invalid, and examples without a database file are skipped; none of
    them count. Raises ValueError when ``timeout_ms`` is not positive and
    when no example is left.

    Scoring takes two passes over the split, each in split order, with
    the verdicts each example would get from evaluate_pair. The first
    runs no SQLite: it parses each gold query once, for the exact match,
    the result ordering and the link target, and keeps only the exact
    match, the ordering flag and the link score, not the parse. The
    second executes gold and prediction on one read-only connection per
    database file, each reading one snapshot (see ConnectionSet), and
    drops the link score of gold that fails to execute.
    """
    if timeout_ms <= 0:
        raise ValueError(f"timeout_ms must be > 0, got {timeout_ms}")
    quarantined = []
    skipped = []
    matched = []  # (example, prediction, match half, ordered, link score)
    for ex in split.examples:
        try:
            gold_ast = parse_sql(ex.gold_sql, ex.catalog)
        except SqlError:
            quarantined.append(ex.example_id)
            continue
        if ex.db_file is None:
            skipped.append(ex.example_id)
            continue
        pred = predictions[ex.example_id]
        match = _match_half(pred, ex.gold_sql, gold_ast, ex.catalog, ignore_values)
        link_score = (
            None
            if predicted_links is None
            else score_linking(predicted_links[ex.example_id], extract_link_targets(gold_ast))
        )
        matched.append((ex, pred, match, gold_ast.has_toplevel_order(), link_score))

    verdicts = []
    linking_scores = []
    invalid_gold = []
    with ConnectionSet() as connections:
        for ex, pred, match, ordered, link_score in matched:
            try:
                verdict = _execution_half(
                    ex.example_id,
                    match,
                    pred,
                    ex.gold_sql,
                    ex.db_file,
                    connections,
                    ordered,
                    timeout_ms,
                )
            except GoldExecutionError:
                invalid_gold.append(ex.example_id)
                continue
            verdicts.append(verdict)
            if link_score is not None:
                linking_scores.append(link_score)

    if not verdicts:
        raise ValueError("no evaluable examples (all quarantined, skipped, or invalid)")
    n = len(verdicts)
    report = EvalReport(
        mode=mode,
        model=model_name,
        n=n,
        ex_accuracy=sum(v.execution_match for v in verdicts) / n,
        em_accuracy=sum(v.exact_match for v in verdicts) / n,
        quarantined=tuple(quarantined),
        invalid_gold=tuple(invalid_gold),
        skipped_no_database=tuple(skipped),
        linking=aggregate_linking(linking_scores) if linking_scores else None,
    )
    return report, tuple(verdicts)


# -- reporting -------------------------------------------------------------


def write_verdicts(path: str | Path, verdicts) -> None:
    """One JSON line per verdict: its fields in declaration order."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for v in verdicts:
            fh.write(json.dumps(vars(v), ensure_ascii=False) + "\n")


def report_dict(report: EvalReport) -> dict:
    """The object ``report.json`` holds: the report's fields and the linking
    summary's, in declaration order; ``linking`` only when scored. The
    nested dict is the summary's own ``vars``: do not mutate it."""
    out = dict(vars(report))
    if report.linking is None:
        del out["linking"]
    else:
        out["linking"] = vars(report.linking)
    return out


def _record(cls, fields: dict):
    """A record built from a JSON object of its fields, lists as tuples."""
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})


def read_report(path: str | Path) -> EvalReport:
    """The report in a ``report.json`` that eval wrote.

    Raises ValueError, naming the file, on text that is not JSON and on a
    missing or unknown key in the report or the linking summary. A
    ``verdicts`` key is unknown: ``verdicts.jsonl`` alone holds the verdicts.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        fields = json.loads(text)
        if fields.get("linking") is not None:
            fields["linking"] = _record(LinkingSummary, fields["linking"])
        return _record(EvalReport, fields)
    except (ValueError, TypeError, AttributeError) as err:
        raise ValueError(f"{path}: not a report eval wrote: {err}") from None


_MODE_LABELS = {
    "full": "full-schema",
    "dts": "two-stage",
    "oracle_link": "oracle-link",
}


def report_text(report: EvalReport) -> str:
    """Aligned table: one row per run, columns Model / Tuning / EX / EM."""
    headers = ("Model", "Tuning", "EX", "EM")
    row = (
        report.model or "-",
        _MODE_LABELS.get(report.mode, report.mode),
        f"{100.0 * report.ex_accuracy:.1f}",
        f"{100.0 * report.em_accuracy:.1f}",
    )
    widths = [max(len(h), len(c)) for h, c in zip(headers, row)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
        "  ".join(c.ljust(w) for c, w in zip(row, widths)),
    ]
    lines.append(f"n={report.n}")
    if report.quarantined:
        lines.append(f"quarantined (gold outside dialect): {len(report.quarantined)}")
    if report.invalid_gold:
        lines.append(f"invalid gold (execution failed): {len(report.invalid_gold)}")
    if report.skipped_no_database:
        lines.append(f"skipped (database file missing): {len(report.skipped_no_database)}")
    if report.linking is not None:
        s = report.linking
        lines.append(
            "linking: "
            f"PR={100.0 * s.precision:.1f} RE={100.0 * s.recall:.1f} "
            f"EX={100.0 * s.exact_match_rate:.1f} "
            f"(tables PR={100.0 * s.tables[0]:.1f} RE={100.0 * s.tables[1]:.1f}; "
            f"columns PR={100.0 * s.columns[0]:.1f} RE={100.0 * s.columns[1]:.1f})"
        )
    return "\n".join(lines)
