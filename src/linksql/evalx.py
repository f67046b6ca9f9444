"""Exact set match and execution accuracy, plus corpus-level reports.

Execution accuracy compares result tables after canonicalizing every
cell to a hashable key: NULLs compare equal to each other, integers and
integral reals unify exactly, and a non-integral real becomes its
seven-significant-digit spelling ``f"{x:.6e}"``. That is quantization,
not a tolerance: two reals share a key iff they round to the same
spelling, so values 1e-14 apart can straddle a rounding boundary
(1.0000005 and 1.00000049999999 differ) while values 4e-7 apart can
share one. Unlike a tolerance it is transitive, which keeps multiset
comparison well defined. Column order is free: two result tables count
as identical when some single column permutation aligns them, matching
the set treatment of select items.
"""

from __future__ import annotations

import json
import logging
import math
import sqlite3
import time
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, replace
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
    "result_mismatch",
    "component_mismatch",
)

DEFAULT_TIMEOUT_MS = 30000


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
    """One scored run. Its fields, in this order, are the keys of
    ``report.json``; ``linking`` is left out when links were not scored."""

    mode: str
    model: str | None
    n: int
    ex_accuracy: float
    em_accuracy: float
    quarantined: tuple[str, ...]  # gold outside the supported dialect
    invalid_gold: tuple[str, ...]  # gold failed to execute
    skipped_no_database: tuple[str, ...]
    verdicts: tuple[SqlVerdict, ...]
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


class _Timeout(Exception):
    pass


def _cell_key(value):
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return ("num", "i", value)
    if isinstance(value, float):
        if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
            return ("num", "i", int(value))
        return ("num", "f", f"{value:.6e}")
    if isinstance(value, bytes):
        return ("bytes", value.hex())
    return ("text", str(value))


# Authorizer actions a query needs to read. Any other action (a pragma,
# ATTACH, a transaction, a temp object, a write) can leave state on the
# connection that a later query would see.
_READ_ACTIONS = frozenset(
    {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE}
)


class ConnectionSet:
    """Read-only connections, one per database file, reused across queries.

    A connection is closed after any query that did more than read, and
    reopened on next use, so every query sees what a fresh connection would
    show. Each query gets its own deadline. Opening a connection to a
    file that is not there raises OSError. Not thread-safe; close()
    releases everything.
    """

    def __init__(self) -> None:
        self._open: dict[Path, sqlite3.Connection] = {}
        self._dirty = False

    def _authorize(self, action, *_) -> int:
        if action not in _READ_ACTIONS:
            self._dirty = True
        return sqlite3.SQLITE_OK

    def _connection(self, db_file: Path) -> sqlite3.Connection:
        conn = self._open.get(db_file)
        if conn is None:
            if not db_file.is_file():
                raise OSError(f"database file not readable: {db_file}")
            conn = sqlite3.connect(f"file:{db_file}?mode=ro", uri=True)
            conn.set_authorizer(self._authorize)
            self._open[db_file] = conn
        return conn

    def run(self, db_file: Path, sql: str, deadline: float) -> list[tuple]:
        """Execute one query; rows come back as tuples of canonical cell keys."""
        timed_out = False

        def check() -> int:
            nonlocal timed_out
            if time.monotonic() > deadline:
                timed_out = True
                return 1
            return 0

        conn = self._connection(db_file)
        conn.set_progress_handler(check, 1000)
        self._dirty = False
        try:
            try:
                cursor = conn.execute(sql)
                rows = cursor.fetchall()
            except sqlite3.Error:
                if timed_out:
                    raise _Timeout()
                raise
            if timed_out:
                raise _Timeout()
            if cursor.description is None:
                # empty or non-query statement; sqlite accepts it silently
                raise sqlite3.OperationalError("statement produced no result set")
            return [tuple(map(_cell_key, row)) for row in rows]
        finally:
            if self._dirty:
                self._open.pop(db_file).close()

    def close(self) -> None:
        for conn in self._open.values():
            conn.close()
        self._open.clear()

    def __enter__(self) -> "ConnectionSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _column_views(rows: list[tuple]) -> list[tuple]:
    ncols = len(rows[0])
    return [tuple(r[j] for r in rows) for j in range(ncols)]


def _tables_equal(
    pred_rows: list[tuple], gold_rows: list[tuple], ordered: bool, deadline: float
) -> bool:
    """True when some column permutation makes the result tables identical,
    as sequences when ordered, as multisets otherwise. Raises _Timeout when
    ``deadline`` (a ``time.monotonic()`` value) passes during the search."""
    if pred_rows == gold_rows:
        return True  # the identity permutation aligns them
    if len(pred_rows) != len(gold_rows):
        return False
    if not gold_rows:
        return True
    if len(pred_rows[0]) != len(gold_rows[0]):
        return False
    ncols = len(gold_rows[0])
    pred_cols = _column_views(pred_rows)
    gold_cols = _column_views(gold_rows)

    def cols_compatible(p: tuple, g: tuple) -> bool:
        return p == g if ordered else Counter(p) == Counter(g)

    candidates = [
        [j for j in range(ncols) if cols_compatible(pred_cols[j], gold_cols[k])]
        for k in range(ncols)
    ]
    if any(not c for c in candidates):
        return False
    # Fill gold columns starting with the most constrained one.
    fill_order = sorted(range(ncols), key=lambda k: len(candidates[k]))
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def verify() -> bool:
        if ordered:
            # Column-wise sequence equality already implies row equality.
            return True
        permuted = [tuple(row[assignment[k]] for k in range(ncols)) for row in pred_rows]
        return Counter(permuted) == Counter(gold_rows)

    def backtrack(i: int) -> bool:
        if time.monotonic() > deadline:
            raise _Timeout()
        if i == ncols:
            return verify()
        k = fill_order[i]
        for j in candidates[k]:
            if j in used:
                continue
            used.add(j)
            assignment[k] = j
            if backtrack(i + 1):
                return True
            used.remove(j)
            del assignment[k]
        return False

    return backtrack(0)


def ex_with_detail(
    pred: str,
    gold: str,
    db_file: str | Path,
    connections: ConnectionSet,
    *,
    ordered: bool,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> tuple[bool, str | None]:
    """(matched, failure kind). Gold failures raise GoldExecutionError;
    an unreadable database file is an infrastructure error (OSError).

    Both queries run on ``connections``. ``ordered`` says whether the gold
    query fixes its row order, which then has to match as well. The
    prediction's deadline covers both its execution and the search for a
    column permutation that aligns the two result tables; when it runs
    out in either, the prediction scores ``timeout``."""
    db_file = Path(db_file)
    try:
        gold_rows = connections.run(db_file, gold, time.monotonic() + timeout_ms / 1000.0)
    except _Timeout as err:
        raise GoldExecutionError(f"gold query timed out: {gold!r}") from err
    except sqlite3.Error as err:
        raise GoldExecutionError(f"gold query failed: {err}") from err
    deadline = time.monotonic() + timeout_ms / 1000.0
    try:
        pred_rows = connections.run(db_file, pred, deadline)
        matched = _tables_equal(pred_rows, gold_rows, ordered, deadline)
    except _Timeout:
        return False, "timeout"
    except sqlite3.Error:
        return False, "pred_exec_error"
    return (True, None) if matched else (False, "result_mismatch")


# -- combined per-example verdict -----------------------------------------


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
    deadline. Queries run on ``connections``."""
    t0 = time.monotonic()
    if pred == gold:
        em, em_kind = True, None
    else:
        em, em_kind = em_with_detail(pred, gold_ast, catalog, ignore_values)
    t1 = time.monotonic()
    ex, ex_kind = ex_with_detail(
        pred,
        gold,
        db_file,
        connections,
        ordered=gold_ast.has_toplevel_order(),
        timeout_ms=timeout_ms,
    )
    t2 = time.monotonic()
    return SqlVerdict(
        example_id=example_id,
        exact_match=em,
        execution_match=ex,
        failure_kind=ex_kind or em_kind,  # each is None exactly on its match
        timings={
            "match_ms": round((t1 - t0) * 1000.0, 3),
            "execution_ms": round((t2 - t1) * 1000.0, 3),
        },
    )


def evaluate_split(
    mode: str,
    split: Split,
    catalogs: Mapping[str, DatabaseCatalog],
    predictions: Mapping[str, str],
    *,
    predicted_links: Mapping[str, LinkTarget] | None = None,
    ignore_values: bool = False,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    model_name: str | None = None,
) -> EvalReport:
    """Score the predicted SQL of every example in ``split``.

    ``predictions`` and ``predicted_links`` are keyed by example id; link
    scores are computed only when ``predicted_links`` is given. Each gold
    query is parsed once, for the exact match, the result ordering and the
    link target, and queries run on one read-only connection per database
    file. Gold outside the dialect is quarantined, gold that fails to
    execute is invalid, and examples without a database file are skipped;
    none of them count. Raises ValueError when no example is left.
    """
    verdicts = []
    linking_scores = []
    quarantined = []
    invalid_gold = []
    skipped = []
    with ConnectionSet() as connections:
        for ex in split.examples:
            catalog = catalogs[ex.db_id]
            try:
                gold_ast = parse_sql(ex.gold_sql, catalog)
            except SqlError:
                quarantined.append(ex.example_id)
                continue
            if ex.db_file is None:
                skipped.append(ex.example_id)
                continue
            try:
                verdict = evaluate_pair(
                    ex.example_id,
                    predictions[ex.example_id],
                    ex.gold_sql,
                    gold_ast,
                    catalog,
                    ex.db_file,
                    connections,
                    ignore_values=ignore_values,
                    timeout_ms=timeout_ms,
                )
            except GoldExecutionError:
                invalid_gold.append(ex.example_id)
                continue
            verdicts.append(verdict)
            if predicted_links is not None:
                linking_scores.append(
                    score_linking(predicted_links[ex.example_id], extract_link_targets(gold_ast))
                )

    if not verdicts:
        raise ValueError("no evaluable examples (all quarantined, skipped, or invalid)")
    n = len(verdicts)
    return EvalReport(
        mode=mode,
        model=model_name,
        n=n,
        ex_accuracy=sum(v.execution_match for v in verdicts) / n,
        em_accuracy=sum(v.exact_match for v in verdicts) / n,
        quarantined=tuple(quarantined),
        invalid_gold=tuple(invalid_gold),
        skipped_no_database=tuple(skipped),
        verdicts=tuple(verdicts),
        linking=aggregate_linking(linking_scores) if linking_scores else None,
    )


# -- reporting -------------------------------------------------------------


def write_verdicts(path: str | Path, verdicts) -> None:
    """One JSON line per verdict: its fields in declaration order."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for v in verdicts:
            fh.write(json.dumps(vars(v), ensure_ascii=False) + "\n")


def report_dict(report: EvalReport) -> dict:
    """The object ``report.json`` holds: the report's fields, each verdict's
    and the linking summary's, in declaration order; ``linking`` only when
    scored. Nested dicts are the records' own ``vars``: do not mutate them."""
    out = {**vars(report), "verdicts": [vars(v) for v in report.verdicts]}
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
    missing or unknown key in the report, a verdict or the linking summary.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        report = _record(EvalReport, json.loads(text))
        return replace(
            report,
            verdicts=tuple(_record(SqlVerdict, v) for v in report.verdicts),
            linking=None if report.linking is None else _record(LinkingSummary, report.linking),
        )
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
