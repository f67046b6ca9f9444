"""Parsing schema-linker completions and scoring predicted link targets."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .catalog import DatabaseCatalog
from .sqlast import LinkTarget

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SetScore:
    """Precision / recall / exact match over one element set."""

    precision: float
    recall: float
    exact_match: bool


@dataclass(frozen=True)
class LinkingScore:
    """Combined-universe score plus the per-category breakdown.

    The combined universe holds table names and qualified column names
    together; exact_match requires both sets to match exactly.
    """

    precision: float
    recall: float
    exact_match: bool
    tables: SetScore
    columns: SetScore


@dataclass(frozen=True)
class LinkingSummary:
    """Macro-averaged corpus scores; its fields, in order, are the keys of
    ``report.json``'s ``linking``."""

    n: int
    precision: float
    recall: float
    exact_match_rate: float
    tables: tuple[float, float, float]  # (precision, recall, exact-match rate)
    columns: tuple[float, float, float]


def _strip_punct(name: str) -> str:
    return re.sub(r"[^a-z0-9]", "", name)


def _match_table(raw: str, catalog: DatabaseCatalog) -> str | None:
    norm = raw.strip().lower()
    if not norm:
        return None
    if catalog.has_table(norm):
        return norm
    stripped = _strip_punct(norm)
    candidates = [t for t in catalog.table_names if _strip_punct(t) == stripped]
    if len(candidates) == 1:
        return candidates[0]
    log.debug("dropped unknown table %r", raw.strip())
    return None


def _match_column_in(table: str, raw_col: str, catalog: DatabaseCatalog) -> str | None:
    norm = raw_col.strip().lower()
    tdef = catalog.table(table)
    if tdef.has_column(norm):
        return norm
    stripped = _strip_punct(norm)
    candidates = [
        c.normal_name for c in tdef.columns if _strip_punct(c.normal_name) == stripped
    ]
    if len(candidates) == 1:
        return candidates[0]
    return None


def _find_line(lines: list[str], prefix: str) -> str | None:
    for line in lines:
        lowered = line.strip().lower()
        if lowered.startswith(prefix):
            return line.strip()[len(prefix):]
    return None


def parse_linker_output(text: str, catalog: DatabaseCatalog) -> LinkTarget:
    """Best-effort parse of a linker completion into a LinkTarget.

    Total on arbitrary text: identifiers are matched to the catalog by
    lowercase equality first, then with punctuation stripped; anything
    unmatched is dropped and logged at debug level. Garbage yields an
    empty target.
    """
    lines = text.splitlines()
    tables_part = _find_line(lines, "tables:")
    columns_part = _find_line(lines, "columns:")
    if tables_part is None and columns_part is None:
        log.debug("no tables/columns lines found in linker output: %.80r", text)
        return LinkTarget(frozenset(), frozenset())

    tables: set[str] = set()
    for item in (tables_part or "").split(","):
        matched = _match_table(item, catalog)
        if matched is not None:
            tables.add(matched)

    columns: set[tuple[str, str]] = set()
    for item in (columns_part or "").split(","):
        item = item.strip()
        if not item:
            continue
        if "." in item:
            qual, col = item.split(".", 1)
            table = _match_table(qual, catalog)
            if table is None:
                continue
            matched_col = _match_column_in(table, col, catalog)
            if matched_col is None:
                log.debug("dropped unknown column %r", item)
                continue
            columns.add((table, matched_col))
        else:
            # Unqualified column: adopt it only if exactly one table has it.
            owners = [
                t for t in catalog.table_names
                if _match_column_in(t, item, catalog) is not None
            ]
            if len(owners) == 1:
                columns.add((owners[0], _match_column_in(owners[0], item, catalog)))
            else:
                log.debug("dropped unqualified column %r", item)

    return LinkTarget(frozenset(tables), frozenset(columns))


def _pr(pred: frozenset, gold: frozenset) -> tuple[float, float]:
    if not pred and not gold:
        return 1.0, 1.0
    inter = len(pred & gold)
    precision = inter / len(pred) if pred else 0.0
    recall = inter / len(gold) if gold else 0.0
    return precision, recall


def score_linking(pred: LinkTarget, gold: LinkTarget) -> LinkingScore:
    """Table 6-style precision/recall/exact-match for one example.

    Precision and recall are computed over the union universe of table
    names plus qualified column names, with per-category versions over
    each set alone. Both sets empty scores 1.0/1.0; exactly one empty
    scores 0.0 on the side that has a defined denominator.
    """
    pred_univ = frozenset(pred.tables) | {f"{t}.{c}" for t, c in pred.columns}
    gold_univ = frozenset(gold.tables) | {f"{t}.{c}" for t, c in gold.columns}
    precision, recall = _pr(pred_univ, gold_univ)
    tp, tr = _pr(pred.tables, gold.tables)
    cp, cr = _pr(pred.columns, gold.columns)
    tables_eq = pred.tables == gold.tables
    columns_eq = pred.columns == gold.columns
    return LinkingScore(
        precision=precision,
        recall=recall,
        exact_match=tables_eq and columns_eq,
        tables=SetScore(tp, tr, tables_eq),
        columns=SetScore(cp, cr, columns_eq),
    )


def aggregate_linking(scores: list[LinkingScore]) -> LinkingSummary:
    """Macro-average per-example scores into corpus-level numbers."""
    if not scores:
        raise ValueError("cannot aggregate an empty score list")
    n = len(scores)

    def mean(values) -> float:
        return sum(values) / n

    return LinkingSummary(
        n=n,
        precision=mean(s.precision for s in scores),
        recall=mean(s.recall for s in scores),
        exact_match_rate=mean(float(s.exact_match) for s in scores),
        tables=(
            mean(s.tables.precision for s in scores),
            mean(s.tables.recall for s in scores),
            mean(float(s.tables.exact_match) for s in scores),
        ),
        columns=(
            mean(s.columns.precision for s in scores),
            mean(s.columns.recall for s in scores),
            mean(float(s.columns.exact_match) for s in scores),
        ),
    )
