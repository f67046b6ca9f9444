"""Prompt rendering and supervised fine-tuning dataset emission.

Three dataset stages share one table representation:
  full — all tables of the database, completion is the gold SQL
  link — all tables, completion is the serialized gold link target
  gen  — only the tables the gold query uses, completion is the gold SQL
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from json.encoder import encode_basestring
from pathlib import Path

from .catalog import DatabaseCatalog, ForeignKey, TableDef
from .sqlast import LinkTarget, SqlError, extract_link_targets, parse_sql

log = logging.getLogger(__name__)

STAGES = ("full", "link", "gen")

_GENERATION_PREAMBLE = (
    "You are a text-to-SQL assistant. You translate natural-language"
    " questions into SQLite queries over the given database schema."
)

_SYSTEM_PREAMBLES = {
    "full": _GENERATION_PREAMBLE,
    "gen": _GENERATION_PREAMBLE,
    "link": (
        "You are a schema-linking assistant. You identify which tables and"
        " columns of the given database schema a question needs."
    ),
}


# A template is split at its placeholders once, so neither value is
# searched for the other placeholder.
_PLACEHOLDER = re.compile(r"(\{schema\}|\{question\})")


def _load_default(name: str) -> str:
    return resources.files("linksql.templates").joinpath(name).read_text("utf-8")


@dataclass(frozen=True)
class PromptTemplateSet:
    """The generation and linking prompt templates.

    Templates are plain text with {schema} and {question} placeholders.
    """

    generation_template: str
    linking_template: str

    def __post_init__(self):
        for label, tpl in (
            ("generation", self.generation_template),
            ("linking", self.linking_template),
        ):
            for ph in ("{schema}", "{question}"):
                if ph not in tpl:
                    raise ValueError(f"{label} template is missing the {ph} placeholder")

    @cached_property
    def pieces(self) -> dict[str, tuple[str, ...]]:
        """Each stage's template split at its placeholders: literal text at
        even positions, ``{schema}`` or ``{question}`` at odd ones. No
        literal piece spells a placeholder."""
        return {
            stage: tuple(
                _PLACEHOLDER.split(
                    self.linking_template if stage == "link" else self.generation_template
                )
            )
            for stage in STAGES
        }

    @classmethod
    def load(
        cls,
        generation_path: str | Path | None = None,
        linking_path: str | Path | None = None,
    ) -> "PromptTemplateSet":
        """Default templates, with either one overridden from a file."""
        gen = (
            Path(generation_path).read_text("utf-8")
            if generation_path
            else _load_default("generation.txt")
        )
        link = (
            Path(linking_path).read_text("utf-8")
            if linking_path
            else _load_default("linking.txt")
        )
        return cls(generation_template=gen, linking_template=link)


# -- table rendering -------------------------------------------------------


def render_table(
    table: TableDef, fks: tuple[ForeignKey, ...], catalog: DatabaseCatalog
) -> str:
    """One table of ``catalog`` as a CREATE-TABLE-style block.

    Column and table names keep their original casing; the catalog
    supplies original casing for foreign-key targets. Only foreign keys
    in ``fks`` that leave this table are rendered. The trailing comment
    block holds the attached sample rows and stays empty when none were
    attached.
    Output is identical regardless of which stage consumes it.
    """
    lines = [f'CREATE TABLE "{table.name}" (']
    body: list[str] = []
    for col in table.columns:
        body.append(f'\t"{col.name}" {col.data_type}')
    if table.primary_key:
        pk_cols = sorted(map(table.column, table.primary_key), key=lambda c: c.ordinal)
        quoted = ", ".join(f'"{c.name}"' for c in pk_cols)
        body.append(f"\tprimary key ({quoted})")
    for fk in fks:
        if fk.from_table != table.normal_name:
            continue
        # the catalog resolved both endpoints to columns of its own
        target = catalog.table(fk.to_table)
        body.append(
            f'\tforeign key ("{table.column(fk.from_column).name}") references'
            f' "{target.name}" ("{target.column(fk.to_column).name}")'
        )
    lines.extend(f"{entry}," for entry in body[:-1])
    lines.append(body[-1])
    lines.append(");")
    lines.append("/*")
    lines.append(f"Sample rows from {table.name}:")
    if table.sample_rows:
        lines.append("\t".join(c.name for c in table.columns))
        for row in table.sample_rows:
            lines.append("\t".join(row))
    lines.append("*/")
    return "\n".join(lines)


def render_schema(
    catalog: DatabaseCatalog, tables: frozenset | set | None = None
) -> str:
    """Concatenated table blocks in catalog order.

    ``tables`` (normal names) restricts the rendering; foreign keys whose
    other endpoint is outside the selection are omitted so the reduced
    schema never references an absent table. The text is rendered anew on
    every call; ``emit_sft_dataset`` (``prepare``) keeps it once per
    database and table selection.
    """
    selected = catalog.table_names if tables is None else tables
    fks = tuple(fk for fk in catalog.foreign_keys if fk.to_table in selected)
    return "\n\n".join(
        render_table(table, fks, catalog)
        for table in catalog.tables
        if table.normal_name in selected
    )


def link_fields(
    target: LinkTarget, catalog: DatabaseCatalog
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(tables, "table.column" columns) of a target, members in catalog order.

    Names the catalog does not know sort after the known ones, by name.
    """
    rank = catalog.rank

    def key(member):
        return (0, rank[member]) if member in rank else (1, member)

    tables = tuple(sorted(target.tables, key=key))
    columns = tuple(f"{t}.{c}" for t, c in sorted(target.columns, key=key))
    return tables, columns


def serialize_link_target(target: LinkTarget, catalog: DatabaseCatalog) -> str:
    """Two-line normal form: a "tables:" line and a "columns:" line."""
    tables, columns = link_fields(target, catalog)
    first = f"tables: {', '.join(tables)}" if tables else "tables:"
    second = f"columns: {', '.join(columns)}" if columns else "columns:"
    return f"{first}\n{second}"


# -- prompt assembly -------------------------------------------------------


def _stage_schema(
    stage: str, catalog: DatabaseCatalog, selected_tables: frozenset | set | None
) -> str:
    """The schema text a stage's prompt shows: every table, or for gen the
    nonempty selection, all of whose tables the catalog must know."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    if stage != "gen":
        return render_schema(catalog)
    if not selected_tables:
        raise ValueError("stage=gen requires a nonempty table selection")
    unknown = {t for t in selected_tables if not catalog.has_table(t)}
    if unknown:
        raise ValueError(f"selected tables not in catalog: {sorted(unknown)}")
    return render_schema(catalog, selected_tables)


def prompt_parts(
    stage: str,
    question: str,
    catalog: DatabaseCatalog,
    selected_tables: frozenset | set | None = None,
    templates: PromptTemplateSet | None = None,
) -> tuple[str, str]:
    """(system preamble, instantiated template body) for one request."""
    if templates is None:
        templates = PromptTemplateSet.load()
    values = {"{schema}": _stage_schema(stage, catalog, selected_tables), "{question}": question}
    body = "".join(values.get(piece, piece) for piece in templates.pieces[stage])
    return _SYSTEM_PREAMBLES[stage], body


# -- dataset emission ------------------------------------------------------


def _escape(text: str) -> str:
    """``text`` JSON-escaped as ``json.dumps(..., ensure_ascii=False)``
    writes it inside a string, without the quotes."""
    return encode_basestring(text)[1:-1]


def _record_runs(
    stage: str, db_id: str, schema: str, templates: PromptTemplateSet
) -> tuple[list[str], str]:
    """The JSON text of a record line that no question changes.

    Returns (runs, tail): the question, escaped, goes between consecutive
    runs; the first run follows the example id and the last one ends where
    the completion starts; ``tail`` follows the completion.
    """
    runs: list[str] = []
    text = [f', "stage": "{stage}", "prompt": "', _escape(f"{_SYSTEM_PREAMBLES[stage]}\n\n")]
    for piece in templates.pieces[stage]:
        if piece == "{question}":
            runs.append("".join(text))
            text = []
        else:
            text.append(_escape(schema if piece == "{schema}" else piece))
    text.append('", "completion": ')
    runs.append("".join(text))
    return runs, f', "db_id": {encode_basestring(db_id)}}}\n'


def emit_sft_dataset(
    examples,
    stage: str,
    out: str | Path,
    templates: PromptTemplateSet | None = None,
) -> dict:
    """Write one JSONL record per example; return the manifest.

    Examples need example_id / question / gold_sql / catalog / db_id
    attributes, as ``ingest.Example`` has them, with string values. Gold
    SQL outside the supported dialect quarantines the example (id listed
    in the manifest, nothing written) and never aborts the run. The
    manifest {count, quarantined, sha256} is also written next to ``out``.

    Each line is ``json.dumps(record, ensure_ascii=False)`` of the record
    ``{example_id, stage, prompt, completion, db_id}`` whose prompt is
    ``prompt_parts`` joined by a blank line. JSON escapes one character
    at a time, so the parts that only the database and table selection
    fix are escaped once per selection, and each record escapes only its
    id, question and completion.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    if templates is None:
        templates = PromptTemplateSet.load()
    out = Path(out)
    quarantined: list[str] = []
    digest = hashlib.sha256()
    count = 0
    # (db_id, selection) -> (catalog, runs, tail) of the catalog seen last
    constant: dict = {}
    with out.open("wb") as fh:
        for ex in examples:
            catalog = ex.catalog
            try:
                ast = parse_sql(ex.gold_sql, catalog)
            except SqlError as err:
                log.warning("quarantined %s: %s", ex.example_id, err)
                quarantined.append(ex.example_id)
                continue
            target = None if stage == "full" else extract_link_targets(ast)
            selected = target.tables if stage == "gen" else None
            key = (ex.db_id, selected)
            entry = constant.get(key)
            if entry is None or entry[0] is not catalog:
                schema = _stage_schema(stage, catalog, selected)
                entry = constant[key] = (catalog, *_record_runs(stage, ex.db_id, schema, templates))
            _, runs, tail = entry
            completion = (
                serialize_link_target(target, catalog) if stage == "link" else ex.gold_sql
            )
            data = (
                f'{{"example_id": {encode_basestring(ex.example_id)}'
                f"{_escape(ex.question).join(runs)}{encode_basestring(completion)}{tail}"
            ).encode("utf-8")
            fh.write(data)
            digest.update(data)
            count += 1
    manifest = {"count": count, "quarantined": quarantined, "sha256": digest.hexdigest()}
    manifest_path = out.with_name(out.name + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest
