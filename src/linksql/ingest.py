"""Loading benchmark example splits and binding them to databases."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .catalog import DatabaseCatalog

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Example:
    example_id: str
    question: str
    gold_sql: str
    db_id: str
    db_file: Path | None  # None: no database file, execution-ineligible


@dataclass(frozen=True)
class Split:
    name: str
    examples: tuple[Example, ...]


def db_file_for(db_root: str | Path, db_id: str) -> Path:
    return Path(db_root) / db_id / f"{db_id}.sqlite"


def load_split(
    examples_file: str | Path,
    catalogs: dict[str, DatabaseCatalog],
    db_root: str | Path,
    name: str | None = None,
) -> Split:
    """Read a JSON array of {question, query, db_id} records, in order.

    Each record must be an object whose three fields are strings; extra
    fields are ignored. Any record naming a db_id without a loaded catalog
    aborts the load, listing every offender. A missing database file keeps
    the example but leaves it execution-ineligible.
    """
    examples_file = Path(examples_file)
    split_name = name if name is not None else examples_file.stem
    with examples_file.open("r", encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise ValueError(f"{examples_file}: expected a JSON array of examples")
    examples = []
    unknown = set()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError(f"{examples_file}: record {i} is not a JSON object")
        for field_name in ("question", "query", "db_id"):
            if not isinstance(rec.get(field_name), str):
                raise ValueError(
                    f"{examples_file}: record {i}: {field_name!r} is missing or not a string"
                )
        if rec["db_id"] not in catalogs:
            unknown.add(rec["db_id"])
            continue
        db_file = db_file_for(db_root, rec["db_id"])
        if not db_file.is_file():
            log.warning("no database file for %s (%s)", rec["db_id"], db_file)
            db_file = None
        examples.append(
            Example(
                example_id=f"{split_name}:{i}",
                question=rec["question"],
                gold_sql=rec["query"],
                db_id=rec["db_id"],
                db_file=db_file,
            )
        )
    if unknown:
        raise ValueError(f"{examples_file}: db_ids without catalogs: {', '.join(sorted(unknown))}")
    return Split(name=split_name, examples=tuple(examples))
