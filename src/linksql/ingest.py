"""Loading benchmark example splits and binding them to databases."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .catalog import DatabaseCatalog, attach_samples

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Example:
    example_id: str
    question: str
    gold_sql: str
    catalog: DatabaseCatalog
    db_file: Path | None  # None: no database file, execution-ineligible

    @property
    def db_id(self) -> str:
        return self.catalog.db_id


@dataclass(frozen=True)
class Split:
    examples: tuple[Example, ...]


def db_file_for(db_root: str | Path, db_id: str) -> Path:
    return Path(db_root) / db_id / f"{db_id}.sqlite"


def load_split(
    examples_file: str | Path,
    catalogs: dict[str, DatabaseCatalog],
    db_root: str | Path,
    sample_rows: int = 0,
) -> Split:
    """Read a JSON array of {question, query, db_id} records, in order.

    Each example's id is ``<file stem>:<record index>``.

    Each record must be an object whose three fields are strings with a
    UTF-8 form; extra fields are ignored. Any record naming a db_id
    without a loaded catalog aborts the load, listing every offender. Each
    database the split names is bound once: its file is looked up, and
    with ``sample_rows`` > 0 its catalog gets that many sample rows per
    table from the file. Every example of a database shares that one
    (catalog, file) pair. A missing file is warned about once and leaves
    the database's examples execution-ineligible and without samples.
    """
    examples_file = Path(examples_file)
    stem = examples_file.stem
    with examples_file.open("r", encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise ValueError(f"{examples_file}: expected a JSON array of examples")
    examples = []
    unknown = set()
    bound: dict[str, tuple[DatabaseCatalog, Path | None]] = {}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError(f"{examples_file}: record {i} is not a JSON object")
        for field_name in ("question", "query", "db_id"):
            value = rec.get(field_name)
            if not isinstance(value, str):
                raise ValueError(
                    f"{examples_file}: record {i}: {field_name!r} is missing or not a string"
                )
            if not value.isascii():
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate, which JSON can spell
                    raise ValueError(
                        f"{examples_file}: record {i}: {field_name!r} has no UTF-8 form"
                    ) from None
        db_id = rec["db_id"]
        if db_id not in catalogs:
            unknown.add(db_id)
            continue
        if db_id not in bound:
            catalog = catalogs[db_id]
            db_file = db_file_for(db_root, db_id)
            if not db_file.is_file():
                log.warning("no database file for %s (%s)", db_id, db_file)
                db_file = None
            elif sample_rows > 0:
                catalog = attach_samples(catalog, db_file, max_rows=sample_rows)
            bound[db_id] = catalog, db_file
        catalog, db_file = bound[db_id]
        examples.append(
            Example(f"{stem}:{i}", rec["question"], rec["query"], catalog, db_file)
        )
    if unknown:
        raise ValueError(f"{examples_file}: db_ids without catalogs: {', '.join(sorted(unknown))}")
    return Split(tuple(examples))
