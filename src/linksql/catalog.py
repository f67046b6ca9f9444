"""Normalized in-memory schema model for benchmark databases.

Ingests benchmark schema metadata (the ``tables.json`` format: per-database
table and column name lists, column types, primary keys, and foreign keys
given as column-index pairs) and, optionally, live SQLite database files
from which a few sample rows per table are captured for prompt rendering.

Catalogs are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import logging
import sqlite3
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

log = logging.getLogger(__name__)

COLUMN_TYPES = ("text", "number", "time", "boolean", "others")

TEXT_CELL_LIMIT = 64


class CatalogError(Exception):
    """Malformed schema metadata file or unresolvable schema reference."""


def _normalize(name: str) -> str:
    return name.strip().lower()


@dataclass(frozen=True)
class ColumnDef:
    """One column: original spelling, lowercase normal form, type, position."""

    name: str
    data_type: str
    ordinal: int

    @property
    def normal_name(self) -> str:
        return _normalize(self.name)


@dataclass(frozen=True)
class TableDef:
    """One table with its columns, primary key, and captured sample rows."""

    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: frozenset[str] = frozenset()
    sample_rows: tuple[tuple[str, ...], ...] = ()

    @property
    def normal_name(self) -> str:
        return _normalize(self.name)

    @cached_property
    def column_map(self) -> dict[str, ColumnDef]:
        return {c.normal_name: c for c in self.columns}

    def column(self, normal_name: str) -> ColumnDef:
        return self.column_map[normal_name]

    def has_column(self, normal_name: str) -> bool:
        return normal_name in self.column_map


@dataclass(frozen=True)
class ForeignKey:
    """A resolved foreign-key edge; all four identifiers are normal-form."""

    from_table: str
    from_column: str
    to_table: str
    to_column: str


@dataclass(frozen=True)
class DatabaseCatalog:
    """Full relational schema of one database.

    ``tables`` preserves metadata order, which is the canonical rendering
    order for prompts.
    """

    db_id: str
    tables: tuple[TableDef, ...]
    foreign_keys: tuple[ForeignKey, ...] = ()

    @cached_property
    def table_map(self) -> dict[str, TableDef]:
        return {t.normal_name: t for t in self.tables}

    @cached_property
    def table_names(self) -> tuple[str, ...]:
        """Normal-form table names in catalog order."""
        return tuple(t.normal_name for t in self.tables)

    @cached_property
    def rank(self) -> dict:
        """Catalog position of each table, keyed by its normal name, and of
        each column, keyed by the (table, column) normal names: the order
        that ``promptgen.link_fields`` lists them in."""
        rank: dict = {}
        for i, table in enumerate(self.tables):
            rank[table.normal_name] = i
            for column in table.columns:
                rank[table.normal_name, column.normal_name] = (i, column.ordinal)
        return rank

    def table(self, normal_name: str) -> TableDef:
        return self.table_map[normal_name]

    def has_table(self, normal_name: str) -> bool:
        return normal_name in self.table_map


def load_catalogs(tables_metadata_file: str | Path) -> list[DatabaseCatalog]:
    """Load every database schema from a ``tables.json``-format metadata file.

    The file is a JSON array of database entries with fields ``db_id``,
    ``table_names_original``, ``column_names_original`` (pairs of
    ``[table_index, name]``), ``column_types``, ``primary_keys`` (column
    indices), and ``foreign_keys`` (pairs of column indices). The ``*``
    pseudo-column at index 0 is dropped; column-index references are
    resolved to names.

    Raises CatalogError on malformed JSON (with file offset), on a
    database entry, field, column entry, primary key or foreign key of
    another shape, on any out-of-range index, on a table without columns
    and on a second entry for one db_id (naming the offending db_id).
    """
    path = Path(tables_metadata_file)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise CatalogError(f"{path}: invalid JSON at offset {e.pos}: {e.msg}") from e
    if not isinstance(raw, list):
        raise CatalogError(f"{path}: expected a JSON array of database entries")

    catalogs = [_build_catalog(entry, path) for entry in raw]
    seen = set()
    for catalog in catalogs:
        if catalog.db_id in seen:
            raise CatalogError(f"{path}: db {catalog.db_id!r}: a second entry for this db_id")
        seen.add(catalog.db_id)
    return catalogs


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2


def _build_catalog(entry: dict, path: Path) -> DatabaseCatalog:
    if not isinstance(entry, dict):
        raise CatalogError(f"{path}: database entry is not a JSON object: {entry!r}")

    def schema_error(msg: str) -> CatalogError:
        return CatalogError(f"{path}: db {db_id!r}: {msg}")

    def array(field: str, default: list | None = None) -> list:
        value = entry[field] if default is None else entry.get(field, default)
        if not isinstance(value, list):
            raise schema_error(f"{field} is not a list: {value!r}")
        return value

    try:
        db_id = entry["db_id"]
        table_names = array("table_names_original")
        column_names = array("column_names_original")
        column_types = array("column_types")
        primary_keys = array("primary_keys", [])
        foreign_keys = array("foreign_keys", [])
    except KeyError as e:
        raise CatalogError(f"{path}: database entry missing field {e}") from e

    if not isinstance(db_id, str):
        raise CatalogError(f"{path}: db_id is not a string: {db_id!r}")
    if not all(isinstance(name, str) for name in table_names):
        raise schema_error(f"a table name is not a string: {table_names!r}")

    if len(column_names) != len(column_types):
        raise schema_error(
            f"{len(column_names)} column names vs {len(column_types)} column types"
        )

    # Global column index -> (table index, ColumnDef); index 0 is the "*"
    # pseudo-column and carries table index -1.
    per_table: list[list[ColumnDef]] = [[] for _ in table_names]
    col_site: dict[int, tuple[int, ColumnDef]] = {}
    for idx, pair in enumerate(column_names):
        if not (_is_pair(pair) and type(pair[0]) is int and isinstance(pair[1], str)):
            raise schema_error(f"column entry {idx} is not a [table index, name] pair: {pair!r}")
        t_idx, col_name = pair
        if t_idx == -1:
            continue
        if not 0 <= t_idx < len(table_names):
            raise schema_error(f"column {col_name!r} references table index {t_idx}")
        ctype = column_types[idx]
        if ctype not in COLUMN_TYPES:
            ctype = "others"
        cdef = ColumnDef(name=col_name, data_type=ctype, ordinal=len(per_table[t_idx]))
        per_table[t_idx].append(cdef)
        col_site[idx] = (t_idx, cdef)

    def locate(col_idx: int, what: str) -> tuple[int, ColumnDef]:
        if type(col_idx) is not int or col_idx not in col_site:
            raise schema_error(f"{what} references column index {col_idx!r}")
        return col_site[col_idx]

    pk_by_table: dict[int, set[str]] = {}
    for pk in primary_keys:
        # Composite keys appear as nested index lists in some metadata variants.
        for col_idx in pk if isinstance(pk, list) else [pk]:
            t_idx, cdef = locate(col_idx, "primary key")
            pk_by_table.setdefault(t_idx, set()).add(cdef.normal_name)

    for i, cols in enumerate(per_table):
        if not cols:
            raise schema_error(f"table {table_names[i]!r} has no columns")

    tables = tuple(
        TableDef(
            name=table_names[i],
            columns=tuple(per_table[i]),
            primary_key=frozenset(pk_by_table.get(i, set())),
        )
        for i in range(len(table_names))
    )

    fks = []
    for pair in foreign_keys:
        if not (_is_pair(pair) and all(type(i) is int for i in pair)):
            raise schema_error(f"foreign key is not a pair of column indexes: {pair!r}")
        from_idx, to_idx = pair
        ft, fc = locate(from_idx, "foreign key")
        tt, tc = locate(to_idx, "foreign key")
        fks.append(
            ForeignKey(
                from_table=_normalize(table_names[ft]),
                from_column=fc.normal_name,
                to_table=_normalize(table_names[tt]),
                to_column=tc.normal_name,
            )
        )

    seen = set()
    for t in tables:
        if t.normal_name in seen:
            raise schema_error(f"duplicate table name {t.normal_name!r}")
        seen.add(t.normal_name)

    return DatabaseCatalog(db_id=db_id, tables=tables, foreign_keys=tuple(fks))


def render_cell(value: object) -> str:
    """Render one database cell for sample-row display.

    NULL becomes "NULL", long text is truncated with an ellipsis marker,
    and numbers use their shortest round-trip decimal form.
    """
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bytes):
        text = value.hex()
    else:
        text = str(value)
    if len(text) > TEXT_CELL_LIMIT:
        return text[:TEXT_CELL_LIMIT] + "..."
    return text


def attach_samples(
    catalog: DatabaseCatalog, db_file: str | Path, max_rows: int = 3
) -> DatabaseCatalog:
    """Return a copy of the catalog with up to ``max_rows`` sample rows per table.

    Rows are the first rows in physical storage order (by rowid). Schema
    structure is never modified. A table missing from the database file
    yields a warning and an empty sample list; an unreadable file, or one
    that is not an SQLite database, raises OSError.
    """
    path = Path(db_file)
    if not path.is_file():
        raise OSError(f"database file not readable: {path}")
    uri = f"file:{path}?mode=ro"
    try:
        conn = sqlite3.connect(uri, uri=True)
    except sqlite3.Error as e:
        raise OSError(f"cannot open database file {path}: {e}") from e

    try:
        conn.text_factory = lambda b: b.decode("utf-8", errors="replace")
        tables = tuple(
            replace(t, sample_rows=_fetch_samples(conn, t, max_rows, catalog.db_id))
            for t in catalog.tables
        )
    except sqlite3.DatabaseError as e:
        raise OSError(f"cannot read database file {path}: {e}") from e
    finally:
        conn.close()
    return replace(catalog, tables=tables)


def _fetch_samples(
    conn: sqlite3.Connection, table: TableDef, max_rows: int, db_id: str
) -> tuple[tuple[str, ...], ...]:
    cols = ", ".join(f'"{c.name}"' for c in table.columns)
    base = f'SELECT {cols} FROM "{table.name}"'
    try:
        try:
            rows = conn.execute(f"{base} ORDER BY rowid LIMIT ?", (max_rows,)).fetchall()
        except sqlite3.OperationalError:
            # WITHOUT ROWID tables reject the rowid ordering; fall back to
            # plain physical order.
            rows = conn.execute(f"{base} LIMIT ?", (max_rows,)).fetchall()
    except sqlite3.OperationalError as e:
        log.warning("db %s: cannot sample table %s: %s", db_id, table.name, e)
        return ()
    return tuple(tuple(render_cell(v) for v in row) for row in rows)
