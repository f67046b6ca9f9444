import json
import re

import pytest

from fixturedb import SCHEMAS

from linksql.catalog import (
    CatalogError,
    attach_samples,
    load_catalogs,
    render_cell,
)
from linksql.ingest import db_file_for


def test_loads_every_fixture_db(catalogs):
    assert set(catalogs) == set(SCHEMAS)


def test_table_and_column_normal_names(catalogs):
    cat = catalogs["venue_events"]
    assert cat.table_names == ("venue", "artist", "event", "performance")
    venue = cat.table("venue")
    assert venue.name == "Venue"
    assert [c.normal_name for c in venue.columns][:2] == ["venue_id", "name"]
    assert venue.column("venue_id").name == "Venue_ID"


def test_star_pseudo_column_dropped(catalogs):
    for cat in catalogs.values():
        for table in cat.tables:
            assert all(c.name != "*" for c in table.columns)


def test_column_ordinals_are_positions(catalogs):
    event = catalogs["venue_events"].table("event")
    assert [c.ordinal for c in event.columns] == list(range(len(event.columns)))


def test_primary_keys_resolved(catalogs):
    assert catalogs["library"].table("loan").primary_key == frozenset({"loan_id"})


def test_foreign_keys_resolved_to_names(catalogs):
    fks = {
        (fk.from_table, fk.from_column, fk.to_table, fk.to_column)
        for fk in catalogs["retail"].foreign_keys
    }
    assert ("shop_order", "customer_id", "customer", "customer_id") in fks
    assert ("order_item", "product_id", "product", "product_id") in fks


def test_column_types_preserved(catalogs):
    venue = catalogs["venue_events"].table("venue")
    assert venue.column("outdoor").data_type == "boolean"
    assert venue.column("capacity").data_type == "number"
    assert venue.column("name").data_type == "text"


def test_missing_file_raises():
    with pytest.raises((OSError, CatalogError)):
        load_catalogs("/nonexistent/tables.json")


def test_invalid_json_reports_offset(tmp_path):
    bad = tmp_path / "tables.json"
    bad.write_text("[{", encoding="utf-8")
    with pytest.raises(CatalogError, match="offset"):
        load_catalogs(bad)


def test_non_array_top_level(tmp_path):
    bad = tmp_path / "tables.json"
    bad.write_text('{"db_id": "x"}', encoding="utf-8")
    with pytest.raises(CatalogError):
        load_catalogs(bad)


def test_missing_entry_field(tmp_path):
    bad = tmp_path / "tables.json"
    bad.write_text(json.dumps([{"db_id": "x"}]), encoding="utf-8")
    with pytest.raises(CatalogError):
        load_catalogs(bad)


def test_out_of_range_column_index(tmp_path):
    entry = {
        "db_id": "broken",
        "table_names_original": ["T"],
        "column_names_original": [[-1, "*"], [0, "A"], [5, "B"]],
        "column_types": ["text", "text", "text"],
        "primary_keys": [],
        "foreign_keys": [],
    }
    bad = tmp_path / "tables.json"
    bad.write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(CatalogError, match="broken"):
        load_catalogs(bad)


def test_foreign_key_out_of_range_column_index(tmp_path):
    entry = {
        "db_id": "dangling_fk",
        "table_names_original": ["T", "U"],
        "column_names_original": [[-1, "*"], [0, "A"], [1, "B"]],
        "column_types": ["text", "text", "text"],
        "primary_keys": [1],
        "foreign_keys": [[2, 9]],
    }
    bad = tmp_path / "tables.json"
    bad.write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(CatalogError, match=r"db 'dangling_fk': foreign key .* index 9"):
        load_catalogs(bad)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("column_names_original", [[-1, "*"], 5], r"column entry 1 is not .*: 5$"),
        ("column_names_original", [[-1, "*"], ["0", "a"]], r"column entry 1 is not .*'0', 'a'"),
        ("foreign_keys", [[1]], r"foreign key is not a pair of column indexes: \[1\]"),
        ("column_names_original", 5, r"column_names_original is not a list: 5$"),
        ("column_types", 3, r"column_types is not a list: 3$"),
        ("table_names_original", 3, r"table_names_original is not a list: 3$"),
        ("table_names_original", None, r"table_names_original is not a list: None$"),
        ("foreign_keys", 7, r"foreign_keys is not a list: 7$"),
        ("primary_keys", [{}], r"primary key references column index \{\}$"),
    ],
    ids=[
        "column-not-a-pair",
        "column-table-index-text",
        "foreign-key-one-index",
        "column-names-a-number",
        "column-types-a-number",
        "table-names-a-number",
        "table-names-null",
        "foreign-keys-a-number",
        "primary-key-a-dict",
    ],
)
def test_malformed_entry_rejected(tmp_path, field, value, message):
    entry = {
        "db_id": "d",
        "table_names_original": ["T"],
        "column_names_original": [[-1, "*"], [0, "A"]],
        "column_types": ["text", "text"],
        "primary_keys": [],
        "foreign_keys": [],
        field: value,
    }
    bad = tmp_path / "tables.json"
    bad.write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(CatalogError, match=rf"^{re.escape(str(bad))}: db 'd': {message}"):
        load_catalogs(bad)


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[1, 2]], r"database entry is not a JSON object: \[1, 2\]$"),
        ([None], r"database entry is not a JSON object: None$"),
        ([{"db_id": ["d"]}], r"db_id is not a string: \['d'\]$"),
        # every caller keys catalogs by db_id, which would keep the last entry
        (
            [{"db_id": "d"}, {"db_id": "e"}, {"db_id": "d"}],
            r"db 'd': a second entry for this db_id$",
        ),
    ],
    ids=["list", "null", "db-id-a-list", "db-id-twice"],
)
def test_entry_of_another_shape_rejected(tmp_path, entries, message):
    entries = [
        {
            "table_names_original": ["T"],
            "column_names_original": [[-1, "*"], [0, "A"]],
            "column_types": ["text", "text"],
            **entry,
        }
        if isinstance(entry, dict)
        else entry
        for entry in entries
    ]
    bad = tmp_path / "tables.json"
    bad.write_text(json.dumps(entries), encoding="utf-8")
    with pytest.raises(CatalogError, match=rf"^{re.escape(str(bad))}: {message}"):
        load_catalogs(bad)


def test_table_without_columns_rejected(tmp_path):
    entry = {
        "db_id": "hollow",
        "table_names_original": ["T", "Empty"],
        "column_names_original": [[-1, "*"], [0, "A"]],
        "column_types": ["text", "text"],
        "primary_keys": [],
        "foreign_keys": [],
    }
    bad = tmp_path / "tables.json"
    bad.write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(CatalogError, match=r"db 'hollow': table 'Empty' has no columns"):
        load_catalogs(bad)


def test_attach_samples_copies(catalogs, fixture_paths):
    cat = catalogs["library"]
    db = db_file_for(fixture_paths["db_root_a"], "library")
    sampled = attach_samples(cat, db, 2)
    assert sampled is not cat
    assert all(t.sample_rows == () for t in cat.tables)
    for table in sampled.tables:
        assert 0 < len(table.sample_rows) <= 2
        for row in table.sample_rows:
            assert len(row) == len(table.columns)
            assert all(isinstance(cell, str) for cell in row)


def test_attach_samples_missing_file(catalogs, tmp_path):
    with pytest.raises(OSError):
        attach_samples(catalogs["library"], tmp_path / "absent.sqlite", 2)


def test_render_cell_forms():
    assert render_cell(None) == "NULL"
    assert render_cell(3) == "3"
    assert render_cell(2.5) == "2.5"
    assert render_cell("abc") == "abc"
    assert render_cell(b"\x01\xff") == "01ff"
    long = "x" * 500
    rendered = render_cell(long)
    assert rendered.endswith("...") and len(rendered) < 500


def test_two_instances_same_schema_different_rows(catalogs, fixture_paths):
    cat = catalogs["retail"]
    a = attach_samples(cat, db_file_for(fixture_paths["db_root_a"], "retail"), 3)
    b = attach_samples(cat, db_file_for(fixture_paths["db_root_b"], "retail"), 3)
    rows_a = [t.sample_rows for t in a.tables]
    rows_b = [t.sample_rows for t in b.tables]
    assert rows_a != rows_b
