import json
import logging

import pytest

from linksql import ingest
from linksql.cli import main
from linksql.ingest import db_file_for, load_split


def _write(tmp_path, records):
    path = tmp_path / "split.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


def test_db_file_layout(tmp_path):
    assert db_file_for(tmp_path, "library") == tmp_path / "library" / "library.sqlite"


def test_load_happy_path(catalogs, fixture_paths, tmp_path):
    records = [
        {"question": "how many venues?", "query": "SELECT count(*) FROM Venue", "db_id": "venue_events"},
        {"question": "books?", "query": "SELECT Title FROM Book", "db_id": "library", "extra": 1},
    ]
    split = load_split(_write(tmp_path, records), catalogs, fixture_paths["db_root_a"])
    assert [e.example_id for e in split.examples] == ["split:0", "split:1"]  # the file's stem
    assert split.examples[0].question == "how many venues?"
    assert split.examples[0].gold_sql == "SELECT count(*) FROM Venue"
    assert split.examples[1].db_id == "library"
    assert split.examples[0].db_file is not None and split.examples[0].db_file.is_file()


def test_order_preserved(catalogs, fixture_paths, tmp_path):
    records = [
        {"question": f"q{i}", "query": "SELECT 1", "db_id": "retail"} for i in range(7)
    ]
    split = load_split(_write(tmp_path, records), catalogs, fixture_paths["db_root_a"])
    assert [e.question for e in split.examples] == [f"q{i}" for i in range(7)]


def test_unknown_db_ids_listed(catalogs, fixture_paths, tmp_path):
    records = [
        {"question": "a", "query": "SELECT 1", "db_id": "ghost_one"},
        {"question": "b", "query": "SELECT 1", "db_id": "retail"},
        {"question": "c", "query": "SELECT 1", "db_id": "ghost_two"},
    ]
    with pytest.raises(ValueError) as exc:
        load_split(_write(tmp_path, records), catalogs, fixture_paths["db_root_a"])
    assert "ghost_one" in str(exc.value) and "ghost_two" in str(exc.value)


_GOOD = {"question": "a", "query": "SELECT 1", "db_id": "retail"}


@pytest.mark.parametrize(
    "record, message",
    [
        ({"question": "a", "db_id": "retail"}, "record 1: 'query' is missing or not a string"),
        # these used to escape as an AttributeError and a TypeError from prepare
        ("SELECT 1", "record 1 is not a JSON object"),
        ({**_GOOD, "question": 7}, "record 1: 'question' is missing or not a string"),
        ({**_GOOD, "query": None}, "record 1: 'query' is missing or not a string"),
        # this used to be reported as "db_ids without catalogs: None"
        ({"question": "a", "query": "SELECT 1"}, "record 1: 'db_id' is missing or not a string"),
        # a lone surrogate, as a JSON escape spells it: no prompt or trace can hold it
        ({**_GOOD, "question": "half \ud800?"}, "record 1: 'question' has no UTF-8 form"),
        ({**_GOOD, "query": "SELECT '\udfff'"}, "record 1: 'query' has no UTF-8 form"),
    ],
    ids=[
        "no-query",
        "not-an-object",
        "number-question",
        "null-query",
        "no-db-id",
        "surrogate-question",
        "surrogate-query",
    ],
)
def test_missing_field_rejected(catalogs, fixture_paths, tmp_path, record, message):
    path = _write(tmp_path, [_GOOD, record])
    with pytest.raises(ValueError) as exc:
        load_split(path, catalogs, fixture_paths["db_root_a"])
    assert str(exc.value) == f"{path}: {message}"


def test_non_array_rejected(catalogs, fixture_paths, tmp_path):
    path = tmp_path / "split.json"
    path.write_text('{"not": "an array"}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_split(path, catalogs, fixture_paths["db_root_a"])


def test_missing_db_file_kept_with_warning(catalogs, tmp_path, caplog):
    records = [{"question": "a", "query": "SELECT 1", "db_id": "retail"}]
    empty_root = tmp_path / "empty_root"
    empty_root.mkdir()
    with caplog.at_level(logging.WARNING):
        split = load_split(_write(tmp_path, records), catalogs, empty_root)
    assert len(split.examples) == 1
    assert split.examples[0].db_file is None
    assert any("retail" in r.message for r in caplog.records)


def test_missing_db_file_warned_once_per_database(catalogs, tmp_path, caplog):
    records = [
        {"question": f"q{i}", "query": "SELECT 1", "db_id": ("retail", "library")[i % 2]}
        for i in range(10)
    ]
    empty_root = tmp_path / "empty_root"
    empty_root.mkdir()
    with caplog.at_level(logging.WARNING, logger="linksql.ingest"):
        split = load_split(_write(tmp_path, records), catalogs, empty_root)
    assert all(e.db_file is None for e in split.examples)
    warned = [r.args[0] for r in caplog.records if r.name == "linksql.ingest"]
    assert sorted(warned) == ["library", "retail"]


def test_examples_of_one_database_share_its_db_file(catalogs, fixture_paths, tmp_path):
    records = [
        {"question": f"q{i}", "query": "SELECT 1", "db_id": ("retail", "library")[i % 2]}
        for i in range(10)
    ]
    root = fixture_paths["db_root_a"]
    split = load_split(_write(tmp_path, records), catalogs, root)
    for db_id in ("retail", "library"):
        files = [e.db_file for e in split.examples if e.db_id == db_id]
        assert len(files) == 5
        assert files[0] == db_file_for(root, db_id)
        assert all(f is files[0] for f in files)


def test_samples_attached_only_to_databases_the_split_names(
    catalogs, fixture_paths, tmp_path, monkeypatch
):
    calls = []
    real = ingest.attach_samples

    def counting(catalog, db_file, max_rows):
        calls.append(catalog.db_id)
        return real(catalog, db_file, max_rows=max_rows)

    monkeypatch.setattr(ingest, "attach_samples", counting)
    records = [{"question": f"q{i}", "query": "SELECT Title FROM Book", "db_id": "library"}
               for i in range(4)]
    split = load_split(
        _write(tmp_path, records), catalogs, fixture_paths["db_root_a"], sample_rows=2
    )
    assert calls == ["library"]
    first = split.examples[0].catalog
    assert all(e.catalog is first for e in split.examples)
    assert first is not catalogs["library"]
    assert all(0 < len(t.sample_rows) <= 2 for t in first.tables)


def test_database_without_file_gets_no_samples(catalogs, tmp_path):
    records = [{"question": "a", "query": "SELECT 1", "db_id": "retail"}]
    empty_root = tmp_path / "empty_root"
    empty_root.mkdir()
    split = load_split(_write(tmp_path, records), catalogs, empty_root, sample_rows=2)
    (ex,) = split.examples
    assert ex.db_file is None
    assert ex.catalog is catalogs["retail"]
    assert all(t.sample_rows == () for t in ex.catalog.tables)


def test_unused_database_file_that_is_not_sqlite_is_never_read(
    catalogs, fixture_paths, corrupt_retail_root, tmp_path
):
    # prepare used to sample every database in tables.json and died with a
    # sqlite3.DatabaseError traceback (exit 1) on the unused retail file
    records = [{"question": "books?", "query": "SELECT Title FROM Book", "db_id": "library"}]
    path = _write(tmp_path, records)
    split = load_split(path, catalogs, corrupt_retail_root, sample_rows=2)
    assert [e.db_id for e in split.examples] == ["library"]
    rc = main(
        ["prepare", "--tables", str(fixture_paths["tables"]), "--examples", str(path),
         "--db-root", str(corrupt_retail_root), "--with-samples", "2",
         "--stage", "full", "--out", str(tmp_path / "full.jsonl")]
    )
    assert rc == 0
