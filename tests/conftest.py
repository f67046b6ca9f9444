import json
import shutil

import pytest

from fixturedb import build_all
from querygen import make_corpus, value_pools

import linksql.sqlast.parser as sqlparser
from linksql.catalog import attach_samples, load_catalogs
from linksql.ingest import db_file_for, load_split
from linksql.promptgen import serialize_link_target
from linksql.sqlast import extract_link_targets, parse_sql


@pytest.fixture(scope="session")
def fixture_paths(tmp_path_factory):
    return build_all(tmp_path_factory.mktemp("fixtures"))


@pytest.fixture(scope="session")
def catalogs(fixture_paths):
    return {c.db_id: c for c in load_catalogs(fixture_paths["tables"])}


@pytest.fixture(scope="session")
def catalogs_sampled(fixture_paths, catalogs):
    return {
        db_id: attach_samples(cat, db_file_for(fixture_paths["db_root_a"], db_id), 3)
        for db_id, cat in catalogs.items()
    }


@pytest.fixture(scope="session")
def corrupt_retail_root(fixture_paths, tmp_path_factory):
    """A copy of the first database set whose retail file holds text."""
    root = tmp_path_factory.mktemp("corrupt") / "dbs_bad"
    shutil.copytree(fixture_paths["db_root_a"], root)
    db_file_for(root, "retail").write_text("not an sqlite file\n", encoding="utf-8")
    return root


@pytest.fixture
def parsers(monkeypatch):
    """The ``written_order`` flag of each parser that parse_sql builds, in
    the order they are built."""
    built = []

    class Spy(sqlparser._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.written_order)

    monkeypatch.setattr(sqlparser, "_Parser", Spy)
    return built


@pytest.fixture(scope="session")
def pools(fixture_paths):
    return value_pools(fixture_paths["db_root_a"])


@pytest.fixture(scope="session")
def corpus(pools):
    # 1200 queries, 400 per fixture schema
    return make_corpus(pools, per_schema=400)


@pytest.fixture(scope="session")
def split100(fixture_paths, catalogs, corpus, tmp_path_factory):
    per = len(corpus) // 3
    picked = [corpus[j * per + i] for i in range(34) for j in range(3)][:100]
    entries = [
        {"question": q.question, "query": q.sql, "db_id": q.db_id} for q in picked
    ]
    path = tmp_path_factory.mktemp("split") / "dev.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return load_split(path, catalogs, fixture_paths["db_root_a"])


@pytest.fixture(scope="session")
def oracle_answers(split100, catalogs):
    """question -> gold SQL and gold link serialization, for mock scripts."""
    answers = {}
    for ex in split100.examples:
        cat = catalogs[ex.db_id]
        target = extract_link_targets(parse_sql(ex.gold_sql, cat))
        answers[ex.question] = {
            "sql": ex.gold_sql,
            "link": serialize_link_target(target, cat),
        }
    return answers
