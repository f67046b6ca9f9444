import dataclasses
import hashlib
import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksql import promptgen
from linksql.catalog import attach_samples
from linksql.ingest import db_file_for
from linksql.promptgen import (
    STAGES,
    PromptTemplateSet,
    emit_sft_dataset,
    link_fields,
    prompt_parts,
    render_schema,
    render_table,
    serialize_link_target,
)
from linksql.sqlast import LinkTarget, extract_link_targets, parse_sql


VENUE_BLOCK = """\
CREATE TABLE "Venue" (
\t"Venue_ID" number,
\t"Name" text,
\t"City" text,
\t"Capacity" number,
\t"Outdoor" boolean,
\t"Notes" others,
\tprimary key ("Venue_ID")
);
/*
Sample rows from Venue:
*/"""


def test_render_table_golden(catalogs):
    cat = catalogs["venue_events"]
    assert render_table(cat.table("venue"), cat.foreign_keys, cat) == VENUE_BLOCK


def test_render_table_only_own_foreign_keys(catalogs):
    cat = catalogs["venue_events"]
    block = render_table(cat.table("event"), cat.foreign_keys, cat)
    assert 'foreign key ("Venue_ID") references "Venue" ("Venue_ID")' in block
    # edges leaving other tables stay out of this block
    assert block.count("foreign key") == 1


def test_render_table_sample_comment(catalogs_sampled):
    cat = catalogs_sampled["venue_events"]
    block = render_table(cat.table("event"), cat.foreign_keys, cat)
    assert "/*" in block and block.rstrip().endswith("*/")
    assert "Sample rows from Event:" in block
    header = block.split("Sample rows from Event:\n")[1].splitlines()[0]
    assert header.split("\t")[0] == "Event_ID"


def test_render_table_no_samples_empty_comment(catalogs):
    cat = catalogs["venue_events"]
    block = render_table(cat.table("event"), cat.foreign_keys, cat)
    assert block.rstrip().endswith("/*\nSample rows from Event:\n*/")
    assert "Event_ID\t" not in block  # no header line without rows


def test_render_schema_catalog_order(catalogs):
    text = render_schema(catalogs["venue_events"])
    positions = [text.index(f'CREATE TABLE "{n}"') for n in ("Venue", "Artist", "Event", "Performance")]
    assert positions == sorted(positions)


def test_render_schema_reduction_drops_cross_fks(catalogs):
    cat = catalogs["venue_events"]
    text = render_schema(cat, tables={"performance", "artist"})
    assert 'CREATE TABLE "Performance"' in text and 'CREATE TABLE "Artist"' in text
    assert 'CREATE TABLE "Event"' not in text
    # performance -> event edge omitted, performance -> artist kept
    assert 'references "Event"' not in text
    assert 'references "Artist"' in text


def _selections(cat):
    """None and every nonempty subset of the catalog's tables."""
    names = cat.table_names
    return [None] + [
        frozenset(c) for r in range(1, len(names) + 1) for c in itertools.combinations(names, r)
    ]


@pytest.mark.parametrize("sampled", [False, True], ids=["plain", "sampled"])
def test_cached_render_equals_a_fresh_render(catalogs, catalogs_sampled, sampled):
    # prepare keeps one render per selection; it must equal a fresh render of a copy
    for cat in (catalogs_sampled if sampled else catalogs).values():
        for tables in _selections(cat):
            first = render_schema(cat, tables)
            assert render_schema(cat, tables) == first
            assert first == render_schema(dataclasses.replace(cat), tables)
        assert render_schema(cat, None) == render_schema(cat, set(cat.table_names))


def test_attach_samples_does_not_inherit_rendered_texts(catalogs, fixture_paths):
    cat = dataclasses.replace(catalogs["library"])
    plain = render_schema(cat)
    sampled = attach_samples(cat, db_file_for(fixture_paths["db_root_a"], "library"), 2)
    text = render_schema(sampled)
    assert text != plain
    assert text == render_schema(dataclasses.replace(sampled))
    for table in sampled.tables:
        assert "\t".join(table.sample_rows[0]) in text


def test_serialize_link_target_catalog_order(catalogs):
    cat = catalogs["venue_events"]
    target = LinkTarget(
        tables=frozenset({"event", "venue"}),
        columns=frozenset({("event", "title"), ("venue", "city"), ("event", "venue_id")}),
    )
    assert serialize_link_target(target, cat) == (
        "tables: venue, event\n"
        "columns: venue.city, event.title, event.venue_id"
    )


def test_link_fields_put_unknown_names_after_known_ones(catalogs):
    cat = catalogs["venue_events"]
    target = LinkTarget(
        tables=frozenset({"zeta", "event"}),
        columns=frozenset(
            {
                ("event", "title"),
                ("venue", "nowhere"),
                ("zeta", "a"),
                ("venue", "city"),
                ("alpha", "b"),
                ("event", "venue_id"),
                ("venue", "venue_id"),
            }
        ),
    )
    assert link_fields(target, cat) == (
        ("venue", "event", "alpha", "zeta"),
        (
            "venue.venue_id",
            "venue.city",
            "event.title",
            "event.venue_id",
            "alpha.b",
            "venue.nowhere",
            "zeta.a",
        ),
    )


def test_derived_catalogs_rank_their_own_tables(catalogs, fixture_paths):
    cat = dataclasses.replace(catalogs["venue_events"])
    target = LinkTarget(columns=frozenset({("venue", "city"), ("event", "title")}))
    assert cat.table_names == ("venue", "artist", "event", "performance")
    assert link_fields(target, cat) == (("venue", "event"), ("venue.city", "event.title"))
    reordered = dataclasses.replace(cat, tables=cat.tables[::-1])
    assert reordered.table_names == ("performance", "event", "artist", "venue")
    assert reordered.rank["event"] == 1 and reordered.rank["event", "title"] == (1, 1)
    assert link_fields(target, reordered) == (("event", "venue"), ("event.title", "venue.city"))
    sampled = attach_samples(cat, db_file_for(fixture_paths["db_root_a"], "venue_events"), 2)
    assert sampled.rank == cat.rank and sampled.rank is not cat.rank
    assert sampled.table_names == cat.table_names
    assert sampled.table_names is not cat.table_names


def test_serialize_empty_target(catalogs):
    text = serialize_link_target(LinkTarget(), catalogs["venue_events"])
    assert text == "tables:\ncolumns:"


def test_serialize_matches_documented_format():
    linking = PromptTemplateSet.load().linking_template
    assert '"tables:" line' in linking and '"columns:" line' in linking


def test_stage_names():
    assert STAGES == ("full", "link", "gen")


def test_full_prompt_contains_all_tables(catalogs):
    _, body = prompt_parts("full", "How many venues?", catalogs["venue_events"])
    for name in ("Venue", "Artist", "Event", "Performance"):
        assert f'CREATE TABLE "{name}"' in body
    assert "Question: How many venues?" in body
    assert body.rstrip().endswith("SQL:")


def test_link_prompt_full_schema_different_instruction(catalogs):
    _, body = prompt_parts("link", "How many venues?", catalogs["venue_events"])
    assert 'CREATE TABLE "Performance"' in body
    assert body.rstrip().endswith("Answer:")


def test_gen_prompt_restricted(catalogs):
    _, body = prompt_parts(
        "gen", "q", catalogs["venue_events"], selected_tables={"event", "venue"}
    )
    assert 'CREATE TABLE "Venue"' in body and 'CREATE TABLE "Event"' in body
    assert 'CREATE TABLE "Artist"' not in body


def test_gen_prompt_requires_tables(catalogs):
    with pytest.raises(ValueError):
        prompt_parts("gen", "q", catalogs["venue_events"], selected_tables=frozenset())
    with pytest.raises(ValueError):
        prompt_parts("gen", "q", catalogs["venue_events"], selected_tables={"ghost"})


def test_unknown_stage_rejected(catalogs):
    with pytest.raises(ValueError):
        prompt_parts("other", "q", catalogs["venue_events"])


def test_question_with_braces_survives(catalogs):
    _, body = prompt_parts("full", "what {is} {this}?", catalogs["venue_events"])
    assert "Question: what {is} {this}?" in body


def test_placeholder_spelled_in_the_schema_stays_literal(catalogs):
    cat = catalogs["venue_events"]
    row = tuple("{question}" for _ in cat.table("venue").columns)
    cat = dataclasses.replace(
        cat,
        tables=tuple(
            dataclasses.replace(t, sample_rows=(row,)) if t.normal_name == "venue" else t
            for t in cat.tables
        ),
    )
    question = "Which venues seat more than 500?"
    for stage in STAGES:
        selected = frozenset({"venue"}) if stage == "gen" else None
        _, body = prompt_parts(stage, question, cat, selected)
        assert body.count(question) == 1
        assert "\t".join(row) in body
        assert body.count("{question}") == len(row)


def test_placeholder_spelled_in_the_question_stays_literal(catalogs):
    question = "what does {schema} mean?"
    _, body = prompt_parts("full", question, catalogs["venue_events"])
    assert f"Question: {question}" in body
    assert body.count('CREATE TABLE "Venue"') == 1


def test_template_override(tmp_path, catalogs):
    gen = tmp_path / "gen.txt"
    gen.write_text("G {schema} | {question}", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.write_text("L {schema} | {question}", encoding="utf-8")
    templates = PromptTemplateSet.load(gen, link)
    _, body = prompt_parts("full", "hello", catalogs["venue_events"], templates=templates)
    assert body.startswith("G CREATE TABLE") and body.endswith("| hello")


def test_template_placeholder_validation(tmp_path):
    gen = tmp_path / "gen.txt"
    gen.write_text("no placeholders", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.write_text("L {schema} {question}", encoding="utf-8")
    with pytest.raises(ValueError):
        PromptTemplateSet.load(gen, link)


# -- dataset emission ------------------------------------------------------


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("stage", STAGES)
def test_emit_dataset_stages(stage, split100, tmp_path):
    out = tmp_path / f"{stage}.jsonl"
    manifest = emit_sft_dataset(split100.examples, stage, out)
    rows = _read_jsonl(out)
    assert manifest["count"] == len(rows) == len(split100.examples)
    assert manifest["quarantined"] == []
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["sha256"] == digest
    sidecar = json.loads((tmp_path / f"{stage}.jsonl.manifest.json").read_text())
    assert sidecar == manifest
    for row, ex in zip(rows, split100.examples):
        assert list(row) == ["example_id", "stage", "prompt", "completion", "db_id"]
        assert row["example_id"] == ex.example_id
        assert row["stage"] == stage
        assert row["db_id"] == ex.db_id


@pytest.mark.parametrize("stage", STAGES)
def test_emit_derives_link_targets_only_where_a_record_uses_them(
    stage, split100, tmp_path, monkeypatch
):
    calls = []

    def spy(ast):
        calls.append(ast)
        return extract_link_targets(ast)

    monkeypatch.setattr(promptgen, "extract_link_targets", spy)
    manifest = emit_sft_dataset(split100.examples[:10], stage, tmp_path / f"{stage}.jsonl")
    assert manifest["count"] == 10
    assert len(calls) == (0 if stage == "full" else 10)


@pytest.mark.parametrize("stage", STAGES)
def test_emit_renders_each_selection_once(stage, split100, tmp_path, monkeypatch):
    calls = []

    def spy(catalog, tables=None):
        calls.append((catalog.db_id, tables))
        return render_schema(catalog, tables)

    monkeypatch.setattr(promptgen, "render_schema", spy)
    emit_sft_dataset(split100.examples, stage, tmp_path / f"{stage}.jsonl")
    # one per database for full and link, one per gold table set for gen
    selections = {
        (
            ex.db_id,
            extract_link_targets(parse_sql(ex.gold_sql, ex.catalog)).tables
            if stage == "gen"
            else None,
        )
        for ex in split100.examples
    }
    assert len(calls) == len(selections)
    assert set(calls) == selections


def test_emit_prompt_joins_system_and_body(split100, catalogs, tmp_path):
    for stage in STAGES:
        out = tmp_path / f"{stage}.jsonl"
        emit_sft_dataset(split100.examples[:5], stage, out)
        for row, ex in zip(_read_jsonl(out), split100.examples[:5]):
            cat = catalogs[ex.db_id]
            tables = extract_link_targets(parse_sql(ex.gold_sql, cat)).tables
            system, body = prompt_parts(stage, ex.question, cat, tables if stage == "gen" else None)
            assert row["prompt"] == f"{system}\n\n{body}"


def test_emit_full_and_gen_completions_are_gold(split100, tmp_path):
    for stage in ("full", "gen"):
        out = tmp_path / f"{stage}.jsonl"
        emit_sft_dataset(split100.examples[:5], stage, out)
        for row, ex in zip(_read_jsonl(out), split100.examples[:5]):
            assert row["completion"] == ex.gold_sql


def test_emit_link_completions_serialize_gold_extraction(split100, catalogs, tmp_path):
    out = tmp_path / "link.jsonl"
    emit_sft_dataset(split100.examples[:10], "link", out)
    for row, ex in zip(_read_jsonl(out), split100.examples[:10]):
        cat = catalogs[ex.db_id]
        target = extract_link_targets(parse_sql(ex.gold_sql, cat))
        assert row["completion"] == serialize_link_target(target, cat)


def test_emit_gen_prompt_tables_match_extraction(split100, catalogs, tmp_path):
    out = tmp_path / "gen.jsonl"
    emit_sft_dataset(split100.examples[:20], "gen", out)
    for row, ex in zip(_read_jsonl(out), split100.examples[:20]):
        cat = catalogs[ex.db_id]
        want = set(extract_link_targets(parse_sql(ex.gold_sql, cat)).tables)
        got = {
            cat.table_map[m.lower()].normal_name
            for m in re.findall(r'CREATE TABLE "([^"]+)"', row["prompt"])
        }
        assert got == want


class _Record:
    """An example as ``emit_sft_dataset`` reads it."""

    def __init__(self, example_id, question, gold_sql, catalog):
        self.example_id = example_id
        self.question = question
        self.gold_sql = gold_sql
        self.catalog = catalog
        self.db_id = catalog.db_id


def test_emit_quarantines_unsupported_gold(split100, catalogs, tmp_path, caplog):
    cat = catalogs["venue_events"]
    examples = [
        _Record("s:0", "ok", "SELECT Name FROM Venue", cat),
        _Record("s:1", "bad dialect", "SELECT Name FROM Venue WHERE Notes IS NULL", cat),
        _Record("s:2", "also ok", "SELECT count(*) FROM Artist", cat),
    ]
    for stage in STAGES:  # quarantine applies uniformly, link stage included
        out = tmp_path / f"{stage}.jsonl"
        manifest = emit_sft_dataset(examples, stage, out)
        assert manifest["count"] == 2
        assert manifest["quarantined"] == ["s:1"]
        assert [r["example_id"] for r in _read_jsonl(out)] == ["s:0", "s:2"]


def test_emit_rerun_byte_identical(split100, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    ma = emit_sft_dataset(split100.examples, "gen", a)
    mb = emit_sft_dataset(split100.examples, "gen", b)
    assert a.read_bytes() == b.read_bytes()
    assert ma["sha256"] == mb["sha256"]


# -- byte identity of the emitted lines ------------------------------------

# Text JSON has to escape, or that is stored beyond one UTF-8 byte: quotes,
# backslashes, every control character, U+2028, and non-ASCII and astral
# characters.
_AWKWARD_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\u2028\u2029é{}\U0001f600'),
        st.characters(max_codepoint=0x1F),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=12,
)

# golds over two table selections, each with one string literal to fill
_GOLDS = (
    "SELECT Name FROM Venue WHERE Name = '{}'",
    "SELECT Title FROM Event JOIN Venue ON Event.Venue_ID = Venue.Venue_ID WHERE City = '{}'",
)


@pytest.fixture(scope="module")
def awkward_catalog(catalogs):
    """venue_events with sample rows whose cells hold quotes, backslashes
    and tabs, so the schema text itself needs escaping."""
    cat = catalogs["venue_events"]
    return dataclasses.replace(
        cat,
        tables=tuple(
            dataclasses.replace(
                t,
                sample_rows=tuple(
                    tuple(f'{c.name} "{i}"\\\t{{question}}' for c in t.columns) for i in range(2)
                ),
            )
            for t in cat.tables
        ),
    )


_TEMPLATE_SETS = {
    "default": None,
    "override": PromptTemplateSet(
        generation_template='{question}\t"g"\\{schema}{question}|{question}',
        linking_template='{question} "l"\n{schema}{question}\n{question}',
    ),
}


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("which", list(_TEMPLATE_SETS))
@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            _AWKWARD_TEXT, _AWKWARD_TEXT, _AWKWARD_TEXT, st.sampled_from(_GOLDS), st.booleans()
        ),
        min_size=1,
        max_size=5,
    )
)
def test_emitted_line_is_json_dumps_of_the_record(
    stage, which, rows, catalogs, awkward_catalog, tmp_path_factory
):
    templates = _TEMPLATE_SETS[which]
    # one db_id, two catalog objects: a record never reuses the other's schema
    examples = [
        _Record(
            example_id,
            question,
            gold.format(value.replace("'", "''")),
            awkward_catalog if awkward else catalogs["venue_events"],
        )
        for example_id, question, value, gold, awkward in rows
    ]
    out = tmp_path_factory.mktemp("awkward") / f"{stage}.jsonl"
    manifest = emit_sft_dataset(examples, stage, out, templates)
    want = []
    for ex in examples:
        cat = ex.catalog
        target = extract_link_targets(parse_sql(ex.gold_sql, cat))
        selected = target.tables if stage == "gen" else None
        system, body = prompt_parts(stage, ex.question, cat, selected, templates)
        record = {
            "example_id": ex.example_id,
            "stage": stage,
            "prompt": f"{system}\n\n{body}",
            "completion": serialize_link_target(target, cat) if stage == "link" else ex.gold_sql,
            "db_id": cat.db_id,
        }
        want.append((json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8"))
    data = out.read_bytes()
    # split at b"\n" only: str.splitlines would also split at U+2028
    assert [line + b"\n" for line in data.split(b"\n")[:-1]] == want
    assert manifest["count"] == len(want)
    assert manifest["sha256"] == hashlib.sha256(data).hexdigest()


def test_lone_surrogate_question_is_not_written(catalogs, tmp_path):
    cat = catalogs["venue_events"]
    examples = [_Record("s:0", "half a pair \ud800?", "SELECT Name FROM Venue", cat)]
    for stage in STAGES:
        with pytest.raises(UnicodeEncodeError):
            emit_sft_dataset(examples, stage, tmp_path / f"{stage}.jsonl")
