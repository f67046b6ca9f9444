import dataclasses
import json

import pytest

import mockserver
from mockserver import MockEndpoint

from linksql.linker import parse_linker_output
from linksql.orchestrate import (
    MODES,
    EndpointConfig,
    EndpointError,
    complete,
    extract_sql,
    read_traces,
    run_pipeline,
    run_summary,
    trace_dict,
    trace_link_target,
    write_traces,
)
from linksql.promptgen import build_prompt, serialize_link_target
from linksql.sqlast import LinkTarget, extract_link_targets, parse_sql


def cfg(endpoint, **kw):
    defaults = dict(
        base_url=endpoint.base_url,
        model_name="toy",
        max_retries=2,
        backoff_seconds=0.01,
        request_timeout_ms=5000,
    )
    defaults.update(kw)
    return EndpointConfig(**defaults)


def _no_sleep(_seconds):
    pass


# -- transport -------------------------------------------------------------


def test_complete_success_and_payload_shape():
    with MockEndpoint(mockserver.constant("SELECT 1")) as ep:
        out = complete(cfg(ep), "a prompt", system="be terse", sleep=_no_sleep)
        assert out == "SELECT 1"
        req = ep.requests[0]
        assert req["path"].endswith("/chat/completions")
        payload = req["payload"]
        assert payload["model"] == "toy"
        assert payload["temperature"] == 0.0
        assert payload["max_tokens"] == 512
        assert [m["role"] for m in payload["messages"]] == ["system", "user"]
        assert payload["messages"][1]["content"] == "a prompt"


def test_complete_no_system_message():
    with MockEndpoint(mockserver.constant("ok")) as ep:
        complete(cfg(ep), "p", sleep=_no_sleep)
        assert [m["role"] for m in ep.requests[0]["payload"]["messages"]] == ["user"]


def test_bearer_token_from_env(monkeypatch):
    monkeypatch.setenv("LINKSQL_API_KEY", "sk-test-123")
    with MockEndpoint(mockserver.constant("ok")) as ep:
        complete(cfg(ep), "p", sleep=_no_sleep)
        assert ep.requests[0]["headers"].get("Authorization") == "Bearer sk-test-123"


def test_no_auth_header_without_env(monkeypatch):
    monkeypatch.delenv("LINKSQL_API_KEY", raising=False)
    with MockEndpoint(mockserver.constant("ok")) as ep:
        complete(cfg(ep), "p", sleep=_no_sleep)
        assert "Authorization" not in ep.requests[0]["headers"]


def test_retry_on_500_then_success():
    with MockEndpoint(mockserver.fail_first(1, text="recovered")) as ep:
        assert complete(cfg(ep), "p", sleep=_no_sleep) == "recovered"
        assert len(ep.requests) == 2


def test_retry_on_429():
    with MockEndpoint(mockserver.fail_first(1, text="ok", status=429)) as ep:
        assert complete(cfg(ep), "p", sleep=_no_sleep) == "ok"
        assert len(ep.requests) == 2


def test_retry_exhaustion_raises():
    with MockEndpoint(mockserver.always_status(500, "down")) as ep:
        with pytest.raises(EndpointError):
            complete(cfg(ep, max_retries=2), "p", sleep=_no_sleep)
        assert len(ep.requests) == 3  # initial try + 2 retries


def test_client_error_fails_fast():
    with MockEndpoint(mockserver.always_status(404, "missing")) as ep:
        with pytest.raises(EndpointError):
            complete(cfg(ep, max_retries=3), "p", sleep=_no_sleep)
        assert len(ep.requests) == 1


def test_malformed_body_retried_then_fails():
    with MockEndpoint(mockserver.malformed_body()) as ep:
        with pytest.raises(EndpointError):
            complete(cfg(ep, max_retries=1), "p", sleep=_no_sleep)
        assert len(ep.requests) == 2


def test_backoff_doubles():
    waits = []
    with MockEndpoint(mockserver.always_status(500)) as ep:
        with pytest.raises(EndpointError):
            complete(cfg(ep, max_retries=3, backoff_seconds=0.5), "p", sleep=waits.append)
    assert waits == [0.5, 1.0, 2.0]


def test_config_validation():
    with pytest.raises(ValueError):
        EndpointConfig(base_url="", model_name="m")
    with pytest.raises(ValueError):
        EndpointConfig(base_url="http://x", model_name="")
    with pytest.raises(ValueError):
        EndpointConfig(base_url="http://x", model_name="m", max_retries=-1)


# -- completion post-processing -------------------------------------------


@pytest.mark.parametrize(
    "raw,want",
    [
        ("SELECT 1", "SELECT 1"),
        ("  SELECT 1  \n", "SELECT 1"),
        ("```sql\nSELECT 1\n```", "SELECT 1"),
        ("```\nSELECT 1\n```", "SELECT 1"),
        ("Here you go:\n```sql\nSELECT a FROM t\n```\nEnjoy!", "SELECT a FROM t"),
        ("SQL: SELECT 1", "SELECT 1"),
        ("sql: SELECT 1", "SELECT 1"),
        ("SELECT 1; SELECT 2;", "SELECT 1"),
        ("SELECT 1;", "SELECT 1"),
        ("", ""),
        ("SELECT a FROM t WHERE note = 'a;b'", "SELECT a FROM t WHERE note = 'a;b'"),
        ("SELECT a FROM t WHERE note = 'a;b'; SELECT 2", "SELECT a FROM t WHERE note = 'a;b'"),
        (
            "Here:\n```sql\nSELECT a FROM t WHERE note = 'x;y';\n```\nDone.",
            "SELECT a FROM t WHERE note = 'x;y'",
        ),
        # an unterminated quote is a plain character
        ("SELECT a FROM t WHERE note = 'a; b", "SELECT a FROM t WHERE note = 'a"),
        (
            "SELECT a FROM t WHERE n = 'a;b' AND m || 'x' = 'y'",
            "SELECT a FROM t WHERE n = 'a;b' AND m || 'x' = 'y'",
        ),
        ("SELECT a FROM t WHERE n = 'a;b'; -- that's all", "SELECT a FROM t WHERE n = 'a;b'"),
    ],
)
def test_extract_sql(raw, want):
    assert extract_sql(raw) == want


# -- pipeline modes --------------------------------------------------------


def test_full_mode_shape(split100, catalogs, oracle_answers):
    split = split100
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline("full", split, catalogs, config=cfg(ep), sleep=_no_sleep)
    assert len(traces) == len(split.examples)
    for trace, ex in zip(traces, split.examples):
        assert trace.example_id == ex.example_id
        assert trace.mode == "full"
        assert trace.stage1_prompt is None and trace.stage1_completion is None
        assert not trace.fallback_full_schema
        assert set(trace.resolved_tables) == set(catalogs[ex.db_id].table_names)
        assert trace.resolved_columns == ()
        assert trace.stage2_prompt == build_prompt("full", ex.question, catalogs[ex.db_id])
        assert trace.extracted_sql == ex.gold_sql
        assert trace.error is None


def test_oracle_link_mode_uses_gold_tables(split100, catalogs, oracle_answers):
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline(
            "oracle_link", split100, catalogs, config=cfg(ep), sleep=_no_sleep
        )
    for trace, ex in zip(traces, split100.examples):
        cat = catalogs[ex.db_id]
        gold = extract_link_targets(parse_sql(ex.gold_sql, cat))
        assert set(trace.resolved_tables) == set(gold.tables)
        assert not trace.fallback_full_schema
        assert trace.stage1_prompt is None
        # stage-2 prompt restricted to the gold tables
        for name in cat.table_names:
            present = f'CREATE TABLE "{cat.table_map[name].name}"' in trace.stage2_prompt
            assert present == (name in gold.tables)


def test_dts_mode_two_stages(split100, catalogs, oracle_answers):
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline("dts", split100, catalogs, config=cfg(ep), sleep=_no_sleep)
        n_requests = len(ep.requests)
    assert n_requests == 2 * len(split100.examples)
    for trace, ex in zip(traces, split100.examples):
        assert trace.stage1_prompt is not None
        assert trace.stage1_completion == oracle_answers[ex.question]["link"]
        assert not trace.fallback_full_schema
        assert trace.extracted_sql == ex.gold_sql


def test_dts_garbage_linker_falls_back_to_full_schema(split100, catalogs, oracle_answers):
    split = type(split100)(split100.name, split100.examples[:6], split100.db_root)

    def script(payload, idx):
        if mockserver.is_linking_prompt(payload):
            return {"content": "no idea, sorry"}
        return mockserver.scripted_oracle(oracle_answers)(payload, idx)

    with MockEndpoint(script) as ep:
        traces = run_pipeline("dts", split, catalogs, config=cfg(ep), sleep=_no_sleep)
    for trace, ex in zip(traces, split.examples):
        assert trace.fallback_full_schema
        assert set(trace.resolved_tables) == set(catalogs[ex.db_id].table_names)
        assert trace.stage2_prompt == build_prompt("full", ex.question, catalogs[ex.db_id])
        assert trace.extracted_sql == ex.gold_sql  # generation still succeeds


@pytest.mark.parametrize(
    "gold",
    [
        "SELECT name FROM ghost",  # resolution error
        "SELECT name FROM venue WHERE city = 'a' || 'b'",  # outside the lexer
    ],
)
def test_oracle_link_unusable_gold_falls_back_to_full_schema(split100, catalogs, gold):
    ex = next(e for e in split100.examples if e.db_id == "venue_events")
    ex = dataclasses.replace(ex, gold_sql=gold)
    split = type(split100)(split100.name, (ex,), split100.db_root)
    cat = catalogs[ex.db_id]
    with MockEndpoint(mockserver.constant("SELECT 1")) as ep:
        (trace,) = run_pipeline(
            "oracle_link", split, catalogs, config=cfg(ep), sleep=_no_sleep
        )
    assert trace.fallback_full_schema
    assert trace.error.startswith("gold SQL unusable for linking")
    assert set(trace.resolved_tables) == set(cat.table_names)
    assert trace.resolved_columns == ()
    assert trace.stage2_prompt == build_prompt("full", ex.question, cat)
    assert trace.extracted_sql == "SELECT 1"


def _expected_target(mode, trace, ex, cat):
    if mode == "full":
        return LinkTarget(frozenset(cat.table_names), frozenset())
    if mode == "oracle_link":
        return extract_link_targets(parse_sql(ex.gold_sql, cat))
    return parse_linker_output(trace.stage1_completion, cat)


@pytest.mark.parametrize("mode", MODES)
def test_trace_link_fields_match_serialized_target(split100, catalogs, oracle_answers, mode):
    split = type(split100)(split100.name, split100.examples[:12], split100.db_root)
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline(mode, split, catalogs, config=cfg(ep), sleep=_no_sleep)
    for trace, ex in zip(traces, split.examples):
        cat = catalogs[ex.db_id]
        joined = "\n".join(
            f"{label}: {', '.join(values)}".rstrip()
            for label, values in (
                ("tables", trace.resolved_tables),
                ("columns", trace.resolved_columns),
            )
        )
        assert joined == serialize_link_target(_expected_target(mode, trace, ex, cat), cat)


def test_trace_link_target_reads_back_written_dts_trace(
    split100, catalogs, oracle_answers, tmp_path
):
    split = type(split100)(split100.name, split100.examples[:12], split100.db_root)
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline(
            "dts",
            split,
            catalogs,
            config=cfg(ep),
            trace_path=tmp_path / "traces.jsonl",
            sleep=_no_sleep,
        )
    rows = read_traces(tmp_path / "traces.jsonl")
    for row, trace, ex in zip(rows, traces, split.examples):
        target = parse_linker_output(trace.stage1_completion, catalogs[ex.db_id])
        assert target.columns
        assert trace_link_target(row) == target


def test_pipeline_isolates_endpoint_failures(split100, catalogs, oracle_answers):
    split = type(split100)(split100.name, split100.examples[:10], split100.db_root)
    failing = {split.examples[3].question, split.examples[7].question}
    script = mockserver.fail_questions(mockserver.scripted_oracle(oracle_answers), failing)
    with MockEndpoint(script) as ep:
        traces = run_pipeline(
            "full", split, catalogs, config=cfg(ep, max_retries=0), sleep=_no_sleep
        )
    assert len(traces) == 10
    summary = run_summary(traces)
    assert summary["n"] == 10
    assert summary["failures"] == 2
    for i, trace in enumerate(traces):
        if i in (3, 7):
            assert trace.error
            assert trace.stage2_completion == "" and trace.extracted_sql == ""
        else:
            assert trace.error is None
            assert trace.extracted_sql == split.examples[i].gold_sql


def test_pipeline_preserves_split_order(split100, catalogs, oracle_answers):
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline(
            "full",
            split100,
            catalogs,
            config=cfg(ep, max_parallel_requests=8),
            sleep=_no_sleep,
        )
    assert [t.example_id for t in traces] == [e.example_id for e in split100.examples]


def test_invalid_mode_rejected(split100, catalogs):
    with pytest.raises(ValueError):
        run_pipeline("both", split100, catalogs, config=None)


def test_trace_io_roundtrip(split100, catalogs, oracle_answers, tmp_path):
    split = type(split100)(split100.name, split100.examples[:4], split100.db_root)
    fixed = iter(range(1000))
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline(
            "dts",
            split,
            catalogs,
            config=cfg(ep),
            trace_path=tmp_path / "traces.jsonl",
            timer=lambda: float(next(fixed)),
            sleep=_no_sleep,
        )
    rows = read_traces(tmp_path / "traces.jsonl")
    assert len(rows) == 4
    assert rows == [trace_dict(t) for t in traces]
    for row in rows:
        assert set(row["wall_ms"]) <= {"stage1_ms", "stage2_ms", "total_ms"}
        json.dumps(row)  # serializable


def test_write_traces_standalone(tmp_path):
    from linksql.orchestrate import TwoStageTrace

    trace = TwoStageTrace(
        example_id="x:0",
        mode="full",
        stage1_prompt=None,
        stage1_completion=None,
        resolved_tables=("venue",),
        resolved_columns=(),
        stage2_prompt="p",
        stage2_completion="c",
        extracted_sql="c",
        wall_ms={"total_ms": 1.0},
    )
    write_traces(tmp_path / "t.jsonl", [trace])
    assert read_traces(tmp_path / "t.jsonl")[0]["example_id"] == "x:0"
