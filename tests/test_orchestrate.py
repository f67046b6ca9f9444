import base64
import contextlib
import dataclasses
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mockserver
from mockserver import MockEndpoint

from linksql.cli import main
from linksql.ingest import Example, Split
from linksql.linker import parse_linker_output
from linksql.orchestrate import (
    MODES,
    EndpointConfig,
    EndpointConnection,
    EndpointError,
    TwoStageTrace,
    complete,
    extract_sql,
    read_traces,
    run_pipeline,
    trace_link_target,
    write_traces,
)
from linksql.promptgen import prompt_parts, serialize_link_target
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


@contextlib.contextmanager
def connected(config):
    """An EndpointConnection for ``config``, closed on the way out."""
    conn = EndpointConnection(config)
    try:
        yield conn
    finally:
        conn.close()


# -- transport -------------------------------------------------------------


def test_complete_success_and_payload_shape():
    with MockEndpoint(mockserver.constant("SELECT 1")) as ep:
        with connected(cfg(ep)) as conn:
            out = complete(conn, "a prompt", system="be terse", sleep=_no_sleep)
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
        with connected(cfg(ep)) as conn:
            complete(conn, "p", sleep=_no_sleep)
        assert [m["role"] for m in ep.requests[0]["payload"]["messages"]] == ["user"]


def test_bearer_token_from_env(monkeypatch):
    monkeypatch.setenv("LINKSQL_API_KEY", "sk-test-123")
    with MockEndpoint(mockserver.constant("ok")) as ep:
        with connected(cfg(ep)) as conn:
            complete(conn, "p", sleep=_no_sleep)
        assert ep.requests[0]["headers"].get("Authorization") == "Bearer sk-test-123"


def test_bearer_token_is_read_once_when_the_connection_opens(monkeypatch):
    monkeypatch.setenv("LINKSQL_API_KEY", "sk-first")
    with MockEndpoint(mockserver.constant("ok")) as ep:
        with connected(cfg(ep)) as conn:
            complete(conn, "p", sleep=_no_sleep)
            monkeypatch.setenv("LINKSQL_API_KEY", "sk-second")
            complete(conn, "p", sleep=_no_sleep)
            monkeypatch.delenv("LINKSQL_API_KEY")
            complete(conn, "p", sleep=_no_sleep)
        assert [r["headers"].get("Authorization") for r in ep.requests] == [
            "Bearer sk-first"
        ] * 3


def test_no_auth_header_without_env(monkeypatch):
    monkeypatch.delenv("LINKSQL_API_KEY", raising=False)
    with MockEndpoint(mockserver.constant("ok")) as ep:
        with connected(cfg(ep)) as conn:
            complete(conn, "p", sleep=_no_sleep)
        assert "Authorization" not in ep.requests[0]["headers"]


def test_retry_on_500_then_success():
    with MockEndpoint(mockserver.fail_first(1, text="recovered")) as ep:
        with connected(cfg(ep)) as conn:
            assert complete(conn, "p", sleep=_no_sleep) == "recovered"
        assert len(ep.requests) == 2


def test_retry_on_429():
    with MockEndpoint(mockserver.fail_first(1, text="ok", status=429)) as ep:
        with connected(cfg(ep)) as conn:
            assert complete(conn, "p", sleep=_no_sleep) == "ok"
        assert len(ep.requests) == 2


def test_retry_exhaustion_raises():
    with MockEndpoint(mockserver.always_status(500, "down")) as ep:
        with pytest.raises(EndpointError):
            with connected(cfg(ep, max_retries=2)) as conn:
                complete(conn, "p", sleep=_no_sleep)
        assert len(ep.requests) == 3  # initial try + 2 retries


def test_client_error_fails_fast():
    with MockEndpoint(mockserver.always_status(404, "missing")) as ep:
        with pytest.raises(EndpointError):
            with connected(cfg(ep, max_retries=3)) as conn:
                complete(conn, "p", sleep=_no_sleep)
        assert len(ep.requests) == 1


def test_malformed_body_retried_then_fails():
    with MockEndpoint(mockserver.malformed_body()) as ep:
        with pytest.raises(EndpointError):
            with connected(cfg(ep, max_retries=1)) as conn:
                complete(conn, "p", sleep=_no_sleep)
        assert len(ep.requests) == 2


def test_body_nested_too_deeply_retried_then_fails():
    # the decoder's RecursionError once escaped as if it were a bug of ours
    deep = "[" * 100000 + "]" * 100000
    with MockEndpoint(mockserver.always_status(200, deep)) as ep:
        with pytest.raises(EndpointError, match="malformed response body"):
            with connected(cfg(ep, max_retries=1)) as conn:
                complete(conn, "p", sleep=_no_sleep)
        assert len(ep.requests) == 2


def test_backoff_doubles():
    waits = []
    with MockEndpoint(mockserver.always_status(500)) as ep:
        with pytest.raises(EndpointError):
            with connected(cfg(ep, max_retries=3, backoff_seconds=0.5)) as conn:
                complete(conn, "p", sleep=waits.append)
    assert waits == [0.5, 1.0, 2.0]


def test_config_validation():
    with pytest.raises(ValueError):
        EndpointConfig(base_url="", model_name="m")
    with pytest.raises(ValueError):
        EndpointConfig(base_url="http://x", model_name="")
    with pytest.raises(ValueError):
        EndpointConfig(base_url="http://x", model_name="m", max_retries=-1)


@pytest.mark.parametrize(
    "base_url",
    ["localhost:8000/v1", "127.0.0.1:8000", "ftp://host/v1", "http:///v1", "http://host:port/v1"],
)
def test_config_rejects_unusable_base_url(base_url):
    with pytest.raises(ValueError):
        EndpointConfig(base_url=base_url, model_name="m")


@pytest.mark.parametrize(
    "base_url", ["http://localhost:8000/v1", "https://api.example.com/v1", "http://[::1]:8000"]
)
def test_config_accepts_http_and_https(base_url):
    assert EndpointConfig(base_url=base_url, model_name="m").base_url == base_url


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--temperature", "nan"),
        ("--temperature", "inf"),
        ("--backoff-seconds", "nan"),
        ("--backoff-seconds", "inf"),
        ("--backoff-seconds", "-1"),
    ],
)
def test_infer_rejects_a_non_finite_temperature_or_backoff(
    fixture_paths, tmp_path, capsys, flag, value
):
    # NaN is not valid JSON and time.sleep(nan) raises in a worker, so the
    # run must stop before it pays for any request
    examples = tmp_path / "dev.json"
    example = {"question": "q", "query": "SELECT count(*) FROM Venue", "db_id": "venue_events"}
    examples.write_text(json.dumps([example]), encoding="utf-8")
    traces = tmp_path / "t.jsonl"
    with MockEndpoint(mockserver.fail_first(1, status=503)) as ep:
        rc = main(
            ["infer",
             "--tables", str(fixture_paths["tables"]),
             "--examples", str(examples),
             "--db-root", str(fixture_paths["db_root_a"]),
             "--mode", "dts",
             "--base-url", ep.base_url,
             "--model", "m",
             flag, value,
             "--out", str(traces)]
        )
    assert rc == 2
    assert f"{flag[2:].replace('-', '_')} must be finite and >= 0" in capsys.readouterr().err
    assert ep.requests == []
    assert not traces.exists()


@pytest.mark.parametrize(
    "status,retry_after,waits",
    [
        (429, "3", [3.0]),
        (503, "3", [3.0]),
        (503, "0", [0.5]),  # never shorter than the backoff
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", [0.5]),  # HTTP-date form ignored
        (503, "soon", [0.5]),
        (503, "-4", [0.5]),
        (500, "3", [0.5]),  # only 429 and 503 carry it
    ],
)
def test_retry_after_waits_at_least_the_header(status, retry_after, waits):
    def script(payload, idx):
        if idx == 0:
            return {"status": status, "body": "busy", "headers": {"Retry-After": retry_after}}
        return {"content": "ok"}

    seen = []
    with MockEndpoint(script) as ep:
        with connected(cfg(ep, backoff_seconds=0.5)) as conn:
            assert complete(conn, "p", sleep=seen.append) == "ok"
    assert seen == waits


def test_redirect_fails_at_once():
    def script(payload, idx):
        return {"status": 302, "body": "", "headers": {"Location": "/elsewhere"}}

    with MockEndpoint(script) as ep:
        with pytest.raises(EndpointError, match="^HTTP 302"):
            with connected(cfg(ep, max_retries=3)) as conn:
                complete(conn, "p", sleep=_no_sleep)
        assert len(ep.requests) == 1


def test_timeout_is_a_retried_transport_error():
    waits = []
    with MockEndpoint(mockserver.slow(1.0)) as ep:
        config = cfg(ep, request_timeout_ms=100, max_retries=1, backoff_seconds=0.5)
        with pytest.raises(EndpointError, match="transport error"):
            with connected(config) as conn:
                complete(conn, "p", sleep=waits.append)
        assert len(ep.requests) == 2
    assert waits == [0.5]


def test_handed_connection_is_reused_and_left_open():
    with MockEndpoint(mockserver.constant("ok")) as ep:
        with connected(cfg(ep)) as conn:
            for _ in range(3):
                assert complete(conn, "p", sleep=_no_sleep) == "ok"
            assert ep.connections == 1
            assert ep.open_connections == 1
        assert ep.wait_closed()


@contextlib.contextmanager
def no_unclosed_sockets():
    """Fails when a socket opened inside is left for the collector to close."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


# -- proxies ---------------------------------------------------------------


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def test_http_proxy_gets_absolute_form_target(no_proxy_env):
    with MockEndpoint(mockserver.constant("ok")) as proxy:
        no_proxy_env.setenv("HTTP_PROXY", proxy.base_url.replace("//", "//us%40r:p%3Ass@"))
        # nothing listens on the target: only the proxy can answer
        config = EndpointConfig(base_url="http://127.0.0.2:9/v1", model_name="m")
        with connected(config) as conn:
            assert complete(conn, "p", sleep=_no_sleep) == "ok"
        (req,) = proxy.requests
    assert req["path"] == "http://127.0.0.2:9/v1/chat/completions"
    assert req["headers"]["Host"] == "127.0.0.2:9"
    token = base64.b64encode(b"us@r:p:ss").decode("ascii")
    assert req["headers"]["Proxy-Authorization"] == f"Basic {token}"


def test_no_proxy_bypasses_the_proxy(no_proxy_env):
    with MockEndpoint(mockserver.constant("proxied")) as proxy, MockEndpoint(
        mockserver.constant("direct")
    ) as ep:
        no_proxy_env.setenv("HTTP_PROXY", proxy.base_url)
        no_proxy_env.setenv("NO_PROXY", "example.org,127.0.0.1")
        with connected(cfg(ep)) as conn:
            assert complete(conn, "p", sleep=_no_sleep) == "direct"
        assert proxy.requests == []
        assert ep.requests[0]["path"] == "/chat/completions"


def test_https_target_goes_through_a_connect_tunnel(no_proxy_env):
    with MockEndpoint(mockserver.constant("ok")) as proxy:
        no_proxy_env.setenv("HTTPS_PROXY", proxy.base_url.replace("//", "//user:secret@"))
        config = EndpointConfig(
            base_url="https://127.0.0.2/v1", model_name="m", max_retries=0
        )
        with pytest.raises(EndpointError, match="transport error"):
            with connected(config) as conn:
                complete(conn, "p", sleep=_no_sleep)
        (req,) = proxy.requests
    assert req["method"] == "CONNECT"
    assert req["path"] == "127.0.0.2:443"
    token = base64.b64encode(b"user:secret").decode("ascii")
    assert req["headers"]["Proxy-Authorization"] == f"Basic {token}"


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
        traces = run_pipeline("full", split, config=cfg(ep), sleep=_no_sleep)
    assert len(traces) == len(split.examples)
    for trace, ex in zip(traces, split.examples):
        assert trace.example_id == ex.example_id
        assert trace.mode == "full"
        assert trace.stage1_prompt is None and trace.stage1_completion is None
        assert not trace.fallback_full_schema
        assert set(trace.resolved_tables) == set(catalogs[ex.db_id].table_names)
        assert trace.resolved_columns == ()
        assert trace.stage2_prompt == "\n\n".join(prompt_parts("full", ex.question, catalogs[ex.db_id]))
        assert trace.extracted_sql == ex.gold_sql
        assert trace.error is None


def test_oracle_link_mode_uses_gold_tables(split100, catalogs, oracle_answers):
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline(
            "oracle_link", split100, config=cfg(ep), sleep=_no_sleep
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


def test_dts_mode_two_stages(split100, oracle_answers):
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline("dts", split100, config=cfg(ep), sleep=_no_sleep)
        n_requests = len(ep.requests)
    assert n_requests == 2 * len(split100.examples)
    for trace, ex in zip(traces, split100.examples):
        assert trace.stage1_prompt is not None
        assert trace.stage1_completion == oracle_answers[ex.question]["link"]
        assert not trace.fallback_full_schema
        assert trace.extracted_sql == ex.gold_sql


def test_dts_prompts_do_not_depend_on_worker_count(split100, catalogs, oracle_answers):
    prompts = {}
    for workers in (1, 4):
        fresh = {db_id: dataclasses.replace(cat) for db_id, cat in catalogs.items()}
        split = Split(
            tuple(dataclasses.replace(ex, catalog=fresh[ex.db_id]) for ex in split100.examples)
        )
        with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
            traces = run_pipeline(
                "dts", split, config=cfg(ep, max_parallel_requests=workers),
                sleep=_no_sleep,
            )
        prompts[workers] = [(t.stage1_prompt, t.stage2_prompt) for t in traces]
    assert prompts[4] == prompts[1]
    assert len(set(prompts[1])) > 1


def test_dts_garbage_linker_falls_back_to_full_schema(split100, catalogs, oracle_answers):
    split = Split(split100.examples[:6])

    def script(payload, idx):
        if mockserver.is_linking_prompt(payload):
            return {"content": "no idea, sorry"}
        return mockserver.scripted_oracle(oracle_answers)(payload, idx)

    with MockEndpoint(script) as ep:
        traces = run_pipeline("dts", split, config=cfg(ep), sleep=_no_sleep)
    for trace, ex in zip(traces, split.examples):
        assert trace.fallback_full_schema
        assert set(trace.resolved_tables) == set(catalogs[ex.db_id].table_names)
        assert trace.stage2_prompt == "\n\n".join(prompt_parts("full", ex.question, catalogs[ex.db_id]))
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
    split = Split((ex,))
    cat = catalogs[ex.db_id]
    with MockEndpoint(mockserver.constant("SELECT 1")) as ep:
        (trace,) = run_pipeline(
            "oracle_link", split, config=cfg(ep), sleep=_no_sleep
        )
    assert trace.fallback_full_schema
    assert trace.error.startswith("gold SQL unusable for linking")
    assert set(trace.resolved_tables) == set(cat.table_names)
    assert trace.resolved_columns == ()
    assert trace.stage2_prompt == "\n\n".join(prompt_parts("full", ex.question, cat))
    assert trace.extracted_sql == "SELECT 1"


def _expected_target(mode, trace, ex, cat):
    if mode == "full":
        return LinkTarget(frozenset(cat.table_names), frozenset())
    if mode == "oracle_link":
        return extract_link_targets(parse_sql(ex.gold_sql, cat))
    return parse_linker_output(trace.stage1_completion, cat)


@pytest.mark.parametrize("mode", MODES)
def test_trace_link_fields_match_serialized_target(split100, catalogs, oracle_answers, mode):
    split = Split(split100.examples[:12])
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline(mode, split, config=cfg(ep), sleep=_no_sleep)
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
    split = Split(split100.examples[:12])
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline(
            "dts",
            split,
            config=cfg(ep),
            trace_path=tmp_path / "traces.jsonl",
            sleep=_no_sleep,
        )
    rows = read_traces(tmp_path / "traces.jsonl", split)
    for row, trace, ex in zip(rows, traces, split.examples):
        target = parse_linker_output(trace.stage1_completion, catalogs[ex.db_id])
        assert target.columns
        assert trace_link_target(row) == target


def test_pipeline_isolates_endpoint_failures(split100, oracle_answers):
    split = Split(split100.examples[:10])
    failing = {split.examples[3].question, split.examples[7].question}
    script = mockserver.fail_questions(mockserver.scripted_oracle(oracle_answers), failing)
    with MockEndpoint(script) as ep:
        traces = run_pipeline(
            "full", split, config=cfg(ep, max_retries=0), sleep=_no_sleep
        )
    assert len(traces) == 10
    for i, trace in enumerate(traces):
        if i in (3, 7):
            assert trace.error
            assert trace.stage2_completion == "" and trace.extracted_sql == ""
        else:
            assert trace.error is None
            assert trace.extracted_sql == split.examples[i].gold_sql


def test_pipeline_retries_null_content_then_records_it(split100, oracle_answers):
    # servers send "content": null for a tool call
    split = Split(split100.examples[:6])
    nulled = split.examples[2].question
    oracle = mockserver.scripted_oracle(oracle_answers)

    def script(payload, idx):
        if mockserver.extract_question(payload) == nulled:
            return {"content": None}
        return oracle(payload, idx)

    with MockEndpoint(script) as ep:
        traces = run_pipeline(
            "full", split, config=cfg(ep, max_retries=1), sleep=_no_sleep
        )
        asked = [r for r in ep.requests if mockserver.extract_question(r["payload"]) == nulled]
    assert len(asked) == 2  # the first try and one retry
    assert [t.example_id for t in traces] == [ex.example_id for ex in split.examples]
    for trace, ex in zip(traces, split.examples):
        if ex.question == nulled:
            assert "malformed response body" in trace.error
            assert trace.stage2_completion == "" and trace.extracted_sql == ""
        else:
            assert trace.error is None
            assert trace.extracted_sql == ex.gold_sql


def test_pipeline_preserves_split_order(split100, oracle_answers):
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline(
            "full",
            split100,
            config=cfg(ep, max_parallel_requests=8),
            sleep=_no_sleep,
        )
    assert [t.example_id for t in traces] == [e.example_id for e in split100.examples]


def test_pipeline_keeps_one_connection_per_worker(split100, oracle_answers):
    split = Split(split100.examples[:24])
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        with no_unclosed_sockets():
            traces = run_pipeline(
                "dts", split, config=cfg(ep, max_parallel_requests=4), sleep=_no_sleep
            )
        assert len(ep.requests) == 48
        assert 1 <= ep.connections <= 4
        assert ep.wait_closed()
    assert all(t.error is None for t in traces)


def test_pipeline_resends_when_the_server_drops_kept_alive_connections(
    split100, oracle_answers
):
    def no_sleep_expected(seconds):
        raise AssertionError(f"slept {seconds} s")

    split = Split(split100.examples[:20])
    script = mockserver.scripted_oracle(oracle_answers)
    with MockEndpoint(script, close_after_response=True) as ep:
        traces = run_pipeline(
            "dts",
            split,
            config=cfg(ep, max_retries=0, max_parallel_requests=2),
            sleep=no_sleep_expected,
        )
        assert ep.connections >= 40
    for trace, ex in zip(traces, split.examples):
        assert trace.error is None
        assert trace.extracted_sql == ex.gold_sql


def test_invalid_mode_rejected(split100):
    with pytest.raises(ValueError):
        run_pipeline("both", split100, config=None)


def test_trace_io_roundtrip(split100, oracle_answers, tmp_path):
    split = Split(split100.examples[:4])
    fixed = iter(range(1000))
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline(
            "dts",
            split,
            config=cfg(ep),
            trace_path=tmp_path / "traces.jsonl",
            timer=lambda: float(next(fixed)),
            sleep=_no_sleep,
        )
    rows = read_traces(tmp_path / "traces.jsonl", split)
    assert len(rows) == 4
    assert [
        TwoStageTrace(**{k: tuple(v) if isinstance(v, list) else v for k, v in row.items()})
        for row in rows
    ] == traces
    for row in rows:
        assert set(row["wall_ms"]) <= {"stage1_ms", "stage2_ms", "total_ms"}
        json.dumps(row)  # serializable


def test_write_traces_standalone(catalogs, tmp_path):
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
    split = Split((Example("x:0", "q", "SELECT 1", catalogs["venue_events"], None),))
    assert read_traces(tmp_path / "t.jsonl", split)[0]["example_id"] == "x:0"


def test_failed_trace_write_keeps_the_earlier_file(tmp_path):
    def trace(i, sql):
        return TwoStageTrace(
            example_id=f"x:{i}",
            mode="full",
            stage1_prompt=None,
            stage1_completion=None,
            resolved_tables=(),
            resolved_columns=(),
            stage2_prompt="p",
            stage2_completion=sql,
            extracted_sql=sql,
            wall_ms={},
        )

    path = tmp_path / "t.jsonl"
    write_traces(path, [trace(0, "SELECT 1")])
    before = path.read_bytes()
    # a lone surrogate has no UTF-8 form: the second line cannot be encoded
    with pytest.raises(UnicodeEncodeError):
        write_traces(path, [trace(0, "SELECT 2"), trace(1, "SELECT '\ud800'")])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.jsonl"]


def test_read_traces_returns_rows_in_split_order(catalogs, tmp_path):
    cat = catalogs["venue_events"]
    examples = tuple(Example(f"x:{i}", "q", "SELECT 1", cat, None) for i in range(3))
    split = Split(examples)
    path = tmp_path / "t.jsonl"
    path.write_text(
        "".join(
            json.dumps({"example_id": f"x:{i}", "mode": "full", "extracted_sql": ""}) + "\n"
            for i in (2, 0, 1)
        ),
        encoding="utf-8",
    )
    assert [row["example_id"] for row in read_traces(path, split)] == ["x:0", "x:1", "x:2"]


# -- dependencies ----------------------------------------------------------


def test_package_imports_without_requests():
    code = (
        "import sys\n"
        "sys.modules['requests'] = None\n"
        "import importlib, pkgutil, linksql\n"
        "for m in pkgutil.walk_packages(linksql.__path__, 'linksql.'):\n"
        "    importlib.import_module(m.name)\n"
        "print('ok')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
