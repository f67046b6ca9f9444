import json
import socket

import pytest

import mockserver
from mockserver import MockEndpoint

from linksql.cli import build_parser, main
from linksql.ingest import db_file_for, load_split
from linksql.orchestrate import EndpointConfig, read_traces


@pytest.fixture
def split_file(split100, tmp_path):
    path = tmp_path / "examples.json"
    records = [
        {"question": e.question, "query": e.gold_sql, "db_id": e.db_id}
        for e in split100.examples
    ]
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


def data_args(fixture_paths, split_file):
    return [
        "--tables", str(fixture_paths["tables"]),
        "--examples", str(split_file),
        "--db-root", str(fixture_paths["db_root_a"]),
    ]


def _venue_examples(path, n, golds=None):
    """An examples file of ``n`` venue_events questions, with the given gold
    queries or else each with the same one."""
    golds = golds or ["SELECT Name FROM Venue"] * n
    path.write_text(
        json.dumps(
            [{"question": f"q{i}", "query": gold, "db_id": "venue_events"}
             for i, gold in enumerate(golds)]
        ),
        encoding="utf-8",
    )
    return path


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["prepare", "--stage", "full"])
    assert exc.value.code == 1


def test_bad_choice_is_usage_error(fixture_paths, split_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(
            ["prepare", *data_args(fixture_paths, split_file),
             "--stage", "bogus", "--out", str(tmp_path / "x.jsonl")]
        )
    assert exc.value.code == 1


def test_infra_error_exit_2(tmp_path, capsys):
    rc = main(
        ["prepare",
         "--tables", str(tmp_path / "missing.json"),
         "--examples", str(tmp_path / "missing2.json"),
         "--db-root", str(tmp_path),
         "--stage", "full",
         "--out", str(tmp_path / "out.jsonl")]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_table_without_columns_exit_2(tmp_path, capsys):
    # used to escape render_table as an IndexError traceback (exit 1)
    tables = tmp_path / "tables.json"
    tables.write_text(
        json.dumps([{
            "db_id": "hollow",
            "table_names_original": ["T", "Empty"],
            "column_names_original": [[-1, "*"], [0, "A"]],
            "column_types": ["text", "text"],
        }]),
        encoding="utf-8",
    )
    examples = tmp_path / "examples.json"
    examples.write_text(
        json.dumps([{"question": "a?", "query": "SELECT A FROM T", "db_id": "hollow"}]),
        encoding="utf-8",
    )
    rc = main(
        ["prepare", "--tables", str(tables), "--examples", str(examples),
         "--db-root", str(tmp_path), "--stage", "full", "--out", str(tmp_path / "out.jsonl")]
    )
    assert rc == 2
    assert "db 'hollow': table 'Empty' has no columns" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["prepare", "infer", "eval"])
def test_a_db_id_listed_twice_exit_2(fixture_paths, tmp_path, capsys, command):
    # the second venue_events entry once silently replaced the first
    entries = json.loads(fixture_paths["tables"].read_text(encoding="utf-8"))
    venue = next(e for e in entries if e["db_id"] == "venue_events")
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps(entries + [venue]), encoding="utf-8")
    examples = _venue_examples(tmp_path / "dev.json", 1)
    out = str(tmp_path / "out")
    extra = {
        "prepare": ["--stage", "full", "--out", out],
        "infer": ["--mode", "full", "--base-url", "http://127.0.0.1:9", "--model", "m",
                  "--out", out],
        "eval": ["--traces", out, "--out-dir", out],
    }[command]
    rc = main(
        [command, "--tables", str(tables), "--examples", str(examples),
         "--db-root", str(fixture_paths["db_root_a"]), *extra]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {tables}: db 'venue_events': a second entry for this db_id\n"
    )


def test_prepare_writes_dataset(fixture_paths, split_file, tmp_path, capsys):
    out = tmp_path / "gen.jsonl"
    rc = main(
        ["prepare", *data_args(fixture_paths, split_file),
         "--stage", "gen", "--out", str(out)]
    )
    assert rc == 0
    assert out.is_file()
    manifest = json.loads((tmp_path / "gen.jsonl.manifest.json").read_text())
    assert manifest["count"] == 100
    stdout = capsys.readouterr().out
    assert "wrote 100 records" in stdout
    assert manifest["sha256"] in stdout


def test_prepare_with_samples_zero(fixture_paths, split_file, tmp_path):
    out = tmp_path / "full.jsonl"
    rc = main(
        ["prepare", *data_args(fixture_paths, split_file),
         "--stage", "full", "--out", str(out), "--with-samples", "0"]
    )
    assert rc == 0
    first = json.loads(out.read_text().splitlines()[0])
    assert "Sample rows from" in first["prompt"]  # comment frame stays
    assert "\t1\t" not in first["prompt"].split("/*", 1)[1].split("*/", 1)[0]


def test_prepare_sample_rows_in_prompts(fixture_paths, split_file, tmp_path):
    out = tmp_path / "full.jsonl"
    main(
        ["prepare", *data_args(fixture_paths, split_file),
         "--stage", "full", "--out", str(out), "--with-samples", "2"]
    )
    first = json.loads(out.read_text().splitlines()[0])
    comment = first["prompt"].split("/*", 1)[1]
    assert "Sample rows from" in first["prompt"]
    assert "\t" in comment


def test_prepare_on_a_database_file_that_is_not_sqlite_exit_2(
    fixture_paths, corrupt_retail_root, tmp_path, capsys
):
    # used to escape attach_samples as a sqlite3.DatabaseError traceback (exit 1)
    examples = tmp_path / "retail.json"
    examples.write_text(
        json.dumps([{"question": "q", "query": "SELECT 1", "db_id": "retail"}]), encoding="utf-8"
    )
    rc = main(
        ["prepare", "--tables", str(fixture_paths["tables"]), "--examples", str(examples),
         "--db-root", str(corrupt_retail_root), "--with-samples", "2",
         "--stage", "full", "--out", str(tmp_path / "full.jsonl")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert f"cannot read database file {db_file_for(corrupt_retail_root, 'retail')}" in err
    assert "file is not a database" in err


def test_eval_on_a_database_file_that_is_not_sqlite_exit_2(
    fixture_paths, corrupt_retail_root, tmp_path, capsys
):
    # used to list the retail example as invalid gold, score the other alone and exit 0
    examples = tmp_path / "dev.json"
    examples.write_text(
        json.dumps(
            [{"question": "q0", "query": "SELECT Name FROM Venue", "db_id": "venue_events"},
             {"question": "q1", "query": "SELECT count(*) FROM Customer", "db_id": "retail"}]
        ),
        encoding="utf-8",
    )
    traces = tmp_path / "traces.jsonl"
    traces.write_text(
        "".join(json.dumps(_trace(i, "full")) + "\n" for i in range(2)), encoding="utf-8"
    )
    out_dir = tmp_path / "scores"
    rc = main(
        ["eval", "--tables", str(fixture_paths["tables"]), "--examples", str(examples),
         "--db-root", str(corrupt_retail_root), "--traces", str(traces),
         "--out-dir", str(out_dir)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    retail = db_file_for(corrupt_retail_root, "retail")
    assert f"cannot read database file {retail}: file is not a database" in err
    assert not out_dir.exists()


def test_infer_defaults_are_the_endpoint_config_defaults():
    args = build_parser().parse_args(
        ["infer", "--tables", "t", "--examples", "e", "--db-root", "d", "--mode", "dts",
         "--base-url", "http://127.0.0.1:1/v1", "--model", "m", "--out", "o"]
    )
    config = EndpointConfig(
        base_url=args.base_url,
        model_name=args.model,
        temperature=args.temperature,
        max_output_tokens=args.max_output_tokens,
        request_timeout_ms=args.request_timeout_ms,
        max_parallel_requests=args.max_parallel,
        max_retries=args.max_retries,
        backoff_seconds=args.backoff_seconds,
    )
    assert config == EndpointConfig("http://127.0.0.1:1/v1", "m")


def test_infer_exit_2_when_every_example_failed(fixture_paths, split100, tmp_path, capsys):
    examples = tmp_path / "dev.json"
    examples.write_text(
        json.dumps(
            [{"question": e.question, "query": e.gold_sql, "db_id": e.db_id}
             for e in split100.examples[:3]]
        ),
        encoding="utf-8",
    )
    with socket.socket() as sock:  # a port nothing listens on once it is closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    traces = tmp_path / "traces.jsonl"
    rc = main(
        ["infer", *data_args(fixture_paths, examples),
         "--mode", "dts", "--base-url", f"http://127.0.0.1:{port}/v1", "--model", "m",
         "--out", str(traces), "--max-retries", "0"]
    )
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == f"traced 3 examples to {traces} (3 failures)\n"
    assert err.startswith("error: every example failed at the endpoint (first: stage1: ")
    assert len(traces.read_text(encoding="utf-8").splitlines()) == 3


def test_infer_traces_a_body_nested_too_deeply_as_an_error(fixture_paths, tmp_path, capsys):
    # once a RecursionError out of main, after the request was paid for
    examples = _venue_examples(tmp_path / "dev.json", 1)
    traces = tmp_path / "traces.jsonl"
    with MockEndpoint(mockserver.always_status(200, "[" * 100000 + "]" * 100000)) as ep:
        rc = main(
            ["infer", *data_args(fixture_paths, examples),
             "--mode", "full", "--base-url", ep.base_url, "--model", "m",
             "--out", str(traces), "--max-retries", "0"]
        )
    assert rc == 2
    assert "every example failed at the endpoint" in capsys.readouterr().err
    (row,) = [json.loads(line) for line in traces.read_text(encoding="utf-8").splitlines()]
    assert "malformed response body" in row["error"] and row["extracted_sql"] == ""


def test_infer_eval_report_flow(fixture_paths, split_file, oracle_answers, tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        rc = main(
            ["infer", *data_args(fixture_paths, split_file),
             "--mode", "oracle-link",
             "--base-url", ep.base_url,
             "--model", "mock-model",
             "--out", str(traces),
             "--max-parallel", "8"]
        )
    assert rc == 0
    assert capsys.readouterr().out == f"traced 100 examples to {traces} (0 failures)\n"
    assert traces.is_file()

    out_dir = tmp_path / "scores"
    rc = main(
        ["eval", *data_args(fixture_paths, split_file),
         "--traces", str(traces),
         "--metrics", "ex,em,link",
         "--model-label", "mock-model",
         "--out-dir", str(out_dir)]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "mock-model" in stdout
    report = json.loads((out_dir / "report.json").read_text())
    assert report["n"] == 100
    assert report["ex_accuracy"] == 1.0
    assert report["em_accuracy"] == 1.0
    assert (out_dir / "verdicts.jsonl").is_file()
    assert len((out_dir / "verdicts.jsonl").read_text().splitlines()) == 100
    assert (out_dir / "report.txt").is_file()

    rc = main(["report", "--report", str(out_dir / "report.json")])
    assert rc == 0
    assert "oracle-link" in capsys.readouterr().out


def test_infer_rejects_base_url_without_scheme(fixture_paths, split_file, tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    rc = main(
        ["infer", *data_args(fixture_paths, split_file),
         "--mode", "dts",
         "--base-url", "localhost:8000/v1",
         "--model", "m",
         "--out", str(traces)]
    )
    assert rc == 2
    assert "base_url" in capsys.readouterr().err
    assert not traces.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [("--request-timeout-ms", "-5", "request_timeout_ms must be > 0"),
     ("--max-output-tokens", "0", "max_output_tokens must be >= 1")],
)
def test_infer_rejects_a_limit_below_one(
    fixture_paths, split_file, tmp_path, capsys, flag, value, message
):
    traces = tmp_path / "traces.jsonl"
    rc = main(
        ["infer", *data_args(fixture_paths, split_file),
         "--mode", "dts",
         "--base-url", "http://127.0.0.1:9/v1",
         "--model", "m",
         flag, value,
         "--out", str(traces)]
    )
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not traces.exists()


def test_eval_rejects_a_timeout_below_one(fixture_paths, tmp_path, capsys):
    # SQLite checks the deadline once per 1000 steps, so a timeout of zero
    # or less used to pass small queries and time out large ones
    examples = tmp_path / "dev.json"
    examples.write_text(
        json.dumps(
            [{"question": "q", "query": "SELECT Name FROM Venue", "db_id": "venue_events"}]
        ),
        encoding="utf-8",
    )
    traces = tmp_path / "traces.jsonl"
    traces.write_text(json.dumps(_trace(0)) + "\n", encoding="utf-8")
    out_dir = tmp_path / "scores"
    rc = main(
        ["eval", *data_args(fixture_paths, examples),
         "--traces", str(traces),
         "--timeout-ms", "-5",
         "--out-dir", str(out_dir)]
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: timeout_ms must be > 0, got -5\n"
    assert not out_dir.exists()


def test_eval_rejects_unknown_metric(fixture_paths, split_file, tmp_path):
    rc = main(
        ["eval", *data_args(fixture_paths, split_file),
         "--traces", str(tmp_path / "none.jsonl"),
         "--metrics", "ex,bleu",
         "--out-dir", str(tmp_path / "scores")]
    )
    assert rc == 2


def test_infer_custom_template(fixture_paths, split_file, tmp_path):
    gen = tmp_path / "gen.txt"
    gen.write_text("CUSTOM {schema} Q {question}", encoding="utf-8")
    traces = tmp_path / "traces.jsonl"
    with MockEndpoint(mockserver.constant("SELECT 1")) as ep:
        rc = main(
            ["infer", *data_args(fixture_paths, split_file),
             "--mode", "full",
             "--base-url", ep.base_url,
             "--model", "m",
             "--generation-template", str(gen),
             "--out", str(traces)]
        )
    assert rc == 0
    first = json.loads(traces.read_text().splitlines()[0])
    assert "CUSTOM CREATE TABLE" in first["stage2_prompt"]


def test_eval_scores_predictions_outside_the_dialect(fixture_paths, tmp_path, capsys):
    # a non-decimal digit and over-deep nesting each once aborted the whole run
    preds = [
        "SELECT Name FROM Venue",
        "SELECT ² FROM Venue",
        "SELECT Name FROM Venue WHERE " + "(" * 2000 + "Capacity > 1" + ")" * 2000,
    ]
    examples = _venue_examples(tmp_path / "dev.json", len(preds))
    traces = tmp_path / "traces.jsonl"
    traces.write_text(
        "".join(
            json.dumps({"example_id": f"dev:{i}", "mode": "full", "extracted_sql": p}) + "\n"
            for i, p in enumerate(preds)
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "scores"
    rc = main(
        ["eval", *data_args(fixture_paths, examples),
         "--traces", str(traces),
         "--metrics", "ex,em",
         "--out-dir", str(out_dir)]
    )
    assert rc == 0, capsys.readouterr().err
    verdicts = [json.loads(line) for line in (out_dir / "verdicts.jsonl").read_text().splitlines()]
    assert [v["exact_match"] for v in verdicts] == [True, False, False]
    # SQLite rejects both too, and the execution side names the failure
    assert [v["failure_kind"] for v in verdicts] == [None, "pred_exec_error", "pred_exec_error"]
    assert json.loads((out_dir / "report.json").read_text())["n"] == 3


# Parsed, a sum is one node however long; SQLite refuses this one as deeper
# than its expression limit. Exact match and link extraction once walked it
# as a chain of 5000 nested nodes and overflowed the stack.
_LONG_SUM = "SELECT " + "+".join(["Capacity"] * 5000) + " FROM Venue"


def _eval_venue(fixture_paths, tmp_path, golds, preds):
    """Run eval with links over venue_events examples; return the exit code,
    the (exact, execution, failure kind) of each verdict and the report."""
    examples = _venue_examples(tmp_path / "dev.json", len(golds), golds)
    traces = tmp_path / "traces.jsonl"
    traces.write_text(
        "".join(json.dumps(_trace(i, "full", p)) + "\n" for i, p in enumerate(preds)),
        encoding="utf-8",
    )
    out_dir = tmp_path / "scores"
    rc = main(
        ["eval", *data_args(fixture_paths, examples),
         "--traces", str(traces), "--metrics", "ex,em,link", "--out-dir", str(out_dir)]
    )
    verdicts = [json.loads(line) for line in (out_dir / "verdicts.jsonl").read_text().splitlines()]
    outcomes = [(v["exact_match"], v["execution_match"], v["failure_kind"]) for v in verdicts]
    return rc, outcomes, json.loads((out_dir / "report.json").read_text())


def test_eval_scores_a_long_predicted_sum(fixture_paths, tmp_path, capsys):
    preds = ["SELECT Name FROM Venue", _LONG_SUM, "SELECT City FROM Venue"]
    rc, outcomes, report = _eval_venue(fixture_paths, tmp_path, [preds[0]] * 3, preds)
    assert rc == 0, capsys.readouterr().err
    assert outcomes == [
        (True, True, None), (False, False, "pred_exec_error"), (False, False, "result_mismatch")
    ]
    assert report["n"] == 3 and report["invalid_gold"] == []


def test_eval_counts_a_long_gold_sum_as_invalid_gold(fixture_paths, tmp_path, capsys):
    golds = ["SELECT Name FROM Venue", _LONG_SUM]
    preds = ["SELECT Name FROM Venue", "SELECT Capacity FROM Venue"]
    rc, outcomes, report = _eval_venue(fixture_paths, tmp_path, golds, preds)
    assert rc == 0, capsys.readouterr().err
    assert outcomes == [(True, True, None)]
    assert report["n"] == 1 and report["invalid_gold"] == ["dev:1"]


def test_prepare_gen_writes_the_record_of_a_long_gold_sum(fixture_paths, tmp_path, capsys):
    examples = _venue_examples(tmp_path / "dev.json", 1, [_LONG_SUM])
    out = tmp_path / "gen.jsonl"
    rc = main(["prepare", *data_args(fixture_paths, examples), "--stage", "gen", "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    (record,) = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert record["completion"] == _LONG_SUM
    assert 'CREATE TABLE "Venue"' in record["prompt"] and '"Event"' not in record["prompt"]


_PARENTHESIZED_LEFT = "SELECT Name FROM Venue WHERE (Capacity + 1) > 3"


def test_eval_scores_a_gold_whose_left_operand_is_parenthesized(fixture_paths, tmp_path, capsys):
    # such a gold was quarantined as outside the dialect, and eval exited 2
    preds = ["SELECT Name FROM Venue WHERE Capacity + 1 > 3"]
    rc, outcomes, report = _eval_venue(fixture_paths, tmp_path, [_PARENTHESIZED_LEFT], preds)
    assert rc == 0, capsys.readouterr().err
    assert outcomes == [(True, True, None)]
    assert report["n"] == 1 and report["quarantined"] == []


def test_prepare_gen_writes_the_record_of_a_parenthesized_left_operand(
    fixture_paths, tmp_path, capsys
):
    examples = _venue_examples(tmp_path / "dev.json", 1, [_PARENTHESIZED_LEFT])
    out = tmp_path / "gen.jsonl"
    rc = main(["prepare", *data_args(fixture_paths, examples), "--stage", "gen", "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    (record,) = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert record["completion"] == _PARENTHESIZED_LEFT


def test_infer_oracle_link_traces_a_long_gold_sum(fixture_paths, tmp_path, capsys):
    examples = _venue_examples(tmp_path / "dev.json", 1, [_LONG_SUM])
    traces = tmp_path / "traces.jsonl"
    with MockEndpoint(mockserver.constant("SELECT Name FROM Venue")) as ep:
        rc = main(
            ["infer", *data_args(fixture_paths, examples),
             "--mode", "oracle-link", "--base-url", ep.base_url, "--model", "m",
             "--out", str(traces)]
        )
    assert rc == 0, capsys.readouterr().err
    (row,) = [json.loads(line) for line in traces.read_text(encoding="utf-8").splitlines()]
    assert row["error"] is None and row["extracted_sql"] == "SELECT Name FROM Venue"
    assert row["resolved_tables"] == ["venue"] and row["resolved_columns"] == ["venue.capacity"]


def test_eval_scores_a_prediction_without_utf8_form(fixture_paths, tmp_path, capsys):
    # a lone surrogate, as a JSON escape can spell it, once ended the whole run
    preds = ["SELECT Name FROM Venue", "SELECT '\ud800'"]
    examples = _venue_examples(tmp_path / "dev.json", len(preds))
    traces = tmp_path / "traces.jsonl"
    traces.write_text(
        "".join(json.dumps(_trace(i, "full", p)) + "\n" for i, p in enumerate(preds)),
        encoding="utf-8",
    )
    out_dir = tmp_path / "scores"
    rc = main(
        ["eval", *data_args(fixture_paths, examples),
         "--traces", str(traces),
         "--out-dir", str(out_dir)]
    )
    assert rc == 0, capsys.readouterr().err
    verdicts = [json.loads(line) for line in (out_dir / "verdicts.jsonl").read_text().splitlines()]
    assert [v["failure_kind"] for v in verdicts] == [None, "pred_exec_error"]


def test_infer_replaces_lone_surrogates_in_an_answer(fixture_paths, catalogs, tmp_path, capsys):
    examples = _venue_examples(tmp_path / "dev.json", 2)
    traces = tmp_path / "traces.jsonl"
    with MockEndpoint(mockserver.constant("SELECT '\ud800'")) as ep:
        rc = main(
            ["infer", *data_args(fixture_paths, examples),
             "--mode", "full", "--base-url", ep.base_url, "--model", "m",
             "--out", str(traces)]
        )
    assert rc == 0, capsys.readouterr().err
    split = load_split(examples, catalogs, fixture_paths["db_root_a"])
    rows = read_traces(traces, split)
    assert [row["extracted_sql"] for row in rows] == ["SELECT '\ufffd'"] * 2


def _surrogate_examples(path):
    """A good venue_events record, then one whose question holds a lone surrogate."""
    good = {"question": "q0", "query": "SELECT Name FROM Venue", "db_id": "venue_events"}
    path.write_text(json.dumps([good, {**good, "question": "half \ud800?"}]), encoding="utf-8")
    return path


def test_infer_rejects_a_question_without_utf8_form_before_any_request(
    fixture_paths, tmp_path, capsys
):
    examples = _surrogate_examples(tmp_path / "dev.json")
    traces = tmp_path / "traces.jsonl"
    with MockEndpoint(mockserver.constant("SELECT 1")) as ep:
        rc = main(
            ["infer", *data_args(fixture_paths, examples),
             "--mode", "dts", "--base-url", ep.base_url, "--model", "m",
             "--out", str(traces)]
        )
    assert rc == 2
    assert "record 1: 'question' has no UTF-8 form" in capsys.readouterr().err
    assert ep.requests == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dev.json"]


def test_prepare_rejects_a_question_without_utf8_form_before_writing(
    fixture_paths, tmp_path, capsys
):
    examples = _surrogate_examples(tmp_path / "dev.json")
    for stage in ("full", "link", "gen"):
        rc = main(
            ["prepare", *data_args(fixture_paths, examples),
             "--stage", stage, "--out", str(tmp_path / f"{stage}.jsonl")]
        )
        assert rc == 2
        assert "record 1: 'question' has no UTF-8 form" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dev.json"]


def _trace(i, mode="dts", sql="SELECT Name FROM Venue"):
    return {"example_id": f"dev:{i}", "mode": mode, "extracted_sql": sql}


@pytest.mark.parametrize(
    "rows, message",
    [
        # the last of two rows for one example used to win silently
        ([_trace(0), _trace(1), _trace(0, sql="SELECT City FROM Venue")],
         ":3: a second trace for dev:0"),
        # the report used to take the first row's mode
        ([_trace(0), _trace(1, "full")],
         ":2: mode 'full' differs from the first row's 'dts'"),
        # ... and a row without one used to count as dts
        ([{"example_id": "dev:0", "extracted_sql": ""}, _trace(1)],
         ":1: mode None is not one of full, dts, oracle_link"),
        # rows for examples the split lacks used to be ignored, then were
        # reported after the whole file was read, without their line
        ([_trace(0), _trace(1), _trace(7)], ":3: a trace for dev:7, which the split lacks"),
        ([_trace(0), _trace(7)], ":2: a trace for dev:7, which the split lacks"),
        ([_trace(0)], ": no trace for 1 examples (first: dev:1)"),
        ([], ": no traces found"),
        # these used to escape as a KeyError and a TypeError traceback
        ([_trace(0), {"mode": "dts", "extracted_sql": ""}],
         ":2: not a trace object with a string example_id"),
        ([[1, 2], _trace(0)], ":1: not a trace object with a string example_id"),
        # a row cut short used to be reported without its file or line
        ([_trace(0), '{"example_id": "dev:1"'],
         ":2: Expecting ',' delimiter: line 1 column 23 (char 22)"),
        # these used to escape as TypeError tracebacks from scoring
        ([_trace(0), _trace(1, sql=None)], ":2: extracted_sql is missing or not a string"),
        ([_trace(0, sql=7), _trace(1)], ":1: extracted_sql is missing or not a string"),
        ([{"example_id": "dev:0", "mode": "dts"}, _trace(1)],
         ":1: extracted_sql is missing or not a string"),
        ([_trace(0), {**_trace(1), "resolved_columns": ["venue.name", 3]}],
         ":2: resolved_columns is not a list of strings"),
        ([{**_trace(0), "resolved_tables": "venue"}, _trace(1)],
         ":1: resolved_tables is not a list of strings"),
        # an entry without a table used to be dropped, and ".x" to name table ""
        ([_trace(0), {**_trace(1), "resolved_columns": ["title", "venue.name"]}],
         ":2: 'title' in resolved_columns is not table.column"),
        ([{**_trace(0), "resolved_columns": [".x"]}, _trace(1)],
         ":1: '.x' in resolved_columns is not table.column"),
        ([{**_trace(0), "resolved_columns": ["venue."]}, _trace(1)],
         ":1: 'venue.' in resolved_columns is not table.column"),
    ],
    ids=[
        "duplicate", "mixed-modes", "no-mode", "extra-id", "extra-and-missing", "missing-id",
        "empty-file", "no-example-id", "not-an-object", "not-json", "null-sql", "number-sql",
        "no-sql", "number-column", "tables-not-a-list", "column-without-table",
        "column-with-empty-table", "column-with-empty-name",
    ],
)
def test_eval_rejects_traces_it_cannot_attach(fixture_paths, tmp_path, capsys, rows, message):
    examples = _venue_examples(tmp_path / "dev.json", 2)
    traces = tmp_path / "traces.jsonl"
    traces.write_text(
        "".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in rows),
        encoding="utf-8",
    )
    out_dir = tmp_path / "scores"
    rc = main(
        ["eval", *data_args(fixture_paths, examples),
         "--traces", str(traces),
         "--out-dir", str(out_dir)]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: {traces}{message}\n"
    assert not out_dir.exists()


def test_output_files_key_order(fixture_paths, split100, oracle_answers, tmp_path, capsys):
    # each record's declaration order is the file format; these are the keys
    # eval and infer have always written
    examples = tmp_path / "dev.json"
    examples.write_text(
        json.dumps(
            [{"question": e.question, "query": e.gold_sql, "db_id": e.db_id}
             for e in split100.examples[:6]]
        ),
        encoding="utf-8",
    )
    traces = tmp_path / "traces.jsonl"
    failing = {split100.examples[2].question}
    script = mockserver.fail_questions(mockserver.scripted_oracle(oracle_answers), failing)
    with MockEndpoint(script) as ep:
        rc = main(
            ["infer", *data_args(fixture_paths, examples),
             "--mode", "dts", "--base-url", ep.base_url, "--model", "m", "--out", str(traces),
             "--max-retries", "0"]
        )
    assert rc == 0
    assert capsys.readouterr().out == f"traced 6 examples to {traces} (1 failures)\n"
    for row in map(json.loads, traces.read_text(encoding="utf-8").splitlines()):
        assert list(row) == [
            "example_id", "mode", "stage1_prompt", "stage1_completion", "resolved_tables",
            "resolved_columns", "stage2_prompt", "stage2_completion", "extracted_sql",
            "wall_ms", "fallback_full_schema", "error",
        ]

    report_keys = [
        "mode", "model", "n", "ex_accuracy", "em_accuracy", "quarantined", "invalid_gold",
        "skipped_no_database",
    ]
    verdict_keys = ["example_id", "exact_match", "execution_match", "failure_kind", "timings"]
    for metrics, linking_keys in (
        ("ex,em", []),
        ("ex,em,link", ["linking"]),
    ):
        out_dir = tmp_path / metrics
        rc = main(
            ["eval", *data_args(fixture_paths, examples),
             "--traces", str(traces), "--metrics", metrics, "--out-dir", str(out_dir)]
        )
        assert rc == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert list(report) == report_keys + linking_keys
        if linking_keys:
            assert list(report["linking"]) == [
                "n", "precision", "recall", "exact_match_rate", "tables", "columns",
            ]
        rows = (out_dir / "verdicts.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(rows) == report["n"]
        for verdict in map(json.loads, rows):
            assert list(verdict) == verdict_keys
            assert list(verdict["timings"]) == ["match_ms", "execution_ms"]


_VERDICT = {
    "example_id": "dev:0", "exact_match": True, "execution_match": True,
    "failure_kind": None, "timings": {"match_ms": 0.1, "execution_ms": 0.2},
}
_REPORT = {
    "mode": "dts", "model": None, "n": 1, "ex_accuracy": 1.0, "em_accuracy": 1.0,
    "quarantined": [], "invalid_gold": [], "skipped_no_database": [],
}


def test_report_prints_a_stored_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_REPORT), encoding="utf-8")
    assert main(["report", "--report", str(path)]) == 0
    assert "two-stage  100.0  100.0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "data, fragment",
    [
        # these used to escape as a KeyError and an AttributeError traceback
        ({}, "'mode'"),
        ([], "'list'"),
        # these used to be read with silent defaults and ignored
        ({**_REPORT, "suite_ex_accuracy": 1.0}, "'suite_ex_accuracy'"),
        # verdicts.jsonl alone holds the verdicts
        ({**_REPORT, "verdicts": [_VERDICT]}, "'verdicts'"),
    ],
    ids=["empty-object", "array", "unknown-key", "older-report-with-verdicts"],
)
def test_report_rejects_a_file_eval_did_not_write(tmp_path, capsys, data, fragment):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", "--report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a report eval wrote: ")
    assert fragment in err
