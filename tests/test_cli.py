import json

import pytest

import mockserver
from mockserver import MockEndpoint

from linksql.cli import main


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
    examples = tmp_path / "dev.json"
    examples.write_text(
        json.dumps(
            [{"question": f"q{i}", "query": "SELECT Name FROM Venue", "db_id": "venue_events"}
             for i in range(len(preds))]
        ),
        encoding="utf-8",
    )
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
    examples = tmp_path / "dev.json"
    examples.write_text(
        json.dumps(
            [{"question": f"q{i}", "query": "SELECT Name FROM Venue", "db_id": "venue_events"}
             for i in range(2)]
        ),
        encoding="utf-8",
    )
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
        "skipped_no_database", "verdicts",
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
        for verdict in [*map(json.loads, rows), *report["verdicts"]]:
            assert list(verdict) == verdict_keys
            assert list(verdict["timings"]) == ["match_ms", "execution_ms"]


_VERDICT = {
    "example_id": "dev:0", "exact_match": True, "execution_match": True,
    "failure_kind": None, "timings": {"match_ms": 0.1, "execution_ms": 0.2},
}
_REPORT = {
    "mode": "dts", "model": None, "n": 1, "ex_accuracy": 1.0, "em_accuracy": 1.0,
    "quarantined": [], "invalid_gold": [], "skipped_no_database": [], "verdicts": [_VERDICT],
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
        ({**_REPORT, "verdicts": [{k: v for k, v in _VERDICT.items() if k != "timings"}]},
         "'timings'"),
        ({**_REPORT, "suite_ex_accuracy": 1.0}, "'suite_ex_accuracy'"),
    ],
    ids=["empty-object", "array", "verdict-without-timings", "unknown-key"],
)
def test_report_rejects_a_file_eval_did_not_write(tmp_path, capsys, data, fragment):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", "--report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a report eval wrote: ")
    assert fragment in err
