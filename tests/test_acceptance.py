"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test prints `[PASS]`/`[FAIL] criterion N: ...` through the capture
bypass so the line is visible in normal pytest output, then asserts.
"""

import json
import random
import time
from pathlib import Path

import mockserver
from mockserver import MockEndpoint

from fixturedb import SCHEMAS
from querygen import make_corpus

from linksql.cli import main
from linksql.evalx import ConnectionSet, evaluate_pair, evaluate_split
from linksql.ingest import db_file_for, load_split
from linksql.linker import score_linking
from linksql.orchestrate import EndpointConfig, read_traces, run_pipeline
from linksql.promptgen import emit_sft_dataset
from linksql.sqlast import (
    LinkTarget,
    exact_set_match,
    extract_link_targets,
    parse_sql,
)


def _verdict(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _config(endpoint, **kw):
    defaults = dict(
        base_url=endpoint.base_url,
        model_name="mock",
        max_parallel_requests=8,
        max_retries=0,
        backoff_seconds=0.0,
    )
    defaults.update(kw)
    return EndpointConfig(**defaults)


def test_criterion_1_extraction_oracle(catalogs, corpus, capsys):
    start = time.monotonic()
    mismatches = 0
    for q in corpus:
        target = extract_link_targets(parse_sql(q.sql, catalogs[q.db_id]))
        if set(target.tables) != set(q.tables) or set(target.columns) != set(q.columns):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = (
        len(corpus) >= 1000
        and len({q.db_id for q in corpus}) >= 3
        and mismatches == 0
        and elapsed < 30
    )
    _verdict(
        capsys,
        1,
        f"extraction matches construction ground truth on {len(corpus)} queries"
        f" across {len({q.db_id for q in corpus})} schemas"
        f" ({mismatches} mismatches, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_em_implies_ex(catalogs, corpus, fixture_paths, capsys):
    start = time.monotonic()
    em_false = violations = checks = 0
    with ConnectionSet() as conns:
        for q in corpus:
            cat = catalogs[q.db_id]
            gold_ast = parse_sql(q.sql, cat)
            for root in (fixture_paths["db_root_a"], fixture_paths["db_root_b"]):
                db = db_file_for(root, q.db_id)
                v = evaluate_pair(q.question, q.twin_sql, q.sql, gold_ast, cat, db, conns)
                if not v.exact_match:
                    em_false += 1
                    continue
                if not v.execution_match:
                    violations += 1
                checks += 1
    elapsed = time.monotonic() - start
    ok = (
        em_false == 0
        and violations == 0
        and {q.db_id for q in corpus} == set(SCHEMAS)
        and elapsed < 60
    )
    _verdict(
        capsys,
        2,
        f"value-sensitive match implies execution match: {checks} executions"
        f" over {len(corpus)} pairs on both instance sets"
        f" ({violations} violations, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_3_reflexive_symmetric(catalogs, corpus, capsys):
    reflexive_bad = 0
    for q in corpus:
        ast = parse_sql(q.sql, catalogs[q.db_id])
        if not exact_set_match(ast, ast) or not exact_set_match(ast, ast, ignore_values=True):
            reflexive_bad += 1

    rng = random.Random(77)
    asts = {}

    def cached(db_id, sql):
        key = (db_id, sql)
        if key not in asts:
            asts[key] = parse_sql(sql, catalogs[db_id])
        return asts[key]

    symmetric_bad = 0
    pairs = 0
    while pairs < 500:
        q = rng.choice(corpus)
        peer = rng.choice(corpus)  # cross pair must share a catalog
        candidates = [q.twin_sql, q.variant_sql]
        if peer.db_id == q.db_id:
            candidates.append(peer.sql)
        other = rng.choice(candidates)
        if other is None:
            continue
        a = cached(q.db_id, q.sql)
        b = cached(q.db_id, other)
        for iv in (False, True):
            if exact_set_match(a, b, ignore_values=iv) != exact_set_match(
                b, a, ignore_values=iv
            ):
                symmetric_bad += 1
        pairs += 1
    ok = reflexive_bad == 0 and symmetric_bad == 0
    _verdict(
        capsys,
        3,
        f"match is reflexive on {len(corpus)} queries and symmetric on"
        f" {pairs} sampled pairs ({reflexive_bad + symmetric_bad} violations)",
        ok,
    )


def test_criterion_4_oracle_link_upper_bound(
    split100, oracle_answers, capsys
):
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        traces = run_pipeline("oracle_link", split100, config=_config(ep))
    predictions = {trace.example_id: trace.extracted_sql for trace in traces}
    report, _ = evaluate_split("oracle_link", split100, predictions)
    ok = report.n == 100 and report.ex_accuracy == 1.0 and report.em_accuracy == 1.0
    _verdict(
        capsys,
        4,
        f"oracle-link mode with a gold-echoing endpoint scores"
        f" EX={report.ex_accuracy:.3f} EM={report.em_accuracy:.3f}"
        f" on {report.n} examples",
        ok,
    )


def test_criterion_5_dts_collapses_to_oracle_link(
    split100, oracle_answers, capsys
):
    with MockEndpoint(mockserver.scripted_oracle(oracle_answers)) as ep:
        dts = run_pipeline("dts", split100, config=_config(ep))
        oracle = run_pipeline("oracle_link", split100, config=_config(ep))
    differing = sum(
        1
        for d, o in zip(dts, oracle)
        if d.stage2_prompt != o.stage2_prompt or d.fallback_full_schema or o.fallback_full_schema
    )
    ok = differing == 0 and len(dts) == len(oracle) == 100
    _verdict(
        capsys,
        5,
        f"under a perfect linker, two-stage and oracle-link stage-2 prompts"
        f" are byte-identical for {len(dts)} examples ({differing} differ)",
        ok,
    )


def test_criterion_6_dataset_contract(split100, catalogs, corpus, tmp_path, capsys):
    import re

    by_question = {q.question: q for q in corpus}

    gen_out = tmp_path / "gen.jsonl"
    emit_sft_dataset(split100.examples, "gen", gen_out)
    gen_bad = 0
    for line in gen_out.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        scanned = {
            m.lower() for m in re.findall(r'CREATE TABLE "([^"]+)"', row["prompt"])
        }
        # construction-known ground truth, independent of the parser
        question = row["prompt"].split("Question: ", 1)[1].split("\n", 1)[0]
        if scanned != set(by_question[question].tables):
            gen_bad += 1

    full_out = tmp_path / "full.jsonl"
    emit_sft_dataset(split100.examples, "full", full_out)
    full_bad = 0
    for line in full_out.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        scanned = {
            m.lower() for m in re.findall(r'CREATE TABLE "([^"]+)"', row["prompt"])
        }
        if scanned != set(catalogs[row["db_id"]].table_names):
            full_bad += 1

    rerun = tmp_path / "gen2.jsonl"
    m1 = emit_sft_dataset(split100.examples, "gen", rerun)
    identical = rerun.read_bytes() == gen_out.read_bytes()
    m0 = json.loads((tmp_path / "gen.jsonl.manifest.json").read_text())
    ok = gen_bad == 0 and full_bad == 0 and identical and m0["sha256"] == m1["sha256"]
    _verdict(
        capsys,
        6,
        f"gen prompts carry exactly the gold tables ({gen_bad} bad), full prompts"
        f" carry all tables ({full_bad} bad), reruns hash-identical: {identical}",
        ok,
    )


def test_criterion_7_linking_recount(catalogs, corpus, capsys):
    def recount(pred, gold):
        pu = set(pred.tables) | {f"{t}.{c}" for t, c in pred.columns}
        gu = set(gold.tables) | {f"{t}.{c}" for t, c in gold.columns}
        if not pu and not gu:
            return 1.0, 1.0, True
        if not pu or not gu:
            return 0.0, 0.0, False
        inter = len(pu & gu)
        return inter / len(pu), inter / len(gu), pu == gu

    rng = random.Random(4242)
    bad = 0
    for _ in range(200):
        q = rng.choice(corpus)
        gold = LinkTarget(q.tables, q.columns)
        tables = set(q.tables)
        columns = set(q.columns)
        cat = catalogs[q.db_id]
        if rng.random() < 0.5 and len(tables) > 1:
            tables.discard(rng.choice(sorted(tables)))
            columns = {c for c in columns if c[0] in tables}
        if rng.random() < 0.5:
            extra = rng.choice(cat.table_names)
            tables.add(extra)
            columns.add((extra, rng.choice([c.normal_name for c in cat.table(extra).columns])))
        if rng.random() < 0.4 and columns:
            columns.discard(rng.choice(sorted(columns)))
        pred = LinkTarget(frozenset(tables), frozenset(columns))
        s = score_linking(pred, gold)
        p, r, ex = recount(pred, gold)
        if abs(s.precision - p) > 1e-9 or abs(s.recall - r) > 1e-9 or s.exact_match != ex:
            bad += 1

    identity_bad = 0
    for q in corpus[:100]:
        gold = LinkTarget(q.tables, q.columns)
        s = score_linking(gold, gold)
        if s.precision != 1.0 or s.recall != 1.0 or not s.exact_match:
            identity_bad += 1
    ok = bad == 0 and identity_bad == 0
    _verdict(
        capsys,
        7,
        f"linking scores reproduce a brute-force recount on 200 perturbed pairs"
        f" ({bad} off) and are perfect on 100 identity pairs ({identity_bad} off)",
        ok,
    )


def test_criterion_8_ordering_semantics(catalogs, fixture_paths, capsys):
    cat = catalogs["venue_events"]
    db = db_file_for(fixture_paths["db_root_a"], "venue_events")
    pred = "SELECT Venue_ID FROM Venue ORDER BY Venue_ID DESC"

    def execution_match(gold):
        with ConnectionSet() as conns:
            v = evaluate_pair("e", pred, gold, parse_sql(gold, cat), cat, db, conns)
        return v.execution_match

    unordered_gold_accepts = execution_match("SELECT Venue_ID FROM Venue")
    ordered_gold_rejects = not execution_match("SELECT Venue_ID FROM Venue ORDER BY Venue_ID ASC")
    ok = unordered_gold_accepts and ordered_gold_rejects
    _verdict(
        capsys,
        8,
        "unordered gold accepts permuted rows"
        f" ({unordered_gold_accepts}), ordered gold rejects them ({ordered_gold_rejects})",
        ok,
    )


def test_criterion_9_resilience(
    fixture_paths, split100, catalogs, oracle_answers, tmp_path, capsys
):
    split_file = tmp_path / "examples.json"
    split_file.write_text(
        json.dumps(
            [
                {"question": e.question, "query": e.gold_sql, "db_id": e.db_id}
                for e in split100.examples
            ]
        ),
        encoding="utf-8",
    )
    failing = {e.question for e in split100.examples[::10]}  # exactly 10 of 100
    script = mockserver.fail_questions(
        mockserver.scripted_oracle(oracle_answers), failing
    )
    traces_path = tmp_path / "traces.jsonl"
    with MockEndpoint(script) as ep:
        rc = main(
            [
                "infer",
                "--tables", str(fixture_paths["tables"]),
                "--examples", str(split_file),
                "--db-root", str(fixture_paths["db_root_a"]),
                "--mode", "full",
                "--base-url", ep.base_url,
                "--model", "mock",
                "--out", str(traces_path),
                "--max-retries", "0",
                "--max-parallel", "8",
            ]
        )
    rows = read_traces(traces_path, load_split(split_file, catalogs, fixture_paths["db_root_a"]))
    failures = sum(1 for r in rows if r["error"])

    out_dir = tmp_path / "scores"
    rc_eval = main(
        [
            "eval",
            "--tables", str(fixture_paths["tables"]),
            "--examples", str(split_file),
            "--db-root", str(fixture_paths["db_root_a"]),
            "--traces", str(traces_path),
            "--out-dir", str(out_dir),
        ]
    )
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    ok = (
        rc == 0
        and rc_eval == 0
        and len(rows) == 100
        and failures == 10
        and report["n"] == 100
        and abs(report["ex_accuracy"] - 0.9) < 1e-9
    )
    _verdict(
        capsys,
        9,
        f"run with 10% failing requests completes (exit {rc}), counts"
        f" {failures} failures, and still evaluates all {report['n']} examples"
        f" (EX={report['ex_accuracy']:.2f})",
        ok,
    )
