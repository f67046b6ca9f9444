"""Which functions the traced run wraps, and the per-layer metrics it
derives from their spans.

Each metric is expected to move one end-to-end metric on one workload
(see ``BENCHMARK.json`` and CHANGES.md); on the other workloads the
prediction is no change. A layer that a workload never calls reads 0.
"""

from __future__ import annotations

import re
import statistics
from collections import Counter, defaultdict

from linksql import catalog, evalx, ingest, linker, orchestrate, promptgen, sqlast
from stats import nearest_rank, overhead_ms_per_request

from workloads import BACKOFF_S

_QUESTION = re.compile(r"^Question: (.*)$", re.MULTILINE)


def targets(example_ids: dict):
    """(function, span name, example-id extractor, fan-out) per traced function.

    ``example_ids`` maps a question to its example id, so that spans of
    functions that take a question or a prompt carry the example they
    serve; other spans inherit the id of their parent.
    """

    def by_question(args, kwargs):
        return example_ids.get(args[1]) if len(args) > 1 else None

    def by_prompt(args, kwargs):
        m = _QUESTION.search(args[1]) if len(args) > 1 else None
        return example_ids.get(m.group(1).strip()) if m else None

    def first_arg(args, kwargs):
        return args[0] if args else None

    return [
        (catalog.load_catalogs, "catalog.load_catalogs", None, False),
        (catalog.attach_samples, "catalog.attach_samples", None, False),
        (ingest.load_split, "ingest.load_split", None, False),
        (sqlast.parse_sql, "sqlast.parse_sql", None, False),
        (sqlast.tokenize, "sqlast.tokenize", None, False),
        (sqlast.exact_set_match, "sqlast.exact_set_match", None, False),
        (sqlast.extract_link_targets, "sqlast.extract_link_targets", None, False),
        (promptgen.render_schema, "promptgen.render_schema", None, False),
        (promptgen.prompt_parts, "promptgen.prompt_parts", by_question, False),
        (promptgen.emit_sft_dataset, "promptgen.emit_sft_dataset", None, False),
        (linker.parse_linker_output, "linker.parse_linker_output", None, False),
        (linker.score_linking, "linker.score_linking", None, False),
        (orchestrate.run_pipeline, "orchestrate.run_pipeline", None, True),
        (orchestrate.complete, "orchestrate.complete", by_prompt, False),
        (evalx.evaluate_pair, "evalx.evaluate_pair", first_arg, False),
        (evalx.em_with_detail, "evalx.em_with_detail", None, False),
        (evalx.ex_with_detail, "evalx.ex_with_detail", None, False),
        (evalx.write_verdicts, "evalx.write_verdicts", None, False),
    ]


# Reported in the result line. A time metric is listed here only when
# every workload calls its layer; per-layer timings that some workload
# never exercises are given as shares of wall time or printed as DETAILS.
METRICS = (
    ("catalog.load_catalogs_ms", "ms"),
    ("catalog.attach_samples_frac", "ratio"),
    ("ingest.load_split_ms", "ms"),
    ("sqlast.parse_sql_per_example", "count"),
    ("sqlast.tokenize_per_example", "count"),
    ("sqlast.parse_sql_self_frac", "ratio"),
    ("sqlast.extract_link_targets_per_example", "count"),
    ("promptgen.render_schema_per_record", "count"),
    ("promptgen.render_schema_self_frac", "ratio"),
    ("linker.score_linking_self_frac", "ratio"),
    ("orchestrate.complete_calls_per_example", "count"),
    ("orchestrate.overhead_share", "ratio"),
    ("orchestrate.attempts_per_call", "count"),
    ("orchestrate.fallback_frac", "ratio"),
    ("orchestrate.prompt_chars_stage1_mean", "chars"),
    ("orchestrate.prompt_chars_stage2_mean", "chars"),
    ("endpoint.connections_per_request", "count"),
    ("endpoint.inflight_mean", "count"),
    ("evalx.em_with_detail_self_frac", "ratio"),
    ("evalx.ex_with_detail_self_frac", "ratio"),
    ("evalx.sqlite_connects_per_example", "count"),
    ("evalx.statements_per_example", "count"),
    ("evalx.write_verdicts_frac", "ratio"),
    ("cli.self_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

# Printed with the result, for the workloads that call the layer.
DETAILS = (
    ("catalog.attach_samples_ms", "ms"),
    ("sqlast.parse_sql_us_p50", "us"),
    ("sqlast.exact_set_match_us_p50", "us"),
    ("promptgen.prompt_parts_us_p50", "us"),
    ("promptgen.emit_sft_dataset_s", "s"),
    ("linker.parse_linker_output_us_p50", "us"),
    ("orchestrate.complete_ms_p50", "ms"),
    ("orchestrate.complete_ms_p99", "ms"),
    ("orchestrate.overhead_ms_per_request", "ms"),
    ("evalx.evaluate_pair_us_p50", "us"),
    ("evalx.write_verdicts_ms", "ms"),
)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, items: int, windows: list, extras: dict, overhead: float) -> dict:
    """Per-layer metrics over the traced jobs.

    ``items`` counts the examples or records those jobs processed,
    ``windows`` holds the endpoint counter deltas of each traced job and
    ``extras`` sums the per-job facts read back from infer traces.
    """
    selfs = tracer.self_times()
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    roots = [s for s in tracer.spans if s.parent is None]
    wall = sum(s.duration for s in roots) or 1.0

    def calls(name):
        return len(by_name[name])

    def per_item(n):
        return n / items if items else 0.0

    def per_job_ms(name):
        totals = Counter()
        for s in by_name[name]:
            totals[s.job] += s.duration
        return _median([totals[r.job] * 1000.0 for r in roots])

    def p50_us(name):
        return _median([s.duration * 1e6 for s in by_name[name]])

    def self_frac(name):
        return sum(selfs[s] for s in by_name[name]) / wall

    def frac(name):
        return sum(s.duration for s in by_name[name]) / wall

    def under_evalx(name):
        return sum(1 for s in by_name[name] if s.parent and s.parent.name.startswith("evalx."))

    complete_ms = [s.duration * 1000.0 for s in by_name["orchestrate.complete"]]
    requests = sum(w["requests"] for w in windows)
    connections = sum(w["connections"] for w in windows)
    examples = extras.get("examples", 0)
    overhead_ms = (
        overhead_ms_per_request(
            sum(complete_ms),
            requests,
            sum(w["injected_ms"] for w in windows),
            extras.get("retries", 0) * BACKOFF_S * 1000.0,
        )
        if requests
        else 0.0
    )

    def per_example(key):
        return extras.get(key, 0) / examples if examples else 0.0

    return {
        "catalog.load_catalogs_ms": per_job_ms("catalog.load_catalogs"),
        "catalog.attach_samples_ms": per_job_ms("catalog.attach_samples"),
        "catalog.attach_samples_frac": frac("catalog.attach_samples"),
        "ingest.load_split_ms": per_job_ms("ingest.load_split"),
        "sqlast.parse_sql_per_example": per_item(calls("sqlast.parse_sql")),
        "sqlast.tokenize_per_example": per_item(calls("sqlast.tokenize")),
        "sqlast.parse_sql_us_p50": p50_us("sqlast.parse_sql"),
        "sqlast.parse_sql_self_frac": self_frac("sqlast.parse_sql"),
        "sqlast.exact_set_match_us_p50": p50_us("sqlast.exact_set_match"),
        "sqlast.extract_link_targets_per_example": per_item(calls("sqlast.extract_link_targets")),
        "promptgen.render_schema_per_record": per_item(calls("promptgen.render_schema")),
        "promptgen.render_schema_self_frac": self_frac("promptgen.render_schema"),
        "promptgen.prompt_parts_us_p50": p50_us("promptgen.prompt_parts"),
        "promptgen.emit_sft_dataset_s": per_job_ms("promptgen.emit_sft_dataset") / 1000.0,
        "linker.parse_linker_output_us_p50": p50_us("linker.parse_linker_output"),
        "linker.score_linking_self_frac": self_frac("linker.score_linking"),
        "orchestrate.complete_calls_per_example": per_item(len(complete_ms)),
        "orchestrate.complete_ms_p50": _median(complete_ms),
        "orchestrate.complete_ms_p99": nearest_rank(complete_ms, 99.0) if complete_ms else 0.0,
        "orchestrate.overhead_ms_per_request": overhead_ms,
        "orchestrate.overhead_share": overhead_ms * requests / sum(complete_ms)
        if complete_ms
        else 0.0,
        "orchestrate.attempts_per_call": requests / len(complete_ms) if complete_ms else 0.0,
        "orchestrate.fallback_frac": per_example("fallbacks"),
        "orchestrate.prompt_chars_stage1_mean": per_example("stage1_chars"),
        "orchestrate.prompt_chars_stage2_mean": per_example("stage2_chars"),
        "endpoint.connections_per_request": connections / requests if requests else 0.0,
        "endpoint.inflight_mean": _median([w["inflight_mean"] for w in windows]),
        "evalx.evaluate_pair_us_p50": p50_us("evalx.evaluate_pair"),
        "evalx.em_with_detail_self_frac": self_frac("evalx.em_with_detail"),
        "evalx.ex_with_detail_self_frac": self_frac("evalx.ex_with_detail"),
        "evalx.sqlite_connects_per_example": per_item(under_evalx("sqlite3.connect")),
        "evalx.statements_per_example": per_item(under_evalx("sqlite3.statement")),
        "evalx.write_verdicts_ms": per_job_ms("evalx.write_verdicts"),
        "evalx.write_verdicts_frac": frac("evalx.write_verdicts"),
        "cli.self_frac": sum(selfs[r] for r in roots) / wall,
        "trace.overhead_frac": overhead,
    }


def census(tracer, executes: set) -> dict:
    """Calls per eval example, split by caller, to check the tracer against
    the counts known at the seed commit: 3 ``parse_sql`` (1 from the CLI,
    2 from evalx), 4 ``tokenize`` for a prediction that executes (the 4th
    is evalx's ORDER BY scan), 2 ``sqlite3.connect``.

    ``executes`` holds the (job, example id) pairs whose prediction
    executes; evalx skips the ORDER BY scan for the others.
    """
    per_caller = Counter()
    tokenize_in_pair = Counter()
    examples = set()
    for span in tracer.spans:
        if span.name == "evalx.evaluate_pair":
            examples.add((span.job, span.example))
        parent = span.parent.name.split(".")[0] if span.parent else "none"
        if span.name in ("sqlast.parse_sql", "sqlite3.connect"):
            per_caller[(span.name, parent)] += 1
        elif span.name == "sqlast.tokenize":
            if span.example is None:
                per_caller[(span.name, "outside evaluate_pair")] += 1
            else:
                tokenize_in_pair[(span.job, span.example)] += 1
    n = len(examples) or 1
    executing = [k for k in examples if k in executes]

    def by_caller(name):
        return {caller: c / n for (fn, caller), c in per_caller.items() if fn == name}

    return {
        "examples": len(examples),
        "parse_sql": by_caller("sqlast.parse_sql"),
        "sqlite3.connect": by_caller("sqlite3.connect"),
        "tokenize_executing": per_caller[("sqlast.tokenize", "outside evaluate_pair")] / n
        + (sum(tokenize_in_pair[k] for k in executing) / len(executing) if executing else 0.0),
    }
