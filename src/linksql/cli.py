"""Command-line entry point: prepare / infer / eval / report subcommands.

Exit codes: 0 on success (model-side failures included), 1 on usage
errors, 2 on infrastructure errors (unreadable files, bad configs, an
endpoint that failed every example of an ``infer`` run).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import evalx
from .catalog import CatalogError, load_catalogs
from .ingest import Split, load_split
from .orchestrate import MODES, EndpointConfig, read_traces, run_pipeline, trace_link_target
from .promptgen import STAGES, PromptTemplateSet, emit_sft_dataset


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit with code 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tables", required=True, help="schema metadata JSON file")
    p.add_argument("--examples", required=True, help="examples JSON file")
    p.add_argument("--db-root", required=True, help="root directory of SQLite databases")


def _add_prompt_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--generation-template", help="override the generation prompt template")
    p.add_argument("--linking-template", help="override the linking prompt template")
    p.add_argument(
        "--with-samples",
        type=int,
        default=3,
        metavar="N",
        help="rows of sample data per table (0 disables; default 3)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="linksql", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("prepare", help="emit a fine-tuning dataset for one stage")
    _add_data_args(p)
    _add_prompt_args(p)
    p.add_argument("--stage", required=True, choices=STAGES)
    p.add_argument("--out", required=True, help="output JSONL path")

    p = sub.add_parser("infer", help="run one pipeline mode against an endpoint")
    _add_data_args(p)
    _add_prompt_args(p)
    p.add_argument("--mode", required=True, choices=[m.replace("_", "-") for m in MODES])
    p.add_argument("--base-url", required=True, help="endpoint base URL")
    p.add_argument("--model", required=True, help="model name sent to the endpoint")
    p.add_argument("--out", required=True, help="output trace JSONL path")
    p.add_argument("--temperature", type=float, default=EndpointConfig.temperature)
    p.add_argument("--max-output-tokens", type=int, default=EndpointConfig.max_output_tokens)
    p.add_argument("--request-timeout-ms", type=int, default=EndpointConfig.request_timeout_ms)
    p.add_argument("--max-parallel", type=int, default=EndpointConfig.max_parallel_requests)
    p.add_argument("--max-retries", type=int, default=EndpointConfig.max_retries)
    p.add_argument("--backoff-seconds", type=float, default=EndpointConfig.backoff_seconds)

    p = sub.add_parser("eval", help="score a trace file against gold")
    _add_data_args(p)
    p.add_argument("--traces", required=True, help="trace JSONL from infer")
    p.add_argument(
        "--metrics",
        default="ex,em",
        help="comma list; ex and em are always computed, add link for linking scores",
    )
    p.add_argument("--ignore-values", action="store_true", help="compare literals as placeholders")
    p.add_argument("--timeout-ms", type=int, default=evalx.DEFAULT_TIMEOUT_MS)
    p.add_argument("--model-label", default=None, help="model name shown in the report")
    p.add_argument("--out-dir", required=True, help="directory for report + verdict files")

    p = sub.add_parser("report", help="print the plain-text table for a report file")
    p.add_argument("--report", required=True, help="report.json produced by eval")

    return parser


def _load_split(args, sample_rows: int = 0) -> Split:
    """The examples of ``--examples`` over the schemas of ``--tables`` and
    the databases under ``--db-root``."""
    catalogs = {c.db_id: c for c in load_catalogs(args.tables)}
    return load_split(args.examples, catalogs, args.db_root, sample_rows)


def _cmd_prepare(args) -> int:
    split = _load_split(args, args.with_samples)
    templates = PromptTemplateSet.load(args.generation_template, args.linking_template)
    manifest = emit_sft_dataset(split.examples, args.stage, args.out, templates)
    print(
        f"wrote {manifest['count']} records to {args.out}"
        f" ({len(manifest['quarantined'])} quarantined)"
    )
    print(f"sha256: {manifest['sha256']}")
    if manifest["quarantined"]:
        print("quarantined: " + ", ".join(manifest["quarantined"]))
    return 0


def _cmd_infer(args) -> int:
    split = _load_split(args, args.with_samples)
    templates = PromptTemplateSet.load(args.generation_template, args.linking_template)
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
    mode = args.mode.replace("-", "_")
    traces = run_pipeline(mode, split, config, templates, trace_path=args.out)
    failures = [t.error for t in traces if t.error is not None]
    print(f"traced {len(traces)} examples to {args.out} ({len(failures)} failures)")
    if traces and len(failures) == len(traces):
        print(
            f"error: every example failed at the endpoint (first: {failures[0]})",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_eval(args) -> int:
    metrics = {m.strip() for m in args.metrics.split(",") if m.strip()}
    unknown = metrics - {"ex", "em", "link"}
    if unknown:
        raise ValueError(f"unknown metrics: {', '.join(sorted(unknown))}")
    split = _load_split(args)
    traces = read_traces(args.traces, split)
    report, verdicts = evalx.evaluate_split(
        traces[0]["mode"],
        split,
        {t["example_id"]: t["extracted_sql"] for t in traces},
        predicted_links=(
            {t["example_id"]: trace_link_target(t) for t in traces} if "link" in metrics else None
        ),
        ignore_values=args.ignore_values,
        timeout_ms=args.timeout_ms,
        model_name=args.model_label,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    evalx.write_verdicts(out_dir / "verdicts.jsonl", verdicts)
    (out_dir / "report.json").write_text(
        json.dumps(evalx.report_dict(report), indent=2) + "\n", encoding="utf-8"
    )
    text = evalx.report_text(report)
    (out_dir / "report.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _cmd_report(args) -> int:
    print(evalx.report_text(evalx.read_report(args.report)))
    return 0


_COMMANDS = {
    "prepare": _cmd_prepare,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CatalogError, OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
