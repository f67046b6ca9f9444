"""The benchmark's workloads: seeded inputs, the jobs they run through
``linksql.cli.main``, and the checks that each job's outputs are right.

Every workload builds the fixture schemas and the generated corpus with
the test helpers (``tests/fixturedb.py``, ``tests/querygen.py``), then
derives its own inputs from the seed. The program only sees the files.

- ``eval-3mode`` scores three synthesized trace files (full, dts,
  oracle_link) that share their gold queries: parsing, execution and
  linking scores, no HTTP.
- ``infer-dts`` runs two-stage inference against a loopback endpoint in
  its own process that waits a fixed latency per answer: the endpoint
  client and orchestration, little else.
- ``prepare-3stage`` emits the full, link and gen datasets: catalog
  sampling, prompt rendering and one gold parse per record.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import count, cycle
from pathlib import Path

from fixturedb import SCHEMAS, build_all
from querygen import make_corpus, value_pools

from linksql import catalog, ingest

PER_SCHEMA = 400  # 1200 queries over the three fixture schemas
SAMPLE_ROWS = 3
LATENCY_MS = 20.0  # endpoint wait per answer, so waiting dominates as with a model
BACKOFF_S = 0.005
MAX_PARALLEL = 2  # closed loop with two clients; the machine has two cores
INFER_SLICES = 12  # 100 examples per infer job
EVAL_MODES = ("full", "dts", "oracle_link")
PREPARE_STAGES = ("full", "link", "gen")

HERE = Path(__file__).resolve().parent


@dataclass
class Job:
    label: str
    argv: list
    items: int


@dataclass
class Outcome:
    """What checking one job found."""

    failed: int = 0  # items lost beyond what the inputs predict
    samples: list = field(default_factory=list)  # per-item latency, ms
    waited: list = field(default_factory=list)  # of which spent waiting outside the machine
    nominal_ms: list = field(default_factory=list)  # samples at nominal machine speed
    digest: str = ""
    violations: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True).encode("utf-8") + b"\n")
    return h.hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def table_names(db_id: str) -> list[str]:
    return [t.lower() for t in SCHEMAS[db_id]["tables"]]


def column_names(db_id: str, table: str) -> list[str]:
    tdef = next(v for k, v in SCHEMAS[db_id]["tables"].items() if k.lower() == table)
    return [c.lower() for c, _ in tdef["columns"]]


def link_text(tables, columns) -> str:
    return "tables: {}\ncolumns: {}".format(
        ", ".join(sorted(tables)), ", ".join(f"{t}.{c}" for t, c in sorted(columns))
    )


def parse_link_text(text: str) -> tuple[set, set]:
    lines = text.splitlines()
    tables = {t.strip() for t in lines[0][len("tables:"):].split(",") if t.strip()}
    columns = {
        tuple(c.strip().split(".", 1))
        for c in lines[1][len("columns:"):].split(",")
        if c.strip()
    }
    return tables, columns


def union_pr(pred_tables, pred_columns, gold_tables, gold_columns) -> tuple[float, float]:
    """Linking precision and recall over tables plus qualified columns."""
    pred = set(pred_tables) | {f"{t}.{c}" for t, c in pred_columns}
    gold = set(gold_tables) | {f"{t}.{c}" for t, c in gold_columns}
    if not pred and not gold:
        return 1.0, 1.0
    inter = len(pred & gold)
    return (inter / len(pred) if pred else 0.0), (inter / len(gold) if gold else 0.0)


class Workload:
    item = "examples"
    sample_rows = SAMPLE_ROWS  # what the jobs pass as --with-samples

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        paths = build_all(self.work / "fixtures")
        self.tables = str(paths["tables"])
        self.db_root = str(paths["db_root_a"])
        self.corpus = make_corpus(
            value_pools(paths["db_root_a"]), per_schema=PER_SCHEMA, seed=self.seed
        )
        self.dev = self.work / "dev.json"
        self.write_split(self.dev, self.corpus)

    @staticmethod
    def write_split(path: Path, queries) -> None:
        entries = [{"question": q.question, "query": q.sql, "db_id": q.db_id} for q in queries]
        path.write_text(json.dumps(entries), encoding="utf-8")

    def split_files(self) -> list[Path]:
        """The examples files the jobs read."""
        return [self.dev]

    def program_setup(self) -> int:
        """Load the catalogs, with sample rows as the jobs ask for them, and
        every examples file through the program, as a job does before its
        first timed call. Returns the number of examples loaded."""
        catalogs = {}
        for cat in catalog.load_catalogs(self.tables):
            if self.sample_rows:
                db_file = ingest.db_file_for(self.db_root, cat.db_id)
                cat = catalog.attach_samples(cat, db_file, max_rows=self.sample_rows)
            catalogs[cat.db_id] = cat
        return sum(
            len(ingest.load_split(path, catalogs, self.db_root).examples)
            for path in self.split_files()
        )

    def data_args(self, examples: Path) -> list:
        return ["--tables", self.tables, "--examples", str(examples), "--db-root", self.db_root]

    def example_ids(self) -> dict:
        """Question -> example id as the program names it."""
        return {q.question: f"{self.dev.stem}:{i}" for i, q in enumerate(self.corpus)}

    def close(self) -> None:
        pass

    def snapshot(self) -> dict | None:
        """Endpoint counters, for workloads that own an endpoint."""
        return None


class EvalWorkload(Workload):
    """Scores three trace files whose predictions are a seeded mix of the
    gold text, its equivalence twin, the near-miss variant and a broken
    string, with link fields that perturb the gold target."""

    KINDS = (("gold", 0.35), ("twin", 0.35), ("variant", 0.2), ("broken", 0.1))
    sample_rows = 0

    def setup(self) -> None:
        super().setup()
        self.kinds: dict[str, list[str]] = {}
        self.expected_link: dict[str, tuple[float, float]] = {}
        for mode in EVAL_MODES:
            rng = random.Random(f"{self.seed}:{mode}")
            kinds, traces, prs = [], [], []
            for i, q in enumerate(self.corpus):
                kind, pred = self._prediction(q, rng)
                tables, columns = self._link(mode, q, rng)
                kinds.append(kind)
                prs.append(union_pr(tables, columns, q.tables, q.columns))
                traces.append(
                    {
                        "example_id": f"dev:{i}",
                        "mode": mode,
                        "stage1_prompt": None,
                        "stage1_completion": None,
                        "resolved_tables": sorted(tables),
                        "resolved_columns": [f"{t}.{c}" for t, c in sorted(columns)],
                        "stage2_prompt": "",
                        "stage2_completion": pred,
                        "extracted_sql": pred,
                        "wall_ms": {},
                        "fallback_full_schema": False,
                        "error": None,
                    }
                )
            self.kinds[mode] = kinds
            n = len(prs)
            self.expected_link[mode] = (sum(p for p, _ in prs) / n, sum(r for _, r in prs) / n)
            with (self.work / f"traces_{mode}.jsonl").open("w", encoding="utf-8") as fh:
                for t in traces:
                    fh.write(json.dumps(t) + "\n")

    def _prediction(self, q, rng) -> tuple[str, str]:
        r = rng.random()
        kind = "broken"
        for name, weight in self.KINDS:
            if r < weight:
                kind = name
                break
            r -= weight
        if kind == "variant" and q.variant_sql is None:
            kind = "twin"
        if kind == "gold":
            return kind, q.sql
        if kind == "twin":
            return kind, q.twin_sql
        if kind == "variant":
            return kind, q.variant_sql
        # cut mid-query and left open: neither the dialect nor SQLite accepts it
        return kind, rng.choice(("", q.sql[: len(q.sql) // 2] + " WHERE ("))

    def _link(self, mode: str, q, rng) -> tuple[set, set]:
        tables, columns = set(q.tables), set(q.columns)
        if mode == "full":
            return set(table_names(q.db_id)), set()
        if mode == "oracle_link":
            return tables, columns
        r = rng.random()
        others = sorted(set(table_names(q.db_id)) - tables)
        if r < 0.15 and columns:
            columns.discard(rng.choice(sorted(columns)))
        elif r < 0.3 and others:
            extra = rng.choice(others)
            tables.add(extra)
            columns.add((extra, rng.choice(column_names(q.db_id, extra))))
        elif r < 0.4 and len(tables) > 1:
            tables.discard(rng.choice(sorted(tables)))
            columns = {c for c in columns if c[0] in tables}
        return tables, columns

    def jobs(self):
        for mode in cycle(EVAL_MODES):
            yield Job(
                mode,
                ["eval", *self.data_args(self.dev),
                 "--traces", str(self.work / f"traces_{mode}.jsonl"),
                 "--metrics", "ex,em,link",
                 "--out-dir", str(self.work / f"eval_{mode}")],
                len(self.corpus),
            )

    def check(self, job: Job, rc: int, window=None) -> Outcome:
        out = Outcome()
        if rc != 0:
            out.failed = job.items
            out.violations.append(f"eval {job.label}: exit code {rc}")
            return out
        out_dir = self.work / f"eval_{job.label}"
        verdicts = read_jsonl(out_dir / "verdicts.jsonl")
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        out.failed = job.items - len(verdicts)
        if [v["example_id"] for v in verdicts] != [f"dev:{i}" for i in range(job.items)]:
            out.violations.append(f"eval {job.label}: verdicts missing or out of order")
        wrong = 0
        for v, kind in zip(verdicts, self.kinds[job.label]):
            if kind in ("gold", "twin"):
                ok = v["exact_match"] and v["execution_match"] and v["failure_kind"] is None
            elif kind == "broken":
                ok = not v["execution_match"] and v["failure_kind"] in (
                    "pred_parse_error",
                    "pred_exec_error",
                )
            else:
                ok = True
            wrong += not ok
        if wrong:
            out.violations.append(f"eval {job.label}: {wrong} verdicts contradict construction")
        for key in ("quarantined", "invalid_gold", "skipped_no_database"):
            if report.get(key):
                out.violations.append(f"eval {job.label}: {len(report[key])} {key}")
        precision, recall = self.expected_link[job.label]
        linking = report.get("linking") or {}
        if (
            abs(linking.get("precision", -1.0) - precision) > 1e-9
            or abs(linking.get("recall", -1.0) - recall) > 1e-9
        ):
            out.violations.append(f"eval {job.label}: linking scores differ from recount")
        out.samples = [v["timings"]["match_ms"] + v["timings"]["execution_ms"] for v in verdicts]
        out.digest = digest({k: v[k] for k in v if k != "timings"} for v in verdicts)
        return out


class InferWorkload(Workload):
    """Two-stage inference over slices of the corpus against the
    benchmark's endpoint. Stage 1 gets the gold link text except for a
    seeded ~5% of unusable answers; stage 2 gets the twin SQL, sometimes
    fenced; a seeded ~2% of requests are refused once with a 503."""

    UNUSABLE = 0.05
    FENCED = 0.3
    REFUSED = 0.02

    def setup(self) -> None:
        super().setup()
        rng = random.Random(f"{self.seed}:infer")
        answers = {}
        self.expect = {}
        for q in self.corpus:
            unusable = rng.random() < self.UNUSABLE
            fenced = rng.random() < self.FENCED
            fail = [stage for stage in ("link", "sql") if rng.random() < self.REFUSED]
            answers[q.question] = {
                "link": "I cannot tell which tables this needs."
                if unusable
                else link_text(q.tables, q.columns),
                "sql": f"```sql\n{q.twin_sql}\n```" if fenced else q.twin_sql,
                "fail": fail,
            }
            self.expect[q.question] = (q, unusable, fail)
        answers_file = self.work / "answers.json"
        answers_file.write_text(json.dumps(answers), encoding="utf-8")
        self.slices = []
        for k in range(INFER_SLICES):
            path = self.work / f"slice{k:02d}.json"
            queries = self.corpus[k::INFER_SLICES]
            self.write_split(path, queries)
            self.slices.append((path, queries))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "endpoint.py"),
             "--answers", str(answers_file), "--latency-ms", str(LATENCY_MS)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("endpoint exited before listening")
        self.base_url = f"http://127.0.0.1:{json.loads(line)['port']}/v1"

    def split_files(self) -> list[Path]:
        return [path for path, _ in self.slices]

    def example_ids(self) -> dict:
        return {
            q.question: f"{path.stem}:{i}"
            for path, queries in self.slices
            for i, q in enumerate(queries)
        }

    def snapshot(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> dict | None:
        """Stop the endpoint and return its final counters."""
        proc = getattr(self, "proc", None)
        if proc is None:
            return None
        self.proc = None
        try:
            out, _ = proc.communicate(timeout=30)  # end of input stops the server
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        lines = out.splitlines()
        return json.loads(lines[-1]) if lines else None

    def jobs(self):
        for k in count():
            path, queries = self.slices[k % INFER_SLICES]
            yield Job(
                path.stem,
                ["infer", *self.data_args(path),
                 "--mode", "dts", "--base-url", self.base_url, "--model", "bench",
                 "--out", str(self.work / f"traces_{path.stem}.jsonl"),
                 "--max-parallel", str(MAX_PARALLEL),
                 "--backoff-seconds", str(BACKOFF_S),
                 "--with-samples", str(SAMPLE_ROWS)],
                len(queries),
            )

    def check(self, job: Job, rc: int, window=None) -> Outcome:
        out = Outcome()
        if rc != 0:
            out.failed = job.items
            out.violations.append(f"infer {job.label}: exit code {rc}")
            return out
        traces = read_jsonl(self.work / f"traces_{job.label}.jsonl")
        queries = self.slices[int(job.label[len("slice"):])][1]
        if len(traces) != len(queries):
            out.violations.append(f"infer {job.label}: {len(traces)} traces for {len(queries)} examples")
        out.failed = sum(1 for t in traces if t["error"] is not None) + len(queries) - len(traces)
        wrong = fallbacks = retries = 0
        for t, q in zip(traces, queries):
            _, unusable, refused = self.expect[q.question]
            fallbacks += t["fallback_full_schema"]
            retries += len(refused)
            ok = t["fallback_full_schema"] == unusable and t["extracted_sql"] == q.twin_sql.strip()
            if not unusable:
                ok = ok and set(t["resolved_tables"]) == set(q.tables) and {
                    tuple(c.split(".", 1)) for c in t["resolved_columns"]
                } == set(q.columns)
            wrong += not ok
        if wrong:
            out.violations.append(f"infer {job.label}: {wrong} traces contradict construction")
        if out.failed:
            out.violations.append(f"infer {job.label}: {out.failed} examples failed")
        if window is not None and (
            window["requests"] != 2 * len(queries) + retries or window["refused"] != retries
        ):
            out.violations.append(
                f"infer {job.label}: endpoint saw {window['requests']} requests,"
                f" {window['refused']} refused; expected {2 * len(queries) + retries}, {retries}"
            )
        out.samples = [t["wall_ms"][k] for t in traces for k in ("stage1_ms", "stage2_ms")]
        if window is not None and window["served"]:
            answer_ms = window["injected_ms"] / window["served"]
            out.waited = [
                answer_ms + (BACKOFF_S * 1000.0 if stage in self.expect[q.question][2] else 0.0)
                for q in queries[: len(traces)]
                for stage in ("link", "sql")
            ]
        out.digest = digest({k: v for k, v in t.items() if k != "wall_ms"} for t in traces)
        out.extras = {
            "examples": len(traces),
            "fallbacks": fallbacks,
            "expected_fallbacks": sum(self.expect[q.question][1] for q in queries),
            "retries": retries,
            "stage1_chars": sum(len(t["stage1_prompt"] or "") for t in traces),
            "stage2_chars": sum(len(t["stage2_prompt"]) for t in traces),
        }
        if fallbacks != out.extras["expected_fallbacks"]:
            out.violations.append(f"infer {job.label}: fallback share differs from injected share")
        return out


class PrepareWorkload(Workload):
    """Emits the full, link and gen datasets over the corpus with three
    sample rows per table."""

    item = "records"

    def jobs(self):
        for stage in cycle(PREPARE_STAGES):
            yield Job(
                stage,
                ["prepare", *self.data_args(self.dev),
                 "--stage", stage, "--out", str(self.work / f"sft_{stage}.jsonl"),
                 "--with-samples", str(SAMPLE_ROWS)],
                len(self.corpus),
            )

    def check(self, job: Job, rc: int, window=None) -> Outcome:
        out = Outcome()
        if rc != 0:
            out.failed = job.items
            out.violations.append(f"prepare {job.label}: exit code {rc}")
            return out
        path = self.work / f"sft_{job.label}.jsonl"
        manifest = json.loads(path.with_name(path.name + ".manifest.json").read_text("utf-8"))
        data = path.read_bytes()
        out.failed = len(manifest["quarantined"]) + job.items - manifest["count"]
        if out.failed:
            out.violations.append(f"prepare {job.label}: {out.failed} records lost")
        if hashlib.sha256(data).hexdigest() != manifest["sha256"]:
            out.violations.append(f"prepare {job.label}: manifest sha256 does not match the file")
        records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        wrong = 0
        for rec, q in zip(records, self.corpus):
            if job.label == "link":
                ok = parse_link_text(rec["completion"]) == (set(q.tables), set(q.columns))
            else:
                ok = rec["completion"] == q.sql
            wrong += not ok or q.question not in rec["prompt"]
        if wrong or len(records) != job.items:
            out.violations.append(f"prepare {job.label}: {wrong} records contradict the corpus")
        out.digest = manifest["sha256"]
        return out


WORKLOADS = {
    "eval-3mode": EvalWorkload,
    "infer-dts": InferWorkload,
    "prepare-3stage": PrepareWorkload,
}
