"""Benchmark for linksql: one seeded workload per run, driven through
``linksql.cli.main`` in this process.

    python3 perfbench/run.py --workload eval-3mode --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures end-to-end metrics with tracing off:

- ``setup_s``: the program's own set-up before a job's first timed call,
  loading the catalogs (with sample rows where the jobs ask for them) and
  the examples through ``linksql``; median of several set-ups. The
  harness's set-up (fixtures, corpus, workload inputs and, for infer, the
  endpoint) is done once and printed as ``harness_setup_s``;
- ``peak_rss_mb``: the maximum resident set of this process;
- ``throughput_per_s``: median over jobs of items per second, where an
  item is an example (eval, infer) or a record (prepare);
- ``latency_ms_p50``: median per-item latency: one endpoint request
  (infer, from the traces' ``stage1_ms``/``stage2_ms``), one scored example
  (eval, from the verdicts' ``match_ms`` + ``execution_ms``), one record
  (prepare records no per-record time, so each job gives its mean).

Set-up and job times are scaled to a nominal machine speed with the
probe that ``speed.py`` runs in a process of its own; for infer only the
time not spent waiting on the endpoint's fixed latency or the retry
backoff is scaled. The raw wall-clock figures, the mean probe time and
the median scaling factors are printed too.

With ``--trace 1`` each job runs once plain and once traced, and the run
reports the per-layer metrics of ``layers.METRICS`` from the traced jobs.

Every job's outputs are checked against how the inputs were built; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sqlite3
import statistics
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 41
WORKLOAD_NAMES = ("eval-3mode", "infer-dts", "prepare-3stage")
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
}


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, workload, seconds: float, trace: bool, sampler):
        import endpoint
        import layers
        import tracer as tracer_mod
        from linksql import cli

        self.cli = cli
        self.window = endpoint.window
        self.layers = layers
        self.wl = workload
        self.seconds = seconds
        self.trace = trace
        self.tracer = tracer_mod.Tracer("linksql") if trace else None
        self.traced_labels: list[str] = []
        self.violations: list[str] = []
        self.digests: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.sampler = sampler
        self.factors: list[float] = []

    def run_job(self, job, traced: bool = False):
        """Run and check one job; return its wall time, its time scaled to
        nominal machine speed, the check's outcome and the endpoint window."""
        before = self.wl.snapshot()
        with contextlib.redirect_stdout(io.StringIO()):
            if traced:
                with self.tracer.installed(self.layers.targets(self.example_ids)):
                    with self.tracer.job("cli.main"):
                        t0 = time.monotonic()
                        rc = self.cli.main(job.argv)
                        t1 = time.monotonic()
                self.traced_labels.append(job.label)
            else:
                t0 = time.monotonic()
                rc = self.cli.main(job.argv)
                t1 = time.monotonic()
        elapsed = t1 - t0
        factor = self.sampler.factor(t0, t1)
        if not traced:
            self.factors.append(factor)
        after = self.wl.snapshot()
        window = self.window(before, after) if before is not None else None
        outcome = self.wl.check(job, rc, window)
        nominal, outcome.nominal_ms = speed.nominal(
            elapsed, factor, outcome.samples, outcome.waited
        )
        self.violations.extend(outcome.violations)
        seen = self.digests.setdefault(job.label, outcome.digest)
        if seen != outcome.digest:
            self.violations.append(f"{job.label}: outputs differ between repeats")
        self.attempted += job.items
        self.failed += outcome.failed
        return elapsed, nominal, outcome, window

    def measure(self) -> dict:
        self.example_ids = self.wl.example_ids()
        jobs = self.wl.jobs()
        self.run_job(next(jobs))  # warm-up: checked, not timed
        self.attempted = self.failed = 0
        raw_rates, rates, raw_samples, samples, overheads = [], [], [], [], []
        traced_items, windows, extras = 0, [], {}
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline or not rates:
            job = next(jobs)
            elapsed, nominal, outcome, _ = self.run_job(job)
            raw_rates.append(job.items / elapsed)
            rates.append(job.items / nominal)
            raw_samples.extend(outcome.samples or [elapsed * 1000.0 / job.items])
            samples.extend(outcome.nominal_ms or [nominal * 1000.0 / job.items])
            if self.trace:
                _, traced, outcome, window = self.run_job(job, traced=True)
                overheads.append(traced / nominal - 1.0)
                traced_items += job.items
                if window is not None:
                    windows.append(window)
                for key, value in outcome.extras.items():
                    extras[key] = extras.get(key, 0) + value
        return {
            "rates": rates,
            "raw_rates": raw_rates,
            "samples": samples,
            "raw_samples": raw_samples,
            "overhead": statistics.median(overheads) if overheads else None,
            "traced_items": traced_items,
            "windows": windows,
            "extras": extras,
        }


def eval_census(runner) -> dict | None:
    wl = runner.wl
    if not hasattr(wl, "kinds"):
        return None
    executes = {
        (job, f"dev:{i}")
        for job, label in enumerate(runner.traced_labels)
        for i, kind in enumerate(wl.kinds[label])
        if kind != "broken"
    }
    return runner.layers.census(runner.tracer, executes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    needed = (ROOT / "src" / "linksql" / "cli.py", ROOT / "tests" / "fixturedb.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: missing program files: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import requests
    import workloads
    from stats import summarize

    work_root = ROOT / ".perfbench_run"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    cls = workloads.WORKLOADS[args.workload]
    setup_times, raw_setup_times, setup_factors = [], [], []
    setup_violations = []
    wl = None
    try:
        wl = cls(work, args.seed)
        t0 = time.perf_counter()
        wl.setup()
        harness_setup_s = time.perf_counter() - t0
        with speed.Sampler(work / "speed.txt") as sampler:
            for _ in range(SETUPS):
                t0 = time.monotonic()
                loaded = wl.program_setup()
                t1 = time.monotonic()
                factor = sampler.factor(t0, t1)
                raw_setup_times.append(t1 - t0)
                setup_times.append(speed.nominal(t1 - t0, factor)[0])
                setup_factors.append(factor)
                if loaded != len(wl.corpus):
                    setup_violations.append(f"set-up loaded {loaded} of {len(wl.corpus)} examples")
            runner = Runner(wl, args.seconds, bool(args.trace), sampler)
            runner.violations.extend(setup_violations)
            result = runner.measure()
        endpoint_final = wl.close()
        if args.trace:
            runner.tracer.write(work_root / f"spans-{args.workload}.jsonl")
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)

    latency = summarize(result["samples"])
    e2e = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": statistics.median(result["rates"]),
        "latency_ms_p50": latency["p50"],
    }
    counts = {
        "setup_s": len(setup_times),
        "peak_rss_mb": 1,
        "throughput_per_s": len(result["rates"]),
        "latency_ms_p50": latency["n"],
    }
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {E2E_UNITS[name]} (n={counts[name]})")
    item = "request" if args.workload == "infer-dts" else wl.item[:-1]
    if "tail" in latency:
        print(
            f"latency_ms_p{latency['tail_level']:g} = {latency['tail']:.6g} ms"
            f" (n={latency['n']}, per {item})"
        )
    raw = summarize(result["raw_samples"])
    print(f"harness_setup_s = {harness_setup_s:.6g} s (n=1, wall clock)")
    print(
        "wall clock: "
        f"setup_s = {statistics.median(raw_setup_times):.6g} s,"
        f" throughput_per_s = {statistics.median(result['raw_rates']):.6g} 1/s,"
        f" latency_ms_p50 = {raw['p50']:.6g} ms"
        + (f", latency_ms_p{raw['tail_level']:g} = {raw['tail']:.6g} ms" if "tail" in raw else "")
    )
    failed_frac = runner.failed / runner.attempted
    print(f"failed_frac = {failed_frac:.6g} ratio (n={runner.attempted} {wl.item})")
    if endpoint_final is not None:
        print("endpoint = " + json.dumps(endpoint_final, sort_keys=True))

    metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    if args.trace:
        values = runner.layers.layer_metrics(
            runner.tracer,
            result["traced_items"],
            result["windows"],
            result["extras"],
            result["overhead"],
        )
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in runner.layers.METRICS
        }
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        for name, unit in runner.layers.DETAILS:
            if values[name]:
                print(f"{name} = {values[name]:.6g} {unit}")
        census = eval_census(runner)
        if census is not None:
            print("census = " + json.dumps(census, sort_keys=True))

    print("digests = " + json.dumps(runner.digests, sort_keys=True))
    provenance = {
        "commit": git_commit(ROOT),
        "python": sys.version.split()[0],
        "sqlite": sqlite3.sqlite_version,
        "requests": requests.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "corpus": workloads.PER_SCHEMA * len(workloads.SCHEMAS),
        "samples": counts,
        "nominal_probe_s": speed.NOMINAL_S,
        "probe_s_mean": statistics.mean(s for _, s in sampler.samples),
        "setup_factor_median": statistics.median(setup_factors),
        "job_factor_median": statistics.median(runner.factors),
    }
    print("provenance = " + json.dumps(provenance, sort_keys=True))
    if failed_frac:
        runner.violations.append(f"{runner.failed} of {runner.attempted} {wl.item} failed")
    for message in runner.violations:
        print(f"violation: {message}", file=sys.stderr)
    correct = not runner.violations
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
