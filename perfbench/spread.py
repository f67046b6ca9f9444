"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload infer-dts --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for each end-to-end
metric its median, the distance between its first and third quartile as
a share of the median, and that share over the metric's bound. A
benchmark is steady when every share stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        for name in values:
            values[name].append(row[name])
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
    if len(args.seeds) < 2:
        return 0
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        share = spread(vals)
        print(
            f"{m['name']}: median {statistics.median(vals):.6g} {m['unit']},"
            f" spread {share:.4f}, {share / m['bound']:.2f} of bound {m['bound']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
