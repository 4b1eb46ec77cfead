#!/usr/bin/env python3
"""Run the benchmark on every workload for a list of seeds and write the
median end-to-end metrics to BENCH_<pr>.json.

    python3 scripts/bench.py --pr N --seeds 101 102 103

Each (workload, seed) is one `perfbench/run.py --trace 0` run of the
`run_seconds` that BENCHMARK.json sets, in a child process, one at a time,
from the root of the checkout being measured (`--checkout`, by default the
one holding this script); BENCH_<pr>.json is written there.  It holds, per workload and metric, the median, first and
third quartile over the seeds of each run's figure, with the operations
attempted and failed.  `--runs FILE` also appends the raw run records to
FILE, the JSON lines that `perfbench/compare.py` reads.  Nothing under
`perfbench/` is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records: list[dict], names: list[str]) -> dict:
    """One workload's runs -> medians and quartiles of each end-to-end metric."""
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[name] = {"median": med, "q1": q1, "q3": q3,
                         "unit": records[0]["metrics"][name]["unit"]}
    return {"runs": len(records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "correct": all(r["correct"] for r in records),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="the tree to measure; its BENCHMARK.json and perfbench/ are used")
    ap.add_argument("--runs", type=Path, default=None,
                    help="also append the raw run records to this JSON-lines file")
    a = ap.parse_args(argv)

    checkout = a.checkout.resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    with tempfile.TemporaryDirectory() as tmp:
        runs = a.runs.resolve() if a.runs else Path(tmp) / "runs.jsonl"
        start = runs.read_text().count("\n") if runs.exists() else 0
        for workload in workloads:
            for seed in a.seeds:
                print(f"{workload} seed {seed}", file=sys.stderr, flush=True)
                subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                                "--seed", str(seed), "--seconds", str(seconds),
                                "--trace", "0", "--out", str(runs)],
                               cwd=checkout, check=True, stdout=subprocess.DEVNULL)
        records = [json.loads(line) for line in runs.read_text().splitlines()[start:]
                   if line.strip()]

    out = {"pr": a.pr, "seconds": seconds, "seeds": a.seeds,
           "workloads": {w: summarize([r for r in records if r["workload"] == w], names)
                         for w in workloads}}
    path = checkout / f"BENCH_{a.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
