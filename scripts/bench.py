#!/usr/bin/env python3
"""Run the benchmark on every workload for a list of seeds and write the
median end-to-end metrics to BENCH_<pr>.json.

    python3 scripts/bench.py --pr N --seeds 101 102 103
    python3 scripts/bench.py --pr N --seeds 101 102 103 --parent ../parent \\
        --runs change.jsonl --parent-runs parent.jsonl

Each (workload, seed) is one `perfbench/run.py --trace 0` run of the
`run_seconds` that BENCHMARK.json sets, in a child process, one at a time,
from the root of the checkout being measured (`--checkout`, by default the
one holding this script); BENCH_<pr>.json is written there.  It holds, per workload and metric, the median, first and
third quartile over the seeds of each run's figure, with the operations
attempted and failed.  `--runs FILE` also appends the raw run records to
FILE, the JSON lines that `perfbench/compare.py` reads.  Nothing under
`perfbench/` is written.

`--parent DIR` also runs each (workload, seed) on the tree DIR, the commit the
checkout is compared with, next to the checkout's run; which of the two goes
first alternates from seed to seed.  Its raw records go to `--parent-runs FILE`,
so that `perfbench/compare.py PARENT_FILE FILE` compares the two sides.
BENCH_<pr>.json then also holds the parent's medians and, per workload and
end-to-end metric, how many of the seed pairs the checkout won (ties count
for neither side), which is printed as well.

After the timed runs, `perfbench/run.py --trace 1` runs three times per
workload on each side, at the first three seeds, with the side that goes first
alternating as above.  Per workload and per-layer metric, the median over the
three runs goes under "layers" (the parent's under "parent_layers"), so that a
change can show in which layer its saving sits; one traced run alone can read
a layer on an untouched path at nearly twice another's figure.  Each nonzero
per-layer metric is printed.

Every run has PYTHONDONTWRITEBYTECODE=1 set, and a tree holding a `__pycache__`
directory under `src/` is refused (exit 2, naming the directory): a bytecode
cache makes qwedge start faster and lowers `peak_rss_mib`, so its figures
would not match runs from a fresh checkout, which compile every module they
import.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 3  # traced runs per workload and side, at the first seeds


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


def layer_medians(runs: list[dict]) -> dict:
    """Per-layer metric -> the median of its figure over the traced runs."""
    names = dict.fromkeys(name for run in runs for name in run)
    return {name: statistics.median(run[name] for run in runs if name in run)
            for name in names}


def pairs_won(parent: list[dict], change: list[dict], metric: dict) -> list[int]:
    """[pairs the change won, pairs compared] for one metric, pairing the two
    sides' runs by workload and seed."""
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    before = {(r["workload"], r["seed"]): r["metrics"][name]["value"]
              for r in parent if name in r["metrics"]}
    after = [(before[key], r["metrics"][name]["value"]) for r in change
             if name in r["metrics"] and (key := (r["workload"], r["seed"])) in before]
    return [sum(sign * (b - a) < 0 for a, b in after), len(after)]


class Side:
    """One tree's runs, appended to a JSON-lines file."""

    def __init__(self, tree: Path, runs: Path):
        self.tree, self.runs = tree, runs
        self.env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        self.start = runs.read_text().count("\n") if runs.exists() else 0

    def run(self, workload: str, seed: int, seconds: int) -> None:
        print(f"{workload} seed {seed} on {self.tree}", file=sys.stderr, flush=True)
        subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", "0", "--out", str(self.runs)],
                       cwd=self.tree, env=self.env, check=True, stdout=subprocess.DEVNULL)

    def trace(self, workload: str, seed: int, seconds: int) -> dict:
        """The per-layer medians of one traced run, from its last line of stdout."""
        print(f"{workload} seed {seed} on {self.tree}, traced", file=sys.stderr, flush=True)
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                             cwd=self.tree, env=self.env, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        metrics = json.loads(out.splitlines()[-1])["metrics"]
        return {name: m["value"] for name, m in metrics.items()}

    def records(self) -> list[dict]:
        return [json.loads(line) for line in self.runs.read_text().splitlines()[self.start:]
                if line.strip()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="the tree to measure; its BENCHMARK.json and perfbench/ are used")
    ap.add_argument("--runs", type=Path, default=None,
                    help="also append the raw run records to this JSON-lines file")
    ap.add_argument("--parent", type=Path, default=None,
                    help="also measure this tree, in alternating pairs with the checkout")
    ap.add_argument("--parent-runs", type=Path, default=None,
                    help="append the parent's raw run records to this JSON-lines file")
    a = ap.parse_args(argv)

    checkout = a.checkout.resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    trees = [checkout] + ([a.parent.resolve()] if a.parent is not None else [])
    caches = [c for tree in trees for c in sorted((tree / "src").rglob("__pycache__"))]
    if caches:
        print(f"bench: bytecode caches under src/ would skew the figures; remove "
              f"{' '.join(map(str, caches))} and rerun", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        change = Side(checkout, a.runs.resolve() if a.runs else Path(tmp) / "runs.jsonl")
        sides = [change]
        if a.parent is not None:
            parent_runs = a.parent_runs.resolve() if a.parent_runs else Path(tmp) / "parent.jsonl"
            sides.insert(0, Side(a.parent.resolve(), parent_runs))
        for workload in workloads:
            for k, seed in enumerate(a.seeds):
                for side in sides if k % 2 == 0 else sides[::-1]:
                    side.run(workload, seed, seconds)
        records = [side.records() for side in sides]
        traced = [{w: [] for w in workloads} for _ in sides]
        pairs = list(zip(sides, traced))
        for workload in workloads:
            for k, seed in enumerate(a.seeds[:TRACED_RUNS]):
                for side, found in pairs if k % 2 == 0 else pairs[::-1]:
                    found[workload].append(side.trace(workload, seed, seconds))
        layers = [{w: layer_medians(runs) for w, runs in found.items()} for found in traced]

    def by_workload(recs: list[dict]) -> dict:
        return {w: summarize([r for r in recs if r["workload"] == w], names)
                for w in workloads}

    out = {"pr": a.pr, "seconds": seconds, "seeds": a.seeds,
           "workloads": by_workload(records[-1])}
    if a.parent is not None:
        won = {w: {m["name"]: pairs_won(*([r for r in recs if r["workload"] == w]
                                          for recs in records), m)
                   for m in bench["end_to_end"]}
               for w in workloads}
        out["parent"] = by_workload(records[0])
        out["pairs_won"] = won
        for w in workloads:
            for name, (wins, pairs) in won[w].items():
                before = out["parent"][w]["metrics"].get(name, {})
                after = out["workloads"][w]["metrics"].get(name, {})
                if before and after:
                    print(f"{w:9s} {name:13s} {before['median']:10.5g} -> "
                          f"{after['median']:<10.5g} won {wins} of {pairs} pairs "
                          f"(parent quartiles {before['q1']:.5g}..{before['q3']:.5g})")
    out["layers"] = layers[-1]
    if a.parent is not None:
        out["parent_layers"] = layers[0]
    for w in workloads:
        for name, after in layers[-1][w].items():
            before = layers[0][w].get(name, after)
            if before or after:
                print(f"{w:9s} {name:42s} {before:10.4g} -> {after:<10.4g}"
                      if a.parent is not None else f"{w:9s} {name:42s} {after:10.4g}")
    path = checkout / f"BENCH_{a.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
