"""Summarise or compare benchmark result files.

    python3 perfbench/compare.py results/base.jsonl
    python3 perfbench/compare.py results/base.jsonl results/change.jsonl

A result file holds the JSON lines that `run.py --out FILE` appends, one per
run.  For each workload and metric this prints the median and quartiles of
each side.  With one file it also prints the spread, the distance between
the quartiles as a share of the median, against a third of the metric's
bound in BENCHMARK.json.  With two files it gives a verdict for each
end-to-end metric against its bound: "worse" when the second median is worse
than the first by more than the bound, "better" when it is better by more
than the first side's spread, "unresolved" when the first side's spread is
wider than the bound and the runs overlap, and "same" otherwise.  The share
of failed operations is compared exactly.  Exit code 1 if any verdict is
"worse" or a failed share differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict:
    """workload -> {"values": {metric: [...]}, "attempted", "failed", "correct"}"""
    out: dict = defaultdict(lambda: {"values": defaultdict(list), "attempted": 0,
                                     "failed": 0, "correct": True, "runs": 0})
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        side = out[(rec["workload"], rec["trace"])]
        side["runs"] += 1
        side["attempted"] += rec["attempted"]
        side["failed"] += rec["failed"]
        side["correct"] &= rec["correct"]
        for name, m in rec["metrics"].items():
            side["values"][name].append(m["value"])
    return out


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(base: list, change: list, bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1
    b, c = statistics.median(base), statistics.median(change)
    worse_by = sign * (c - b) / b
    overlap = (max(change) >= min(base)) if sign > 0 else (min(change) <= max(base))
    if spread(base) > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(base):
        return "better"
    return "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", type=Path, nargs="+", help="one or two result files")
    a = ap.parse_args(argv)
    if len(a.files) > 2:
        ap.error("give one or two result files")
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load(p) for p in a.files]
    status = 0
    for key in sorted(sides[0]):
        workload, trace = key
        first = sides[0][key]
        second = sides[1].get(key) if len(sides) == 2 else None
        runs = f"{first['runs']} runs" + (f" / {second['runs']} runs" if second else "")
        print(f"== {workload} ({'traced' if trace else 'untraced'}, {runs})")
        shares = [s["failed"] / s["attempted"] for s in (first, second) if s]
        print(f"   failed share {' / '.join(f'{x:.6f}' for x in shares)}; correct "
              f"{' / '.join(str(s['correct']) for s in (first, second) if s)}")
        if len(shares) == 2 and shares[0] != shares[1]:
            print("   FAILED SHARE DIFFERS")
            status = 1
        for name, values in first["values"].items():
            m = metrics.get(name, {"unit": "", "better": "lower"})
            q1, q2, q3 = quartiles(values)
            line = f"   {name:44s} {q2:12.6g} [{q1:.6g}, {q3:.6g}] {m['unit']}"
            if second is None:
                if "bound" in m:
                    s = spread(values)
                    ok = "steady" if s < m["bound"] / 3 else "NOT STEADY"
                    line += f"  spread {s:.3f} (bound/3 {m['bound'] / 3:.3f}) {ok}"
            elif name in second["values"]:
                other = second["values"][name]
                p1, p2, p3 = quartiles(other)
                line += f"  ->  {p2:12.6g} [{p1:.6g}, {p3:.6g}]"
                if "bound" in m:
                    v = verdict(values, other, m["bound"], m["better"])
                    line += f"  {v}"
                    if v == "worse":
                        status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
