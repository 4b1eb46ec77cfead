"""scripts/bench.py on two stand-in trees whose perfbench/run.py prints fixed
figures, so the pairing, the medians and the traced layers can be checked
without running the real benchmark."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAKE_RUN = '''
import argparse, json, os
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace", "--out"):
    ap.add_argument(flag)
a = ap.parse_args()
wall = {wall} + int(a.seed) / 1000
if a.trace == "1":
    with open({log!r}, "a") as f:
        f.write(f"{{os.path.basename(os.getcwd())}} {{a.seed}}\\n")
    print("traced passes")
    print(json.dumps({{"metrics": {{"qdiff.numeric.self_s": {{"value": {layer} * int(a.seed)}},
                                   "series.mul.calls": {{"value": 0}}}}}}))
else:
    record = {{"workload": a.workload, "seed": int(a.seed), "attempted": 7, "failed": 0,
              "correct": True, "metrics": {{"wall_s": {{"value": wall, "unit": "s"}}}},
              "no_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE")}}
    with open(a.out, "a") as f:
        f.write(json.dumps(record) + "\\n")
    print(json.dumps(record))
'''


def _tree(path: Path, wall: float, layer: float) -> Path:
    """A tree whose traced runs read `layer` times the seed, each logged as
    the tree's name and the seed in the shared traced.log next to it."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(wall=wall, layer=layer, log=str(path.parent / "traced.log")))
    (path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "workloads": [{"name": "numeric"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}],
    }))
    return path


def _bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_pairs_the_sides_and_stores_the_median_of_three_traced_runs(tmp_path,
                                                                          monkeypatch,
                                                                          capsys):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    bench = _bench()
    change = _tree(tmp_path / "change", wall=0.040, layer=0.005)
    parent = _tree(tmp_path / "parent", wall=0.045, layer=0.002)

    runs = tmp_path / "runs.jsonl"
    assert bench.main(["--pr", "0", "--seeds", "1", "2", "3", "4", "--runs", str(runs),
                       "--checkout", str(change), "--parent", str(parent)]) == 0
    records = [json.loads(line) for line in runs.read_text().splitlines()]
    assert [r["no_bytecode"] for r in records] == ["1"] * 4
    out = json.loads((change / "BENCH_0.json").read_text())

    assert out["workloads"]["numeric"]["metrics"]["wall_s"]["median"] == 0.0425
    assert out["parent"]["numeric"]["metrics"]["wall_s"]["median"] == 0.0475
    assert out["pairs_won"]["numeric"]["wall_s"] == [4, 4]
    # the medians' line carries the change: 0.0425 / 0.0475 - 1 = -10.53%
    line, = (x for x in capsys.readouterr().out.splitlines() if " wall_s " in x)
    assert line.split()[:6] == ["numeric", "wall_s", "0.0475", "->", "0.0425", "-10.5%"]
    # traced at the first three seeds, the side going first alternating
    assert (tmp_path / "traced.log").read_text().splitlines() == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3"]
    # each figure is the median over seeds 1..3, the one at seed 2
    assert out["layers"] == {"numeric": {"qdiff.numeric.self_s": 0.005 * 2,
                                         "series.mul.calls": 0}}
    assert out["parent_layers"]["numeric"]["qdiff.numeric.self_s"] == 0.002 * 2


def test_bench_refuses_a_tree_with_a_bytecode_cache(tmp_path, capsys):
    change = _tree(tmp_path / "change", wall=0.040, layer=0.005)
    parent = _tree(tmp_path / "parent", wall=0.045, layer=0.002)
    cache = parent / "src" / "qwedge" / "__pycache__"
    cache.mkdir(parents=True)

    assert _bench().main(["--pr", "0", "--seeds", "1", "--checkout", str(change),
                          "--parent", str(parent)]) == 2
    assert str(cache) in capsys.readouterr().err
    assert not (change / "BENCH_0.json").exists()
