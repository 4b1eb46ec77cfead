"""The qwedge benchmark.

    python3 perfbench/run.py --workload brackets --seed 1 --seconds 20 --trace 0

Run from the root of a qwedge checkout; the package is imported from its
`src/`.  Whole passes of the workload's operations are repeated while the
next one is expected to end within `--seconds`, at least one pass.  With
`--trace 0` the last line of stdout is the JSON result with every end-to-end
metric; with `--trace 1` it carries the per-layer metrics of traced passes,
after untraced passes that set the tracing overhead.  Timings are scaled to a
fixed host speed by the calibration kernel in clock.py.  `--out FILE`
also appends the result, tagged with its workload and seed, to a JSON-lines
file that `compare.py` reads.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from clock import KERNEL_REF_S, Clock  # noqa: E402
from workloads import OpFailed  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
              "suite_s": "s", "verify_p50_s": "s"}
SETUP_SPAWNS = 11
SUITE_SPAWNS = 6  # on the workloads whose passes do not run `qwedge suite`
# on `commands`, whose passes run it twice: with two passes, six runs in all
COMMANDS_SUITE_SPAWNS = 2
# the set-up and suite runs are spread evenly over this share of the run
EXTRAS_SHARE = 0.85


def log(msg: str) -> None:
    print(msg, flush=True)


class Pass:
    """Outcome of one pass over a workload's operations."""

    def __init__(self):
        # (name, kind, seconds at the reference host speed; see clock.py)
        self.durations: list[tuple[str, str, float]] = []
        self.raw_seconds = 0.0  # unscaled wall time of the operations
        self.failed: list[tuple[str, str]] = []
        self.wrong: list[str] = []
        self.traces: list[dict] = []


def run_pass(wl: workloads.Workload, rng: random.Random, clock: Clock,
             tracer: layers.Tracer | None = None) -> Pass:
    out = Pass()
    for op in wl.ops:
        error = None
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = op.run()
        except OpFailed as exc:
            error = str(exc)
        except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        out.raw_seconds += seconds
        ticks = getattr(result, "ticks", None) if error is None else None
        out.durations.append((op.name, op.kind, clock.scale(seconds, ticks)))
        if error is None:
            if getattr(result, "trace", None) is not None:
                out.traces.append(result.trace)
            try:
                problem = op.check(result)
            except OpFailed as exc:
                error = str(exc)
            except Exception as exc:  # noqa: BLE001 - an output the check cannot read
                out.wrong.append(f"{op.name}: check raised {type(exc).__name__}: {exc}")
            else:
                if problem:
                    out.wrong.append(f"{op.name}: {problem}")
        if error is not None:
            out.failed.append((op.name, error))
    failed_names = {name for name, _ in out.failed}
    if wl.pass_check is not None:
        problem = wl.pass_check(failed_names)
        if problem:
            out.wrong.append(problem)
    problem = workloads.negative_control(wl.control_coeffs, rng)
    if problem:
        out.wrong.append(problem)
    return out


def setup_run(clock: Clock) -> float:
    """One start of a fresh interpreter up to `qwedge.cli` imported."""
    src = str(CHECKOUT / "src")
    argv = [sys.executable, "-c",
            "import qwedge.cli, sys; sys.stdout.write(qwedge.cli.__file__)"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=CHECKOUT, env=workloads.child_env(CHECKOUT),
                          capture_output=True, text=True, timeout=120)
    seconds = clock.scale(time.perf_counter() - t0)
    if proc.returncode != 0 or not proc.stdout.startswith(src):
        raise SystemExit(f"qwedge.cli did not import from {src}: {proc.stderr}")
    return seconds


def suite_run(clock: Clock, wrong: list[str], outputs: set) -> float:
    """One `qwedge suite`, checked as the commands workload checks it."""
    t0 = time.perf_counter()
    out = workloads.run_command(CHECKOUT, ["suite"], traced=False)
    seconds = clock.scale(time.perf_counter() - t0, out.ticks)
    outputs.add(out.stdout)
    try:
        problem = workloads.suite_problem(out)
    except OpFailed as exc:
        problem = str(exc)
    if problem:
        wrong.append(problem)
    return seconds


def median_times(passes: list[Pass]) -> list[tuple[str, float]]:
    """(kind, median time) of each operation over the run's passes."""
    return [(runs[0][1], statistics.median(d for _, _, d in runs))
            for runs in zip(*(p.durations for p in passes))]


def result_line(correct: bool, passes: list[Pass], metrics: dict, units: dict) -> dict:
    attempted = sum(len(p.durations) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def report_outcomes(passes: list[Pass]) -> bool:
    failures = sorted({f"{name}: {why}" for p in passes for name, why in p.failed})
    for line in failures:
        log(f"FAILED {line}")
    wrong = sorted({w for p in passes for w in p.wrong})
    for line in wrong:
        log(f"WRONG {line}")
    return not wrong


def untraced(name: str, seed: int, rng, seconds: float) -> dict:
    """Whole passes while the next one is expected to end within `seconds`.
    The set-up starts, and on the in-process workloads the `qwedge suite`
    runs, are spread evenly between the passes, so that each figure sees the
    whole run.  Every timing is scaled to the reference host speed and taken
    as a median over the run."""
    start = time.perf_counter()
    wl = workloads.build(name, seed, CHECKOUT, traced=False)
    clock = Clock()
    extras = {"setup": SETUP_SPAWNS,
              "suite": COMMANDS_SUITE_SPAWNS if name == "commands" else SUITE_SPAWNS}
    setup, suite, extra_wrong, outputs = [], [], [], set()

    def run_extras(until: float) -> None:
        """The set-up and suite runs due by `until` seconds into the run."""
        for kind, total in extras.items():
            done = setup if kind == "setup" else suite
            while len(done) < total and until >= len(done) * EXTRAS_SHARE * seconds / total:
                done.append(setup_run(clock) if kind == "setup"
                            else suite_run(clock, extra_wrong, outputs))

    passes: list[Pass] = []
    while True:
        run_extras(time.perf_counter() - start)
        t0 = time.perf_counter()
        passes.append(run_pass(wl, rng, clock))
        last = time.perf_counter() - t0
        if len(passes) == 1:
            # the allocator's peak creeps up a little with every pass, so it is
            # read after the first one, whatever the number of passes
            rss_self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if time.perf_counter() - start + last > seconds:
            break
    run_extras(seconds)  # those a long pass left behind
    if name == "commands":
        suite += [d for p in passes for _, kind, d in p.durations if kind == "suite"]
        # the commands run in child processes; the largest of them
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kib = rss_self_kib
    if len(outputs) != 1:
        extra_wrong.append("the suite outputs differ between runs")
    correct = report_outcomes(passes) and not extra_wrong
    for line in extra_wrong:
        log(f"WRONG {line}")
    typical = median_times(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(d for _, d in typical),
        "peak_rss_mib": rss_kib / 1024,
        "suite_s": statistics.median(suite),
        "verify_p50_s": statistics.median(d for kind, d in typical if kind == "verify"),
    }
    log(f"{name}: {len(passes)} passes of {len(typical)} operations, "
        f"{len(suite)} suite runs, {len(setup)} set-up runs")
    log("suite runs (s): " + " ".join(f"{d:.3f}" for d in suite))
    log(f"host: the kernel took {statistics.median(clock.kernel_times) * 1000:.2f} ms "
        f"(median of {len(clock.kernel_times)}; reference {KERNEL_REF_S * 1000:g} ms); "
        f"unscaled, a pass took {statistics.median(p.raw_seconds for p in passes):.3f} s")
    return result_line(correct, passes, metrics, END_TO_END)


def traced(name: str, seed: int, rng, seconds: float) -> dict:
    """Untraced passes for the first third of `seconds`, traced passes for the
    rest; the per-layer metrics are medians over the traced passes."""
    start = time.perf_counter()
    wl = workloads.build(name, seed, CHECKOUT, traced=False)
    clock = Clock()
    plain = []
    while not plain or time.perf_counter() - start < seconds / 3:
        plain.append(run_pass(wl, rng, clock))
    tracer = None
    if name != "commands":  # commands are traced inside each child process
        tracer = layers.Tracer()
        tracer.install()
    # built again so that its operations bind the wrapped functions
    wl = workloads.build(name, seed, CHECKOUT, traced=True)
    per_pass, passes = [], []
    try:
        while True:
            if tracer is not None:
                tracer.reset()
            t0 = time.perf_counter()
            p = run_pass(wl, rng, clock, tracer)
            last = time.perf_counter() - t0
            snap = tracer.snapshot() if tracer is not None else layers.combine(p.traces)
            per_pass.append(layers.layer_metrics(snap))
            passes.append(p)
            if time.perf_counter() - start + last > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    correct = report_outcomes(plain + passes)
    metrics = layers.median_metrics(per_pass)
    untraced_wall = sum(d for _, d in median_times(plain))
    overhead = sum(d for _, d in median_times(passes)) / untraced_wall
    metrics["trace.overhead_ratio"] = overhead
    log(f"{name}: a traced pass takes {overhead:.2f} times an untraced one "
        f"({untraced_wall:.3f} s); {len(plain)} untraced and {len(passes)} traced passes")
    units = {n: u for n, u, _ in layers.PER_LAYER}
    return result_line(correct, plain + passes, metrics, units)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="append the result to this JSON-lines file")
    a = ap.parse_args(argv)
    if not (CHECKOUT / "src" / "qwedge" / "cli.py").is_file():
        print(f"no qwedge sources under {CHECKOUT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))
    import qwedge
    if not Path(qwedge.__file__).resolve().is_relative_to(CHECKOUT / "src"):
        print(f"qwedge imported from {qwedge.__file__}, not this checkout", file=sys.stderr)
        return 2
    rng = random.Random(a.seed)
    run = traced if a.trace else untraced
    result = run(a.workload, a.seed, rng, a.seconds)
    if a.out is not None:
        with a.out.open("a") as fh:
            fh.write(json.dumps({"workload": a.workload, "seed": a.seed,
                                 "seconds": a.seconds, "trace": a.trace,
                                 **result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
