"""Run one qwedge command with per-layer tracing, or with kernel ticks.

    python3 perfbench/launch.py verify npoint --order 12
    python3 perfbench/launch.py --ticks suite

behaves like `python3 -m qwedge verify npoint --order 12` (same stdout, same
exit code), then writes a marker and one JSON object as the last line of
stderr.  Without `--ticks` the object holds the layer counters: the traced
run of the `commands` workload starts every command through this file.  With
`--ticks` it runs the calibration kernel of clock.py once before the command
and once after each verifier call, and the object holds those kernel times
and the time of each call: the untraced runs start `qwedge suite` this way.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from clock import TICKS_MARK, kernel  # noqa: E402


class Ticks:
    """Wraps each verifier of the registry: its wall time, then a kernel run."""

    def __init__(self, registry: dict):
        self.parts: list[tuple[float, float]] = []
        for name, fn in registry.items():
            registry[name] = self._wrap(fn)
        self.first = kernel()

    def _wrap(self, fn):
        def call(a):
            t0 = time.perf_counter()
            try:
                return fn(a)
            finally:
                seconds = time.perf_counter() - t0
                self.parts.append((seconds, kernel()))
        return call

    def snapshot(self) -> dict:
        return {"first": self.first, "parts": self.parts}


def main(argv: list) -> int:
    ticks = argv[:1] == ["--ticks"]
    if ticks:
        argv = argv[1:]
    else:
        from layers import TRACE_MARK, Tracer  # not imported into a timed suite
        tracer = Tracer()
        tracer.install()
    from qwedge import cli

    code = 1
    if ticks:
        probe = Ticks(cli.REGISTRY)
    else:
        tracer.enabled = True
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # noqa: BLE001 - reported as python itself would
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout.flush()
        if ticks:
            sys.stderr.write("\n" + TICKS_MARK + json.dumps(probe.snapshot()) + "\n")
        else:
            tracer.enabled = False
            sys.stderr.write("\n" + TRACE_MARK + json.dumps(tracer.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
