"""The scripts under scripts/ run end to end at tiny settings, so a library
name one of them imports cannot go away unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, expect", [
    # --order 2 is below the five coefficients --shown asks for by default
    ("npoint_table.py", ["--order", "2", "--points", "2,3"],
     "True   q^0 * [1/4, 913/144, 1153357/5184, ...]"),
    ("bracket_scan.py", ["--max-weight", "4", "--max-factors", "1", "--order", "12",
                         "--margin", "4"], "(3)*G2^2 + (1/2)*G4"),
    ("vanishing_decay.py", ["--n", "3", "--terms", "10", "--eps", "1/10"], "theta:"),
    # s = 3 sits on a zero of Theta at q0 = 1/9
    ("vanishing_decay.py", ["--n", "4", "--q0", "1/9", "--terms", "10", "--eps", "1/10"],
     "1/10 rejected: s = 3 puts Theta on a zero"),
])
def test_script_runs(script, args, expect):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
