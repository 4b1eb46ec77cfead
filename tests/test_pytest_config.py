"""The pytest settings of pyproject.toml, run on a file of known outcomes."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

MIXED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n != 0


def test_plain_fails():
    assert False


def test_passes():
    assert True
'''


def test_a_failing_property_fails_alone(tmp_path):
    """Every warning is an error, yet a failing hypothesis property counts as
    one failure and the tests after it still run."""
    (tmp_path / "test_mixed.py").write_text(MIXED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_mixed.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("2 failed, 1 passed"), proc.stdout
