"""The scripts under scripts/ run end to end at tiny settings, so a library
name one of them imports cannot go away unnoticed; and neither they nor the
package's modules import a private name from a qwedge module."""

import ast
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


def _private_imports(source: str) -> list[str]:
    """`module.name` for each `from <qwedge module> import _name` in `source`;
    a relative import is always into a qwedge module, and dunders are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "qwedge":
            continue
        found += [f"{'.' * node.level}{module}.{alias.name}" for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_private_names_stay_in_their_module():
    assert _private_imports("from .characters import MultiSeries, _series\n"
                            "from qwedge.qdiff import _phi, phi_sum\n"
                            "from qwedge import __version__\n"
                            "from fractions import _gcd\n") == [
        ".characters._series", "qwedge.qdiff._phi"]
    paths = sorted((ROOT / "src" / "qwedge").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py"))
    assert len(paths) > 10
    found = {str(p.relative_to(ROOT)): _private_imports(p.read_text()) for p in paths}
    assert {p: names for p, names in found.items() if names} == {}


def _inverse_products(source: str) -> list[int]:
    """The line of each product (`*` or `*=`) with a direct `.inv()` call as an
    operand: such a product is a division, which `/` makes in one pass."""
    def is_inv(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "inv")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
            operands = (node.value,)
        else:
            continue
        if any(map(is_inv, operands)):
            found.append(node.lineno)
    return sorted(found)


def test_no_product_with_an_inverse():
    """`x * y.inv()` is `x / y`; an inverse stored once and reused is not a
    product with a direct call, and a power of one is no product."""
    assert _inverse_products("a = x * y.inv()\n"
                             "b = y.inv() * x * z\n"
                             "c *= d.inv()\n"
                             "e = f.inv()\n"
                             "g = e * x\n"
                             "h = f.inv() ** 3\n"
                             "i = x / y\n") == [1, 2, 3]
    paths = sorted((ROOT / "src" / "qwedge").glob("*.py"))
    assert len(paths) > 10
    found = {str(p.relative_to(ROOT)): _inverse_products(p.read_text()) for p in paths}
    assert {p: lines for p, lines in found.items() if lines} == {}
