"""``icqc.run`` is the one owner of the float64 decision for a spectrum.

Whether amplitudes are real is read by scanning their imaginary parts:
``x.imag.any()`` or ``np.any(x.imag)``.  Only ``icqc.py`` may do that in
``src/icqt``: it picks a run's buffer by its gates and, after the last stage,
passes a float64 copy of a complex run's rows when they end exactly real.
Every kernel elsewhere takes the dtype it is given.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "icqt"
OWNER = "icqc.py"


def _is_imag(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "imag"


def imag_scans(tree: ast.AST) -> list[int]:
    """Line numbers of every ``<expr>.imag.any(...)`` and ``<np>.any(<expr>.imag, ...)``."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "any":
            continue
        if _is_imag(node.func.value) or (node.args and _is_imag(node.args[0])):
            lines.append(node.lineno)
    return lines


def test_the_guard_sees_both_spellings():
    tree = ast.parse("a.imag.any()\nnp.any(b.imag, axis=1)\nc.real.any()\nnp.any(d)\n")
    assert imag_scans(tree) == [1, 2]


def test_only_icqc_scans_imaginary_parts():
    found = {
        path.name: imag_scans(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines and name != OWNER} == {}
    assert found[OWNER], "icqc.py no longer reads imaginary parts; update this guard"
