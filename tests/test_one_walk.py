"""``dynamics.entanglement_trajectory`` is the one walk of a piecewise-constant schedule.

It maps every time to its segment through ``dynamics._segment_steps`` before it checks
or decomposes any segment.  Only that function may read the name in ``src/icqt``, so a
second walker with its own path decision cannot be added unnoticed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "icqt"
MAPPING = "_segment_steps"
OWNER = ("dynamics.py", "entanglement_trajectory")


def readers(tree: ast.Module, name: str) -> list[str]:
    """The top-level definition (or "<module>") around each read of ``name``, whether as
    a bare name or as an attribute; defining it is not a read."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            bare = isinstance(node, ast.Name) and node.id == name
            if (bare and isinstance(node.ctx, ast.Load)) or (
                isinstance(node, ast.Attribute) and node.attr == name
            ):
                found.append(owner)
    return found


def test_the_guard_sees_every_spelling():
    tree = ast.parse(
        "def _segment_steps(): pass\n"
        "def walk(): return _segment_steps(a)\n"
        "def other(): return dynamics._segment_steps(b)\n"
        "alias = _segment_steps\n"
        "class Walker:\n"
        "    def step(self): return _segment_steps\n"
    )
    assert readers(tree, MAPPING) == ["walk", "other", "<module>", "Walker"]


def test_only_entanglement_trajectory_maps_times_to_segments():
    found = {
        (path.name, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner in readers(ast.parse(path.read_text(encoding="utf-8")), MAPPING)
    }
    assert found == {OWNER}
