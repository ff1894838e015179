"""Every name ``icqt`` exports has a caller in the package or is documented library API.

A caller is a use of the name in code (a name or an attribute) in a module of
``src/icqt`` other than ``__init__.py``; an import, a ``def``/``class`` line or
a mention in a docstring is not one.  The exports with no caller are the
names of the README's "Library API" paragraph, no more and no fewer.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "icqt"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def names_used_in_package() -> set[str]:
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def library_api_names() -> set[str]:
    """The exported names in backticks in the README's "Library API" paragraph."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^\*\*Library API\.\*\*(.*?)(?:\n\n|\Z)", readme, re.S | re.M)
    assert match, "README.md has no **Library API.** paragraph"
    return set(re.findall(r"`(\w+)`", match.group(1))) & set(exported_names())


def test_every_export_has_a_caller_or_is_library_api():
    used, api = names_used_in_package(), library_api_names()
    assert [name for name in exported_names() if name not in used and name not in api] == []


def test_library_api_lists_only_exports_without_a_caller():
    used = names_used_in_package()
    assert library_api_names() == {name for name in exported_names() if name not in used}
