"""Every name ``icqt`` exports has a caller in the package or is documented library API,
and every top-level function or class of the package has a caller or is exported.

A caller is a load of the bare name in code (``ast.Name`` in ``Load``
context) in a module of ``src/icqt`` other than ``__init__.py``; an import, a
``def``/``class`` line, an attribute or field of the same spelling (such as
``CommutatorCheck.commutator_norm``) or a mention in a docstring is not one.
The exports with no caller are the names of the README's "Library API"
paragraph, no more and no fewer.
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
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
    return used


def top_level_definitions() -> list[str]:
    """Every function and class defined at the top level of a module of the package."""
    return [
        node.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


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


def test_every_definition_has_a_caller_or_is_exported():
    used, exported = names_used_in_package(), set(exported_names())
    assert [name for name in top_level_definitions() if name not in used | exported] == []
