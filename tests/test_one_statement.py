"""Each rule below is stated once in ``src/icqt``, and its callers use that statement.

- The ICQC gate kernels work on circuits that ``icqc._check_circuit`` has passed, so
  none of them raises.
- The ICQC start rule is ``icqc._check_start``: no other function of ``icqc.py`` calls
  ``check_register_capacity``.
- A battery's verdict and timer are ``suite._result``: no other function of ``suite.py``
  builds a ``PropertyResult``.
- A trinary state's dims are checked against a Hamiltonian's by
  ``_ConditionedPropagator.evolve``, and early, before any decomposition, by
  ``_segment_steps``; no other function of ``dynamics.py`` raises that refusal.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "icqt"
KERNELS = ("_apply_single", "_apply_cnot", "_apply_gates_nd", "_programmed_stage")
DIMS_MESSAGE = "hamiltonian and state dims differ"


def tree_of(module: str) -> ast.Module:
    return ast.parse((PACKAGE / module).read_text(encoding="utf-8"))


def functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Every function of the module, a method under its own name too, by name."""
    return {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def innermost(tree: ast.Module, match) -> list[str]:
    """The innermost function (or "<module>") around each node for which ``match`` holds."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def calls_to(name: str):
    """A call of ``name``, whether as a bare name or as an attribute."""
    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (isinstance(func, ast.Name) and func.id == name) or (
            isinstance(func, ast.Attribute) and func.attr == name
        )
    return match


def raises_message(message: str):
    """A ``raise`` whose exception is built from the string constant ``message``."""
    def match(node):
        return isinstance(node, ast.Raise) and any(
            isinstance(n, ast.Constant) and n.value == message for n in ast.walk(node)
        )
    return match


def test_the_guards_see_every_spelling():
    tree = ast.parse(
        "def _check_start(n): check_register_capacity(n)\n"
        "def other(n):\n"
        "    def inner(): return icqc.check_register_capacity(n)\n"
        "    return inner\n"
        "class C:\n"
        "    def method(self): raise DimensionError('hamiltonian and state dims differ')\n"
        "check_register_capacity(1)\n"
    )
    owners = innermost(tree, calls_to("check_register_capacity"))
    assert owners == ["_check_start", "inner", "<module>"]
    assert innermost(tree, raises_message(DIMS_MESSAGE)) == ["method"]
    assert sorted(functions(tree)) == ["_check_start", "inner", "method", "other"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_no_gate_kernel_raises(kernel):
    body = functions(tree_of("icqc.py"))[kernel]
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(body))


def test_only_check_start_checks_register_capacity():
    owners = innermost(tree_of("icqc.py"), calls_to("check_register_capacity"))
    assert owners == ["_check_start"]


def test_only_the_verdict_helper_builds_a_property_result():
    assert innermost(tree_of("suite.py"), calls_to("PropertyResult")) == ["_result"]


def test_the_dims_refusal_is_the_propagator_s_and_the_early_walk_s():
    owners = innermost(tree_of("dynamics.py"), raises_message(DIMS_MESSAGE))
    assert sorted(owners) == ["_segment_steps", "evolve"]
