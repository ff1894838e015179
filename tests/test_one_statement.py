"""Each rule below is stated once in ``src/icqt``, and its callers use that statement.

Every rule is one test over one set of AST helpers: a matcher and the functions (or
modules) of ``src/icqt`` allowed to match it.

- The ICQC gate kernels work on circuits that ``icqc._check_circuit`` has passed, so
  none of them raises.
- The ICQC start rule is ``icqc._check_start``: no other function of ``icqc.py`` or
  ``scenario.py`` calls ``check_register_capacity``.
- A battery's verdict and timer are ``suite._result``: no other function of ``suite.py``
  builds a ``PropertyResult``.
- A trinary state's dims are checked against a Hamiltonian's by
  ``_ConditionedPropagator.evolve``, and early, before any decomposition, by
  ``_segment_steps``; no other function of ``dynamics.py`` raises that refusal.
- ``dynamics.entanglement_trajectory`` is the one walk of a schedule: it alone reads
  ``_segment_steps``, so a second walker with its own path decision shows.
- ``icqc.py`` owns the float64 decision, made from gate kinds alone: the one scan of
  imaginary parts (``x.imag.any()`` or ``np.any(x.imag)``) in ``src/icqt`` is the
  import-time derivation of ``icqc._REAL_KINDS`` from the fixed gates, so no function
  scans amplitudes or a gate's matrix, and every kernel takes its input's dtype.
- The integer rule and the finite-number rule are ``serialize._is_int`` and
  ``serialize._is_finite``: no other module reads ``numbers.Integral`` or ``numbers.Real``
  or defines a predicate of those names (or the old ``_finite_real``).
- Input rules are owned by the library values: ``scenario.py`` reads ``_is_int`` for the
  schema and the seed alone and ``_is_finite`` for the duration's shape alone, and maps
  every library refusal through one adapter, ``scenario._refusal``; besides it, only the
  JSON decoding and the two ``pairs_to_complex`` reads build a ``ScenarioError`` from a
  caught ``ValueError``'s message.
- Count and kind rules are the library's too: ``scenario.py`` compares no ``len(...)``
  with a ``TrinaryDims`` field (the branch, block and generator counts are
  ``build_programmed_unitary``'s and ``_Conditioned``'s) and names no random Hamiltonian
  kind (``random_trinary_hamiltonian`` states them).
- The overflow rule is ``dynamics._Conditioned``'s, and the walk's bound on a time is
  ``_segment_steps``'s: no module but ``dynamics.py`` holds a string literal, docstrings
  aside, that names an overflow.
- A Kronecker product is formed in one place only, ``trinary._product_into`` (a product
  start); no other function of ``src/icqt`` reads ``kron``, so no pointer or branch
  unitary, and no full-space operator, is built term by term as a Kronecker product.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "icqt"
MODULES = tuple(path.name for path in sorted(PACKAGE.glob("*.py")))
KERNELS = ("_apply_single", "_apply_cnot", "_apply_gates_nd", "_programmed_stage")
PREDICATES = ("_is_int", "_is_finite", "_finite_real")
DIMS_MESSAGE = "hamiltonian and state dims differ"
DIMS_FIELDS = ("d_s", "d_a", "d_p", "d_sa")
HAMILTONIAN_KINDS = re.compile(r"\b(pmc|coupled|violating)\b")


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


def owners(match, *modules: str) -> set[tuple[str, str]]:
    """(module, innermost function) of each match in ``modules`` of ``src/icqt``."""
    return {(module, owner) for module in modules for owner in innermost(tree_of(module), match)}


def named(node, name: str) -> bool:
    """``name`` as a bare name read or as an attribute; defining it is not a read."""
    return (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def calls_to(name: str):
    return lambda node: isinstance(node, ast.Call) and named(node.func, name)


def reads(name: str):
    return lambda node: named(node, name)


def raises_message(message: str):
    """A ``raise`` whose exception is built from the string constant ``message``."""
    def match(node):
        return isinstance(node, ast.Raise) and any(
            isinstance(n, ast.Constant) and n.value == message for n in ast.walk(node)
        )
    return match


def imag_scan(node) -> bool:
    """``<expr>.imag.any(...)`` or ``<np>.any(<expr>.imag, ...)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr != "any":
        return False
    return named(node.func.value, "imag") or bool(node.args and named(node.args[0], "imag"))


def numbers_abc(node) -> bool:
    """A read of ``numbers.Integral`` or ``numbers.Real``, bare or as an attribute."""
    return named(node, "Integral") or named(node, "Real")


def defines(*names: str):
    """A ``def`` (a method too) of one of ``names``, or an assignment to one."""
    def match(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name in names
        return isinstance(node, ast.Name) and node.id in names and isinstance(node.ctx, ast.Store)
    return match


def rewraps_value_error(node) -> bool:
    """An ``except`` clause that catches ``ValueError`` (alone or in a tuple) under a name
    and raises a ``ScenarioError`` built from that name, so from the caught message."""
    if not (isinstance(node, ast.ExceptHandler) and node.type is not None and node.name):
        return False
    if not any(named(n, "ValueError") for n in ast.walk(node.type)):
        return False
    return any(
        isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
        and named(n.exc.func, "ScenarioError")
        and any(isinstance(m, ast.Name) and m.id == node.name for m in ast.walk(n.exc))
        for statement in node.body for n in ast.walk(statement)
    )


def len_against_dims(node) -> bool:
    """A comparison that reads ``len(...)`` and a ``TrinaryDims`` field (``dims.d_p``, or a
    bare ``d_p``) anywhere in its operands."""
    if not isinstance(node, ast.Compare):
        return False
    inside = list(ast.walk(node))
    return any(calls_to("len")(n) for n in inside) and any(
        named(n, field) for n in inside for field in DIMS_FIELDS
    )


def names_a_hamiltonian_kind(node) -> bool:
    """A string constant (an f-string's parts too) holding the word pmc, coupled or violating."""
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and bool(
        HAMILTONIAN_KINDS.search(node.value)
    )


def without_docstrings(tree: ast.Module) -> ast.Module:
    """``tree`` with the docstring of the module and of each class and function emptied."""
    for node in ast.walk(tree):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            node.body[0].value.value = ""
    return tree


def names_an_overflow(node) -> bool:
    """A string constant (an f-string's parts too) holding the word overflow, in any case."""
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and (
        "overflow" in node.value.lower()
    )


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
    assert innermost(tree, calls_to("check_register_capacity")) == ["_check_start", "inner",
                                                                     "<module>"]
    assert innermost(tree, raises_message(DIMS_MESSAGE)) == ["method"]
    assert sorted(functions(tree)) == ["_check_start", "inner", "method", "other"]


def test_the_guard_sees_both_spellings():
    tree = ast.parse("def f(): return a.imag.any() + np.any(b.imag, axis=1)\n"
                     "c.real.any()\nnp.any(d)\n")
    assert innermost(tree, imag_scan) == ["f", "f"]


def test_the_number_guard_sees_every_spelling():
    tree = ast.parse(
        "import numbers\n"
        "from numbers import Integral\n"
        "def f(x): return isinstance(x, numbers.Integral)\n"
        "def g(x): return isinstance(x, (numbers.Real, str))\n"
        "def h(x): return isinstance(x, Integral)\n"
        "def k(x): return x.real + np.real(x)\n"
        "Real = 1\n"
    )
    assert innermost(tree, numbers_abc) == ["f", "g", "h"]


def test_the_definition_guard_sees_every_spelling():
    tree = ast.parse(
        "def _is_int(x): pass\n"
        "class C:\n"
        "    def _is_finite(self): pass\n"
        "_finite_real = lambda x: x\n"
        "def f():\n"
        "    _is_int = 1\n"
        "    return _is_int\n"
        "def g(): return _is_int(1) + serialize._is_finite(2)\n"
    )
    assert innermost(tree, defines(*PREDICATES)) == ["_is_int", "_is_finite", "<module>", "f"]


def test_the_rewrap_guard_sees_every_spelling():
    handlers = {
        "a": "except ValueError as exc: raise ScenarioError(str(exc)) from exc",
        "b": "except (TypeError, ValueError) as e: raise scenario.ScenarioError(f'x: {e}')",
        "c": "except ValueError as e: raise ScenarioError(e.args[0])",
        "d": "except ValueError: raise ScenarioError('bad') from None",
        "e": "except ValueError as exc: raise ScenarioError('bad') from exc",
        "f": "except KeyError as exc: raise ScenarioError(str(exc))",
        "g": "except ValueError as exc: raise OtherError(str(exc))",
    }
    tree = ast.parse("".join(
        f"def {name}():\n    try:\n        pass\n    {handler}\n" for name, handler in handlers.items()
    ))
    assert innermost(tree, rewraps_value_error) == ["a", "b", "c"]


def test_the_guard_sees_every_spelling():
    tree = ast.parse(
        "def _segment_steps(): pass\n"
        "def walk(): return _segment_steps(a)\n"
        "def other(): return dynamics._segment_steps(b)\n"
        "alias = _segment_steps\n"
        "class Walker:\n"
        "    def step(self): return _segment_steps\n"
    )
    assert innermost(tree, reads("_segment_steps")) == ["walk", "other", "<module>", "step"]


def test_the_count_and_kind_guards_see_every_spelling():
    tree = ast.parse(
        "def a(raw, dims): return len(raw) != dims.d_p\n"
        "def b(gens, d_s): return not gens or len(gens) > d_s\n"
        "def c(x, dims): return dims.d_sa == len(x[0])\n"
        "def d(raw): return len(raw) != 3\n"
        "def e(dims): return dims.d_p > dims.d_sa\n"
        "def f(kind): return kind in ('pmc', 'coupled')\n"
        "def g(kind): raise ValueError(f'must be violating, got {kind}')\n"
        "def h(kind): return kind == 'sapmc' or kind == 'PMC'\n"
    )
    assert innermost(tree, len_against_dims) == ["a", "b", "c"]
    assert innermost(tree, names_a_hamiltonian_kind) == ["f", "f", "g"]


def test_the_overflow_guard_sees_every_spelling():
    tree = without_docstrings(ast.parse(
        '"""A module that overflows."""\n'
        "def f(): raise ValueError('the commutator overflows a double')\n"
        "def g(k): raise ScenarioError(f'segment {k}: Overflow by t = {k}')\n"
        "def h():\n"
        "    'Refuse what overflows.'\n"
        "    return overflow  # an overflow\n"
        "class C:\n"
        '    """An overflow."""\n'
        "    message = 'no overflow here'\n"
    ))
    assert innermost(tree, names_an_overflow) == ["f", "g", "<module>"]


def test_the_kron_guard_sees_every_spelling():
    tree = ast.parse(
        "from numpy import kron\n"
        "def f(a, b): return np.kron(a, b)\n"
        "def g(a, b): return numpy.kron(a, kron(a, b))\n"
        "def h(a):\n"
        "    product = np.kron\n"
        "    return product(a, a)\n"
        "class C:\n"
        "    def k(self): return self.kronecker + np.outer(1, 2)\n"
        "    'a kron in a docstring'\n"
    )
    assert innermost(tree, reads("kron")) == ["f", "g", "g", "h"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_no_gate_kernel_raises(kernel):
    body = functions(tree_of("icqc.py"))[kernel]
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(body))


def test_only_check_start_checks_register_capacity():
    found = owners(calls_to("check_register_capacity"), "icqc.py", "scenario.py")
    assert found == {("icqc.py", "_check_start")}


def test_only_the_verdict_helper_builds_a_property_result():
    assert owners(calls_to("PropertyResult"), "suite.py") == {("suite.py", "_result")}


def test_the_dims_refusal_is_the_propagator_s_and_the_early_walk_s():
    found = owners(raises_message(DIMS_MESSAGE), "dynamics.py")
    assert found == {("dynamics.py", "_segment_steps"), ("dynamics.py", "evolve")}


def test_only_entanglement_trajectory_maps_times_to_segments():
    found = owners(reads("_segment_steps"), *MODULES)
    assert found == {("dynamics.py", "entanglement_trajectory")}


def test_only_icqc_scans_imaginary_parts():
    assert owners(imag_scan, *MODULES) == {("icqc.py", "<module>")}


def test_only_serialize_reads_the_number_abcs():
    assert {module for module, _ in owners(numbers_abc, *MODULES)} == {"serialize.py"}


def test_only_serialize_defines_the_number_predicates():
    assert {module for module, _ in owners(defines(*PREDICATES), *MODULES)} == {"serialize.py"}


def test_scenario_reads_the_predicates_for_the_seed_and_the_duration_shape_alone():
    # _is_int twice in load_scenario: for the schema and for the seed
    tree = tree_of("scenario.py")
    assert innermost(tree, reads("_is_int")) == ["load_scenario", "load_scenario"]
    assert innermost(tree, reads("_is_finite")) == ["parse_segments"]


def test_scenario_maps_library_refusals_through_one_adapter():
    # besides the adapter: the JSON decoding and the two pairs_to_complex reads, which
    # also catch a TypeError or RecursionError and name what they read
    found = innermost(tree_of("scenario.py"), rewraps_value_error)
    assert sorted(found) == ["_refusal", "load_scenario", "parse_matrix", "parse_vector"]


def test_scenario_states_no_count_or_kind_rule():
    tree = tree_of("scenario.py")
    found = innermost(tree, len_against_dims), innermost(tree, names_a_hamiltonian_kind)
    assert found == ([], [])


def test_only_dynamics_names_an_overflow():
    found = {
        module for module in MODULES
        if innermost(without_docstrings(tree_of(module)), names_an_overflow)
    }
    assert found == {"dynamics.py"}


def test_only_the_product_start_forms_a_kron():
    assert owners(reads("kron"), *MODULES) == {("trinary.py", "_product_into")}
