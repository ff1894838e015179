"""Scenario files: versioned JSON describing one verification workflow.

Complex numbers appear as [re, im] pairs; vectors are lists of pairs, and
matrices lists of rows of pairs.  Measurement bases may instead be named
("Z", "X", "Y").  See the README for the per-kind field reference.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .icqc import CapacityError, GateOp, IcqcConfig, _check_start, check_capacity, random_program
from .icqc import tomographic_program_n1
from .linalg import Operator, StateVector, seeded_random, subseed
from .serialize import _echo, _is_finite, _is_int, pairs_to_complex
from .trinary import ProgrammedUnitary, TrinaryDims, TrinaryState, _check_orthonormal
from .trinary import build_programmed_unitary, standard_basis
from .dynamics import ProgrammedBlockStructure, TrinaryHamiltonian, _check_times
from .dynamics import random_trinary_hamiltonian

SCHEMA_VERSION = 1
KINDS = ("trinary-build", "dynamics", "born", "icqc", "property-suite")


class ScenarioError(ValueError):
    """Scenario file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class Scenario:
    kind: str
    seed: int
    payload: dict


@contextmanager
def _refusal(what: str = ""):
    """The one bridge from a library refusal to a scenario error: a ``ValueError`` becomes
    ``ScenarioError("<what>: <message>")`` (or the message alone), a ``CapacityError`` stays."""
    try:
        yield
    except CapacityError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{what}: {exc}" if what else str(exc)) from exc


def load_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {p}")
    try:  # not UTF-8, nested past the recursion limit or an integer past the digit limit
        data = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"invalid JSON in {p}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    schema = data.get("schema")
    if not (_is_int(schema) and schema == SCHEMA_VERSION):
        raise ScenarioError(f"unsupported schema {_echo(schema)}, expected {SCHEMA_VERSION}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"kind must be one of {KINDS}, got {_echo(kind)}")
    seed = data.get("seed", 0) if seed_override is None else seed_override
    if not _is_int(seed) or seed < 0 or seed >= 2**64:
        raise ScenarioError("seed must be an unsigned 64-bit integer")
    return Scenario(kind=kind, seed=seed, payload=data)


def parse_dims(payload: dict) -> TrinaryDims:
    raw = payload.get("dims")
    if not isinstance(raw, list) or len(raw) != 3:
        raise ScenarioError("dims must be a list [d_s, d_a, d_p] of positive integers")
    with _refusal("dims"):
        dims = TrinaryDims(*raw)
    check_capacity(dims.total, "*".join(_echo(d) for d in raw))
    return dims


def parse_matrix(obj, dim: int, what: str) -> np.ndarray:
    try:
        m = pairs_to_complex(obj)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{what}: {exc}") from exc
    if m.shape != (dim, dim):
        raise ScenarioError(f"{what} must be {dim}x{dim}, got shape {m.shape}")
    return m


def parse_vector(obj, dim: int, what: str) -> StateVector:
    if obj == "uniform":
        return StateVector.uniform(dim)
    if isinstance(obj, str) and obj.startswith("basis"):
        digits = obj[len("basis"):]
        try:
            if not (digits.isascii() and digits.isdigit()):  # int() also reads signs, spaces, _
                raise ValueError(digits)
            index = int(digits)  # which refuses more digits than Python reads
        except ValueError:
            raise ScenarioError(f"{what}: bad basis name {_echo(obj)}") from None
        with _refusal(what):
            return StateVector.basis(dim, index)
    try:
        v = pairs_to_complex(obj)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{what}: {exc}") from exc
    if v.shape != (dim,):
        raise ScenarioError(f"{what} must have length {dim}")
    if not v.any():
        raise ScenarioError(f"{what} is the zero vector")
    with np.errstate(all="ignore"):  # |v|^2 may underflow to 0, be subnormal or overflow
        unit = v / np.linalg.norm(v)
    try:
        return StateVector(unit)
    except ValueError:  # non-finite entries, or a NormalizationError
        raise ScenarioError(f"{what} cannot be normalized in double precision") from None


def parse_basis(obj, dim: int, what: str) -> tuple[np.ndarray, str | None]:
    """A named basis (Z/X/Y) or an explicit matrix of basis columns."""
    if isinstance(obj, str):
        with _refusal(what):
            return standard_basis(obj, dim), obj
    with _refusal():  # a ScenarioError of parse_matrix keeps its message
        return _check_orthonormal(parse_matrix(obj, dim, what), dim, what), None


def parse_branch_bases(payload: dict, dims: TrinaryDims) -> tuple[ProgrammedUnitary, list]:
    """The programmed unitary of one basis per programming state, and the bases' labels."""
    raw = payload.get("branch_bases")
    if not isinstance(raw, list):
        raise ScenarioError("branch_bases must be a list of bases (one per programming state)")
    bases, labels = [], []
    for r, obj in enumerate(raw):
        basis, label = parse_basis(obj, dims.d_s, f"branch_bases[{r}]")
        bases.append(basis)
        labels.append("custom" if label is None else label)
    with _refusal("branch_bases"):
        return build_programmed_unitary(dims, bases), labels


def _parse_block(obj, dims: TrinaryDims, what: str) -> tuple[Operator, ProgrammedBlockStructure | None]:
    """A block is a raw d_sa x d_sa matrix or a structured second-level dict."""
    if isinstance(obj, dict):
        for key in ("s_basis", "a_generators", "h_s"):
            if key not in obj:
                raise ScenarioError(f"{what}: structured block needs '{key}'")
        s_basis, _ = parse_basis(obj["s_basis"], dims.d_s, f"{what}.s_basis")
        gens = obj["a_generators"]
        if not isinstance(gens, list):
            raise ScenarioError(f"{what}.a_generators must be a list of matrices")
        a_generators = tuple(
            Operator(parse_matrix(g, dims.d_a, f"{what}.a_generators[{i}]"))
            for i, g in enumerate(gens)
        )
        h_s = Operator(parse_matrix(obj["h_s"], dims.d_s, f"{what}.h_s"))
        with _refusal(what):
            structure = ProgrammedBlockStructure(s_basis, a_generators, h_s)
        return structure.assemble(), structure
    return Operator(parse_matrix(obj, dims.d_sa, what)), None


def parse_hamiltonian(
    obj, dims: TrinaryDims, seed: int, what: str
) -> tuple[TrinaryHamiltonian, list[ProgrammedBlockStructure | None]]:
    """The Hamiltonian at field path ``what``, which every refusal names."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{what} must be an object")
    if "random" in obj:
        with _refusal(f"{what}.random"):
            h = random_trinary_hamiltonian(dims, subseed(seed, 7), kind=obj["random"])
        return h, [None] * dims.d_p
    for key in ("h_p", "blocks"):
        if key not in obj:
            raise ScenarioError(f"{what} needs '{key}' (or 'random')")
    h_p = Operator(parse_matrix(obj["h_p"], dims.d_p, f"{what}.h_p"))
    raw_blocks = obj["blocks"]
    if not isinstance(raw_blocks, list):
        raise ScenarioError(f"{what}.blocks must be a list of blocks")
    blocks, structures = [], []
    for n, raw in enumerate(raw_blocks):
        block, structure = _parse_block(raw, dims, f"{what}.blocks[{n}]")
        blocks.append(block)
        structures.append(structure)
    basis = None
    if "programming_basis" in obj:
        basis = parse_matrix(obj["programming_basis"], dims.d_p, f"{what}.programming_basis")
    with _refusal(what):
        h = TrinaryHamiltonian(dims=dims, h_p=h_p, blocks=tuple(blocks), programming_basis=basis)
    return h, structures


def parse_segments(
    payload: dict, dims: TrinaryDims, seed: int
) -> list[tuple[float, TrinaryHamiltonian, list[ProgrammedBlockStructure | None]]]:
    """Either one 'hamiltonian' (a single open-ended segment) or 'segments'."""
    if "segments" in payload and "hamiltonian" in payload:
        raise ScenarioError("give either 'hamiltonian' or 'segments', not both")
    if "hamiltonian" in payload:
        h, structures = parse_hamiltonian(payload["hamiltonian"], dims, seed, "hamiltonian")
        return [(np.inf, h, structures)]
    raw = payload.get("segments")
    if not isinstance(raw, list) or not raw:
        raise ScenarioError("need 'hamiltonian' or a nonempty 'segments' list")
    out = []
    for k, seg in enumerate(raw):
        if not isinstance(seg, dict) or "duration" not in seg or "hamiltonian" not in seg:
            raise ScenarioError(f"segments[{k}] needs 'duration' and 'hamiltonian'")
        duration = seg["duration"]  # its sign is the walk's rule (``_segment_steps``)
        if not (_is_finite(duration) or duration == math.inf):
            raise ScenarioError(f"segments[{k}].duration must be a number")
        what = f"segments[{k}].hamiltonian"
        h, structures = parse_hamiltonian(seg["hamiltonian"], dims, subseed(seed, 8, k), what)
        out.append((float(duration), h, structures))
    return out


def parse_times(payload: dict) -> tuple[float, ...]:
    raw = payload.get("times")
    if not isinstance(raw, list):
        raise ScenarioError("times must be a nonempty list")
    with _refusal():
        return _check_times(raw)


def parse_initial_state(payload: dict, dims: TrinaryDims, seed: int) -> TrinaryState:
    obj = payload.get("initial_state", {"random": "separable"})
    if not isinstance(obj, dict):
        raise ScenarioError("initial_state must be an object")
    if "random" in obj:
        kind = obj["random"]
        if kind == "separable":
            return TrinaryState.from_product(
                dims,
                seeded_random("state", dims.d_p, subseed(seed, 4)),
                seeded_random("state", dims.d_s, subseed(seed, 5)),
                seeded_random("state", dims.d_a, subseed(seed, 6)),
            )
        if kind == "generic":
            return TrinaryState.from_dense(
                dims, seeded_random("state", dims.total, subseed(seed, 4))
            )
        raise ScenarioError("initial_state.random must be 'separable' or 'generic'")
    if "product" in obj:
        prod = obj["product"]
        for key in ("chi", "system", "apparatus"):
            if not isinstance(prod, dict) or key not in prod:
                raise ScenarioError(f"initial_state.product needs '{key}'")
        return TrinaryState.from_product(
            dims,
            parse_vector(prod["chi"], dims.d_p, "initial_state.product.chi"),
            parse_vector(prod["system"], dims.d_s, "initial_state.product.system"),
            parse_vector(prod["apparatus"], dims.d_a, "initial_state.product.apparatus"),
        )
    raise ScenarioError("initial_state needs 'random' or 'product'")


def parse_gate(obj, what: str) -> GateOp:
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str) or "targets" not in obj:
        raise ScenarioError(f"{what} must be an object with a 'kind' name and 'targets'")
    targets = obj["targets"]
    if not isinstance(targets, list) or not all(
        isinstance(t, list) and len(t) == 2 and isinstance(t[0], str) for t in targets
    ):
        raise ScenarioError(f"{what}.targets must be [register, qubit] pairs")
    with _refusal(what):
        return GateOp(obj["kind"], tuple((t[0], t[1]) for t in targets), obj.get("angle"))


def parse_gate_list(obj, what: str) -> tuple[GateOp, ...]:
    if obj is None:
        return ()
    if not isinstance(obj, list):
        raise ScenarioError(f"{what} must be a list of gates")
    return tuple(parse_gate(g, f"{what}[{i}]") for i, g in enumerate(obj))


def parse_icqc_config(payload: dict, seed: int) -> IcqcConfig:
    n = payload.get("n")
    initial = payload.get("initial", "uniform")
    with _refusal():  # the start rule, before any table of 4^n circuits is built
        _check_start(n, initial)
    gates = parse_gate_list(payload.get("gates"), "gates")
    p_circuit = parse_gate_list(payload.get("p_circuit"), "p_circuit")
    program = payload.get("program")
    if program == "tomographic-zxyz":
        if n != 1:
            raise ScenarioError("the tomographic-zxyz program is defined for n = 1")
        table = tomographic_program_n1()
    elif isinstance(program, dict) and "random" in program:
        if not isinstance(program["random"], dict):
            raise ScenarioError("program.random must be an object")
        depth, rng = program["random"].get("depth", 3), np.random.default_rng(subseed(seed, 9))
        with _refusal("program.random"):
            table = random_program(n, depth, rng)
    elif isinstance(program, list):
        table = tuple(parse_gate_list(entry, f"program[{p}]") for p, entry in enumerate(program))
    else:
        raise ScenarioError(
            "program must be 'tomographic-zxyz', {'random': {...}}, or a list of circuits"
        )
    with _refusal():
        return IcqcConfig(
            n=n,
            gate_sequence=gates,
            program_table=table,
            post_program_p_circuit=p_circuit,
            initial=initial,
            n_a=payload.get("n_a"),
            n_p=payload.get("n_p"),
        )


def parse_emit_state(payload: dict) -> bool:
    """The icqc ``emit_state`` flag: absent or null is false, as for ``gates``; any other
    value must be a JSON ``true`` or ``false``."""
    emit = payload.get("emit_state")
    if emit is None:
        return False
    if not isinstance(emit, bool):
        raise ScenarioError("emit_state must be true or false")
    return emit
