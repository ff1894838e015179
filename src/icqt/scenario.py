"""Scenario files: versioned JSON describing one verification workflow.

Complex numbers appear as [re, im] pairs; vectors are lists of pairs, and
matrices lists of rows of pairs.  Measurement bases may instead be named
("Z", "X", "Y").  See the README for the per-kind field reference.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .icqc import GateOp, IcqcConfig, check_capacity, check_register_capacity, random_program
from .icqc import tomographic_program_n1
from .linalg import Operator, StateVector, seeded_random, subseed
from .serialize import pairs_to_complex
from .suite import DEFAULT_COUNTS
from .trinary import TrinaryDims, TrinaryState, _check_orthonormal, standard_basis
from .dynamics import ProgrammedBlockStructure, TrinaryHamiltonian, random_trinary_hamiltonian

SCHEMA_VERSION = 1
KINDS = ("trinary-build", "dynamics", "born", "icqc", "property-suite")


class ScenarioError(ValueError):
    """Scenario file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class Scenario:
    kind: str
    seed: int
    payload: dict


def _is_finite(x) -> bool:
    """A JSON int or float that a double holds finitely: no boolean, NaN or inf, and no
    integer past the double range (which ``float`` and ``np.isfinite`` refuse by raising)."""
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _is_int(x) -> bool:
    """A JSON integer; booleans are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


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
    if data.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema {data.get('schema')!r}, expected {SCHEMA_VERSION}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"kind must be one of {KINDS}, got {kind!r}")
    seed = data.get("seed", 0) if seed_override is None else seed_override
    if not _is_int(seed) or seed < 0 or seed >= 2**64:
        raise ScenarioError("seed must be an unsigned 64-bit integer")
    return Scenario(kind=kind, seed=seed, payload=data)


def parse_dims(payload: dict) -> TrinaryDims:
    dims = payload.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or not all(_is_int(d) and d >= 1 for d in dims)
    ):
        raise ScenarioError("dims must be a list [d_s, d_a, d_p] of positive integers")
    d_s, d_a, d_p = dims
    check_capacity(d_s * d_a * d_p, f"{d_s}*{d_a}*{d_p}")
    return TrinaryDims(d_s=d_s, d_a=d_a, d_p=d_p)


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
            raise ScenarioError(f"{what}: bad basis name {obj!r}") from None
        if not 0 <= index < dim:
            raise ScenarioError(f"{what}: basis index {index} out of range")
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
        try:
            return standard_basis(obj, dim), obj
        except ValueError as exc:
            raise ScenarioError(f"{what}: {exc}") from exc
    try:
        return _check_orthonormal(parse_matrix(obj, dim, what), dim, what), None
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def parse_branch_bases(payload: dict, dims: TrinaryDims) -> tuple[list[np.ndarray], list[str]]:
    """One basis per programming state, with its label: the basis name, or "custom" for a matrix."""
    raw = payload.get("branch_bases")
    if not isinstance(raw, list) or len(raw) != dims.d_p:
        raise ScenarioError(f"branch_bases must list {dims.d_p} bases (one per programming state)")
    bases, labels = [], []
    for r, obj in enumerate(raw):
        basis, label = parse_basis(obj, dims.d_s, f"branch_bases[{r}]")
        bases.append(basis)
        labels.append("custom" if label is None else label)
    return bases, labels


def _parse_block(obj, dims: TrinaryDims, what: str) -> tuple[Operator, ProgrammedBlockStructure | None]:
    """A block is a raw d_sa x d_sa matrix or a structured second-level dict."""
    if isinstance(obj, dict):
        for key in ("s_basis", "a_generators", "h_s"):
            if key not in obj:
                raise ScenarioError(f"{what}: structured block needs '{key}'")
        s_basis, _ = parse_basis(obj["s_basis"], dims.d_s, f"{what}.s_basis")
        gens = obj["a_generators"]
        if not isinstance(gens, list) or len(gens) != dims.d_s:
            raise ScenarioError(f"{what}.a_generators must list {dims.d_s} matrices")
        a_generators = tuple(
            Operator(parse_matrix(g, dims.d_a, f"{what}.a_generators[{i}]"))
            for i, g in enumerate(gens)
        )
        h_s = Operator(parse_matrix(obj["h_s"], dims.d_s, f"{what}.h_s"))
        try:
            structure = ProgrammedBlockStructure(s_basis, a_generators, h_s)
            with np.errstate(over="ignore"):  # an overflow is refused as non-finite entries
                return structure.assemble(), structure
        except ValueError as exc:
            raise ScenarioError(f"{what}: {exc}") from exc
    return Operator(parse_matrix(obj, dims.d_sa, what)), None


def parse_hamiltonian(
    obj, dims: TrinaryDims, seed: int
) -> tuple[TrinaryHamiltonian, list[ProgrammedBlockStructure | None]]:
    if not isinstance(obj, dict):
        raise ScenarioError("hamiltonian must be an object")
    if "random" in obj:
        kind = obj["random"]
        if kind not in ("pmc", "coupled", "violating"):
            raise ScenarioError(f"hamiltonian.random must be pmc/coupled/violating, got {kind!r}")
        return random_trinary_hamiltonian(dims, subseed(seed, 7), kind=kind), [None] * dims.d_p
    for key in ("h_p", "blocks"):
        if key not in obj:
            raise ScenarioError(f"hamiltonian needs '{key}' (or 'random')")
    h_p = Operator(parse_matrix(obj["h_p"], dims.d_p, "hamiltonian.h_p"))
    raw_blocks = obj["blocks"]
    if not isinstance(raw_blocks, list) or len(raw_blocks) != dims.d_p:
        raise ScenarioError(f"hamiltonian.blocks must list {dims.d_p} blocks")
    blocks, structures = [], []
    for n, raw in enumerate(raw_blocks):
        block, structure = _parse_block(raw, dims, f"hamiltonian.blocks[{n}]")
        blocks.append(block)
        structures.append(structure)
    basis = None
    if "programming_basis" in obj:
        basis = parse_matrix(obj["programming_basis"], dims.d_p, "hamiltonian.programming_basis")
    try:
        h = TrinaryHamiltonian(dims=dims, h_p=h_p, blocks=tuple(blocks), programming_basis=basis)
    except ValueError as exc:
        raise ScenarioError(f"hamiltonian: {exc}") from exc
    return h, structures


def parse_segments(
    payload: dict, dims: TrinaryDims, seed: int
) -> list[tuple[float, TrinaryHamiltonian, list[ProgrammedBlockStructure | None]]]:
    """Either one 'hamiltonian' (a single open-ended segment) or 'segments'."""
    if "segments" in payload and "hamiltonian" in payload:
        raise ScenarioError("give either 'hamiltonian' or 'segments', not both")
    if "hamiltonian" in payload:
        h, structures = parse_hamiltonian(payload["hamiltonian"], dims, seed)
        return [(np.inf, h, structures)]
    raw = payload.get("segments")
    if not isinstance(raw, list) or not raw:
        raise ScenarioError("need 'hamiltonian' or a nonempty 'segments' list")
    out = []
    for k, seg in enumerate(raw):
        if not isinstance(seg, dict) or "duration" not in seg or "hamiltonian" not in seg:
            raise ScenarioError(f"segments[{k}] needs 'duration' and 'hamiltonian'")
        duration = seg["duration"]
        if not (_is_finite(duration) or duration == math.inf) or duration < 0:
            raise ScenarioError(f"segments[{k}].duration must be nonnegative")
        h, structures = parse_hamiltonian(seg["hamiltonian"], dims, subseed(seed, 8, k))
        out.append((float(duration), h, structures))
    return out


def _peak(operators) -> float:
    """The largest entry magnitude of any of ``operators``."""
    with np.errstate(over="ignore"):  # |re + i im| may overflow alone
        return max(float(np.max(np.abs(op.entries))) for op in operators)


def check_finite_evolution(segments, horizon: float) -> None:
    """Refuse a segment whose evolution to time ``horizon`` or whose measurability check
    overflows a double: (d_p max|h_p| + d_sa max_n max|B_n|) max(horizon, 1) bounds every
    assembled entry and phase w t, and 2 d_p max|h_p| max_n max|B_n| every commutator entry
    h'[n, m] (B_n - B_m), as |h'| <= d_p max|h_p| in any basis; alike for structured blocks."""
    for k, (_, h, structures) in enumerate(segments):
        peak_p, peak_b = _peak([h.h_p]), _peak(h.blocks)
        bound = (h.dims.d_p * peak_p + h.dims.d_sa * peak_b) * max(horizon, 1.0)
        if not math.isfinite(bound):
            raise ScenarioError(f"segment {k}: the Hamiltonian overflows a double by t = {horizon}")
        levels = [("", h.dims.d_p, peak_p, peak_b)] + [
            (f"hamiltonian.blocks[{n}]: ", s.d_s, _peak([s.h_s]), _peak(s.a_generators))
            for n, s in enumerate(structures)
            if s is not None
        ]
        for what, dim, peak_program, peak_block in levels:
            if not math.isfinite(2 * dim * peak_program * peak_block):
                raise ScenarioError(
                    f"segment {k}: {what}the measurability commutator overflows a double"
                )


def parse_times(payload: dict) -> tuple[float, ...]:
    raw = payload.get("times")
    if not isinstance(raw, list) or not raw:
        raise ScenarioError("times must be a nonempty list")
    times = []
    for t in raw:
        if not _is_finite(t):
            raise ScenarioError("times must be finite numbers")
        times.append(float(t))
    if times[0] != 0.0 or any(b < a for a, b in zip(times, times[1:])):
        raise ScenarioError("times must ascend and start at 0")
    return tuple(times)


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
        isinstance(t, list) and len(t) == 2 and isinstance(t[0], str) and _is_int(t[1])
        for t in targets
    ):
        raise ScenarioError(f"{what}.targets must be [register, qubit] pairs")
    angle = obj.get("angle")
    if angle is not None and not _is_finite(angle):
        raise ScenarioError(f"{what}.angle must be a finite number")
    try:
        return GateOp(
            kind=obj["kind"],
            targets=tuple((t[0], t[1]) for t in targets),
            angle=None if angle is None else float(angle),
        )
    except ValueError as exc:
        raise ScenarioError(f"{what}: {exc}") from exc


def parse_gate_list(obj, what: str) -> tuple[GateOp, ...]:
    if obj is None:
        return ()
    if not isinstance(obj, list):
        raise ScenarioError(f"{what} must be a list of gates")
    return tuple(parse_gate(g, f"{what}[{i}]") for i, g in enumerate(obj))


def parse_icqc_config(payload: dict, seed: int) -> IcqcConfig:
    n = payload.get("n")
    if not _is_int(n) or n < 1:
        raise ScenarioError("n must be a positive integer")
    for key in ("n_a", "n_p"):
        if key in payload and not _is_int(payload[key]):
            raise ScenarioError(f"{key} must be an integer")
    check_register_capacity(n)
    gates = parse_gate_list(payload.get("gates"), "gates")
    p_circuit = parse_gate_list(payload.get("p_circuit"), "p_circuit")
    initial = payload.get("initial", "uniform")
    program = payload.get("program")
    if program == "tomographic-zxyz":
        if n != 1:
            raise ScenarioError("the tomographic-zxyz program is defined for n = 1")
        table = tomographic_program_n1()
    elif isinstance(program, dict) and "random" in program:
        if not isinstance(program["random"], dict):
            raise ScenarioError("program.random must be an object")
        depth = program["random"].get("depth", 3)
        if not _is_int(depth) or depth < 0:
            raise ScenarioError("program.random.depth must be a nonnegative integer")
        # the table holds 4^n circuits of depth + 1 gates each
        check_capacity(4**n * (depth + 1), f"4^{n}*({depth}+1)", "random program gate count")
        table = random_program(n, depth, np.random.default_rng(subseed(seed, 9)))
    elif isinstance(program, list):
        table = tuple(
            parse_gate_list(entry, f"program[{p}]") for p, entry in enumerate(program)
        )
    else:
        raise ScenarioError(
            "program must be 'tomographic-zxyz', {'random': {...}}, or a list of circuits"
        )
    try:
        return IcqcConfig(
            n=n,
            gate_sequence=gates,
            program_table=table,
            post_program_p_circuit=p_circuit,
            initial=initial,
            n_a=payload.get("n_a"),
            n_p=payload.get("n_p"),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def parse_emit_state(payload: dict) -> bool:
    """The icqc ``emit_state`` flag: absent or null is false, as for ``gates``; any other
    value must be a JSON ``true`` or ``false``."""
    emit = payload.get("emit_state")
    if emit is None:
        return False
    if not isinstance(emit, bool):
        raise ScenarioError("emit_state must be true or false")
    return emit


def parse_suite_options(payload: dict) -> dict:
    """The ``run_property_suite`` keyword arguments a property-suite scenario sets: ``dims_list``
    and the counts of DEFAULT_COUNTS it names."""
    options = {}
    dims_list = payload.get("dims_list")
    if dims_list is not None:
        if not isinstance(dims_list, list) or not dims_list:
            raise ScenarioError("dims_list must be a nonempty list of [d_s, d_a, d_p]")
        options["dims_list"] = tuple(parse_dims({"dims": d}) for d in dims_list)
    for key in DEFAULT_COUNTS:
        if key in payload:
            if not _is_int(payload[key]) or payload[key] < 1:
                raise ScenarioError(f"{key} must be a positive integer")
            options[key] = payload[key]
    return options
