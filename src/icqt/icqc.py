"""Qubit-register trinary computer: n system, n apparatus, 2n programming qubits.

State layout matches TrinaryState: composite index p * 4^n + s * 2^n + a,
with qubit 0 of each register the most significant bit of that register's
index.  The programmed operation conditions on the programming register and
runs one branch circuit per programming value over the S x A amplitudes; the
full-space square matrix is never assembled (the dense reference used in
tests lives in the test suite, not here).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import sqrt
from typing import Sequence

import numpy as np

from .born import DualBornReport, _dual_born_report
from .linalg import StateVector, _check_unit, _cut_entropy
from .serialize import _echo, _is_finite, _is_int
from .trinary import (
    TrinaryDims,
    TrinaryState,
    _branch_spectra,
    _product_into,
    _weights,
    branch_entropies,
)

DEFAULT_MAX_DIM = 4096
_SHOWN_BITS = 64  # a refused total of more bits is named by its formula alone

_SQ2 = 1.0 / sqrt(2.0)
_FIXED_GATES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "TDG": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
}
for _m in _FIXED_GATES.values():
    _m.setflags(write=False)
_ROTATIONS = ("RX", "RY", "RZ")
# Kinds whose matrix is real whatever the angle: CNOT, the real fixed gates and RY.  A run
# of these alone is float64 (``_real_run``); this is icqt's one scan of imaginary parts.
_REAL_KINDS = frozenset(["CNOT", "RY", *(k for k, m in _FIXED_GATES.items() if not m.imag.any())])
REGISTERS = ("P", "S", "A")
# Trailing length from which one batched 2x2 product per leading index beats one
# 2-D product with m (x) I_rest (timed at 2^10 and 2^20 amplitudes).
_BATCHED_REST = 32


class CapacityError(ValueError):
    """Requested register sizes exceed the configured dimension cap."""


def max_total_dim() -> int:
    """Capacity cap on the full-space dimension; ICQT_MAX_DIM overrides."""
    raw = os.environ.get("ICQT_MAX_DIM", str(DEFAULT_MAX_DIM))
    try:
        return int(raw)
    except ValueError as exc:
        raise CapacityError(f"ICQT_MAX_DIM must be an integer, got {_echo(raw)}") from exc


def check_capacity(total: int, what: str, quantity: str = "full dimension") -> None:
    """Refuse a ``quantity`` ``total`` (written ``what``) above the cap.  Its value is shown
    up to _SHOWN_BITS bits; Python writes no integer past 4,300 digits."""
    cap = max_total_dim()
    if total > cap:
        shown = f" = {total}" if total.bit_length() <= _SHOWN_BITS else ""
        raise CapacityError(
            f"{quantity} {what}{shown} exceeds the cap {cap} (set ICQT_MAX_DIM to raise it)"
        )


def check_register_capacity(n: int) -> None:
    """``check_capacity`` of 2^(4n), the full dimension of n-qubit registers.  Any power past
    2^max(cap bits, _SHOWN_BITS) is refused alike, so none larger is built (500 MB at n = 10^9)."""
    exponent = min(4 * n, max(max_total_dim().bit_length(), _SHOWN_BITS))
    check_capacity(2**exponent, f"2^{_echo(4 * n)}")


def _rotation(kind: str, angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[np.exp(-1j * angle / 2), 0], [0, np.exp(1j * angle / 2)]], dtype=complex)


@dataclass(frozen=True)
class GateOp:
    """One gate: a named single-qubit gate, a rotation, or CNOT.

    Targets are (register, qubit) pairs; CNOT takes (control, target) and may
    span registers.  A qubit is an integer (``_is_int``; a numpy integer is kept as
    its int), whose range is the rule of the circuit holding the gate
    (``_check_circuit``); an angle is a finite number (``_is_finite``).
    """

    kind: str
    targets: tuple[tuple[str, int], ...]
    angle: float | None = None

    def __post_init__(self):
        for _, q in self.targets:
            if not _is_int(q):
                raise ValueError(f"qubit {_echo(q)} is not an integer")
        if self.angle is not None and not _is_finite(self.angle):
            raise ValueError(f"angle {_echo(self.angle)} is not a finite number")
        targets = tuple((str(reg), int(q)) for reg, q in self.targets)
        object.__setattr__(self, "targets", targets)
        for reg, _ in targets:
            if reg not in REGISTERS:
                raise ValueError(f"unknown register {_echo(reg)}")
        if len(set(targets)) != len(targets):
            raise ValueError("gate targets must be distinct")
        if self.kind == "CNOT":
            if len(targets) != 2:
                raise ValueError("CNOT takes (control, target)")
            if self.angle is not None:
                raise ValueError("CNOT takes no angle")
        elif self.kind in _FIXED_GATES or self.kind in _ROTATIONS:
            if len(targets) != 1:
                raise ValueError(f"{self.kind} takes one target")
            if (self.angle is None) == (self.kind in _ROTATIONS):
                need = "needs an" if self.angle is None else "takes no"
                raise ValueError(f"{self.kind} {need} angle")
        else:
            raise ValueError(f"unknown gate kind {_echo(self.kind)}")

    def matrix(self) -> np.ndarray:
        if self.kind in _FIXED_GATES:
            return _FIXED_GATES[self.kind]
        return _rotation(self.kind, float(self.angle))


def _apply_single(arr: np.ndarray, m: np.ndarray, axis: int, out: np.ndarray) -> None:
    """Write the 2x2 gate m on one qubit axis of the C-ordered amplitudes ``arr`` into ``out``.

    The axis splits the amplitudes into (2**axis, 2, rest).  A long rest takes one
    batched ``m @``; below _BATCHED_REST numpy's batched matmul would make one tiny
    product per leading index, so the block is one 2-D product with m (x) I_rest.
    """
    block = arr.reshape(2**axis, 2, -1)
    rest = block.shape[2]
    if rest >= _BATCHED_REST:
        np.matmul(m, block, out=out.reshape(block.shape))
        return
    wide = (m[:, None, :, None] * _identity(rest)[None, :, None, :]).reshape(2 * rest, 2 * rest)
    np.matmul(block.reshape(-1, 2 * rest), wide.T, out=out.reshape(-1, 2 * rest))


@lru_cache(maxsize=None)
def _identity(rest: int) -> np.ndarray:
    """The read-only float64 identity of size ``rest``, built once per size."""
    eye = np.eye(rest)
    eye.setflags(write=False)
    return eye


def _apply_cnot(arr: np.ndarray, control: int, target: int, out: np.ndarray) -> None:
    """Write CNOT on the qubit axes (control, target) of the amplitudes ``arr`` into ``out``:
    two strided copies through the view (2^lo, 2, 2^(hi-lo-1), 2, 2^(n-hi-1)) of the lower
    and higher axis, the control's 0 half as it is and its 1 half with the target's swapped."""
    lo, hi = sorted((control, target))
    shape = (2**lo, 2, 2 ** (hi - lo - 1), 2, arr.size >> (hi + 1))
    src, dst = arr.reshape(shape), out.reshape(shape)
    if control < target:
        dst[:, 0] = src[:, 0]
        dst[:, 1] = src[:, 1, :, ::-1]
    else:
        dst[:, :, :, 0] = src[:, :, :, 0]
        dst[:, :, :, 1] = src[:, ::-1, :, 1]


def _apply_gates_nd(
    arr: np.ndarray, gates: Sequence[GateOp], layout: dict[str, tuple[int, int]], spare: np.ndarray
) -> np.ndarray:
    """Apply ``gates`` to the C-ordered amplitudes ``arr``, writing each gate's result into
    the other of ``arr`` and ``spare`` (same size and dtype); returns the one that holds the
    result.

    A float64 ``arr`` takes a contiguous float64 copy of each gate's matrix, whose kind
    the caller has found real (``_REAL_KINDS``): the strided ``m.real`` view would take
    matmul off BLAS.
    """
    real = not np.iscomplexobj(arr)
    for gate in gates:
        if gate.kind == "CNOT":
            (creg, cq), (treg, tq) = gate.targets
            _apply_cnot(arr, layout[creg][0] + cq, layout[treg][0] + tq, spare)
        else:
            reg, q = gate.targets[0]
            m = gate.matrix()
            _apply_single(arr, m.real.copy() if real else m, layout[reg][0] + q, spare)
        arr, spare = spare, arr
    return arr


def _full_layout(n: int) -> dict[str, tuple[int, int]]:
    return {"P": (0, 2 * n), "S": (2 * n, n), "A": (3 * n, n)}


def _sa_layout(n: int) -> dict[str, tuple[int, int]]:
    return {"S": (0, n), "A": (n, n)}


def _check_circuit(where: str, gates, layout: dict[str, tuple[int, int]]) -> tuple[GateOp, ...]:
    """The circuit rule: ``gates`` is a circuit of ``GateOp`` whose every target register is
    in ``layout`` (register -> (first axis, size)) with its qubit in range, so the kernels
    read each target's axis as ``layout[reg][0] + q`` unchecked.  Returns the circuit as a
    tuple, so an iterator is not spent by the check."""
    if isinstance(gates, GateOp):
        raise ValueError(f"{where} must be a circuit of GateOp, got a single GateOp")
    gates = tuple(gates)
    for gate in gates:
        if not isinstance(gate, GateOp):
            raise ValueError(f"{where} must be a circuit of GateOp, got {type(gate).__name__}")
        for reg, q in gate.targets:
            if reg not in layout:
                raise ValueError(f"{where} may not touch register {reg}")
            size = layout[reg][1]
            if not 0 <= q < size:
                raise ValueError(
                    f"{where}: qubit {_echo(q)} out of range for register {reg} of size {size}"
                )
    return gates


def _check_start(n, initial: str) -> None:
    """The start rule: ``n`` is an int (not a bool) of at least 1, its registers pass
    ``check_register_capacity`` before any power of ``n`` is taken, and ``initial`` is
    'uniform' or 'zeros'.  A numpy ``n``, which ``_is_int`` would take, is refused on
    purpose: this rule guards ``4**n``, which a fixed-width integer would wrap."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {_echo(n)}")
    check_register_capacity(n)
    if initial not in ("uniform", "zeros"):
        raise ValueError("initial must be 'uniform' or 'zeros'")


@dataclass(frozen=True)
class IcqcConfig:
    """Run configuration: registers, gate stage, and the programmed stage.

    ``program_table`` needs exactly 4^n entries, each a branch circuit on S and A;
    the optional P-only circuit runs after the branch stage.  ``n`` and ``initial``
    follow the start rule (``_check_start``, checked first), and each circuit the
    circuit rule (``_check_circuit``) on its registers: P, S and A for the gate
    sequence, S and A for a branch, P for the P-only circuit.  The fields keep the
    tuples that rule returns, so a circuit or a table given as an iterator is read
    once.  The integers (``_is_int``) n_a and n_p must obey the law n_a = n, n_p = 2n.
    """

    n: int
    gate_sequence: tuple[GateOp, ...] = ()
    program_table: tuple[tuple[GateOp, ...], ...] = ()
    post_program_p_circuit: tuple[GateOp, ...] = ()
    initial: str = "uniform"
    n_a: int | None = None
    n_p: int | None = None

    def __post_init__(self):
        _check_start(self.n, self.initial)
        for name, default in (("n_a", self.n), ("n_p", 2 * self.n)):
            size = getattr(self, name)
            if size is not None and not _is_int(size):
                raise ValueError(f"{name} must be an integer, got {_echo(size)}")
            object.__setattr__(self, name, default if size is None else int(size))
        if self.n_a != self.n or self.n_p != 2 * self.n:
            raise ValueError(
                f"register law violated: need n_a = n and n_p = 2n, got "
                f"n={self.n}, n_a={self.n_a}, n_p={self.n_p}"
            )
        if isinstance(self.program_table, GateOp):
            raise ValueError("program table must be a table of circuits, got a single GateOp")
        table = tuple(self.program_table)
        if len(table) != 4**self.n:
            raise ValueError(f"program table needs {4 ** self.n} entries, got {len(table)}")
        full, sa = _full_layout(self.n), _sa_layout(self.n)
        kept = {  # the circuits the rule returns, so an iterator is read once
            "gate_sequence": _check_circuit("gate sequence", self.gate_sequence, full),
            "program_table": tuple(_check_circuit(f"branch {p}", c, sa) for p, c in enumerate(table)),
            "post_program_p_circuit": _check_circuit(
                "post-program circuit", self.post_program_p_circuit, {"P": full["P"]}
            ),
        }
        for name, value in kept.items():
            object.__setattr__(self, name, value)

    @property
    def dims(self) -> TrinaryDims:
        return _register_dims(self.n)


def _register_dims(n: int) -> TrinaryDims:
    """Dims of the n-qubit registers: S and A of 2^n levels, P of 4^n."""
    return TrinaryDims(d_s=2**n, d_a=2**n, d_p=4**n)


def random_program(n: int, depth: int, rng: np.random.Generator) -> tuple[tuple[GateOp, ...], ...]:
    """A seeded table of 4^n branch circuits, drawn from ``rng`` branch by branch.

    Each circuit is ``depth`` RY gates, each on a random S or A qubit at an angle
    uniform in [0, pi), then one CNOT from a random S qubit to a random A qubit.
    Before any circuit is drawn, ``depth`` must be an integer (``_is_int``) of at least
    0 and the gate count 4^n (depth + 1) must pass ``check_capacity``.
    """
    if not _is_int(depth) or depth < 0:
        raise ValueError(f"depth must be an integer >= 0, got {_echo(depth)}")
    depth = int(depth)  # a numpy depth would wrap in the gate count
    check_capacity(4**n * (depth + 1), f"4^{n}*({_echo(depth)}+1)", "random program gate count")
    table = []
    for _ in range(4**n):
        circ = [
            GateOp(
                "RY",
                ((("S", "A")[int(rng.integers(2))], int(rng.integers(n))),),
                angle=float(rng.uniform(0, np.pi)),
            )
            for _ in range(depth)
        ]
        circ.append(GateOp("CNOT", (("S", int(rng.integers(n))), ("A", int(rng.integers(n))))))
        table.append(tuple(circ))
    return tuple(table)


def _initial_factors(n: int, initial: str) -> tuple[StateVector, StateVector, StateVector]:
    """The P, S and A factors of the uniform (or all-zeros with 'zeros') start of n-qubit
    registers, whose start ``_check_start`` has passed."""
    dims = _register_dims(n)
    return tuple(StateVector.uniform(d) if initial == "uniform" else StateVector.basis(d, 0)
                 for d in (dims.d_p, dims.d_s, dims.d_a))


def init_state(n: int, initial: str = "uniform") -> TrinaryState:
    """Uniform superposition on every register (or all-zeros with 'zeros')."""
    _check_start(n, initial)
    return TrinaryState.from_product(_register_dims(n), *_initial_factors(n, initial))


def apply_gates(state: TrinaryState, gates: Sequence[GateOp]) -> TrinaryState:
    """Standard state-vector gate application over all three registers.

    The register size n is read off ``state.dims``, which must be (2^n, 2^n, 4^n).
    The gates alternate between a copy of the amplitudes and one spare array.
    """
    n = state.dims.d_s.bit_length() - 1
    if n < 1 or state.dims != _register_dims(n):
        raise ValueError("state does not match an n-qubit trinary register layout")
    layout = _full_layout(n)
    gates = _check_circuit("gate sequence", gates, layout)
    amps = state.dense.amplitudes.copy()
    out = _apply_gates_nd(amps, gates, layout, np.empty_like(amps))
    return TrinaryState.from_dense(state.dims, StateVector._owning(out))


def _programmed_stage(amps: np.ndarray, config: IcqcConfig) -> np.ndarray:
    """The branch circuits on the rows of ``amps``, in place, then the optional P-only
    circuit; returns the array that holds the result (``amps`` or, after a P-only
    circuit, possibly its one spare).

    Each row is one S x A block of 4^n amplitudes; its circuit alternates between the
    row and one spare row of its dtype.  The finite and norm check runs between the two stages.
    """
    rows = amps.reshape(config.dims.d_p, config.dims.d_sa)
    sa_layout = _sa_layout(config.n)
    spare = np.empty(config.dims.d_sa, dtype=amps.dtype)
    for row, circuit in zip(rows, config.program_table):
        if _apply_gates_nd(row, circuit, sa_layout, spare) is spare:
            row[...] = spare
    if not config.post_program_p_circuit:
        return amps
    _check_unit(amps)
    layout = _full_layout(config.n)
    return _apply_gates_nd(amps, config.post_program_p_circuit, layout, np.empty_like(amps))


def apply_programmed_op(state: TrinaryState, config: IcqcConfig) -> TrinaryState:
    """Branch circuits conditioned on P, then the optional P-only circuit
    (``_programmed_stage``), on one copy of the amplitudes that becomes the new state."""
    if state.dims != config.dims:
        raise ValueError("state dims do not match the configuration")
    out = _programmed_stage(state.dense.amplitudes.copy(), config)
    return TrinaryState.from_dense(state.dims, StateVector._owning(out))


@dataclass(frozen=True)
class IcqcRunReport:
    """The entropies and the Born report of a run, with its read-only final amplitudes.

    ``amplitudes`` is the run's buffer itself: float64 when every gate of the
    run is of a real kind (``_real_run``), else complex128.  ``final_state`` is
    built on its first read and kept: a complex buffer is wrapped without a
    copy, a real one is copied once into complex128.
    """

    amplitudes: np.ndarray
    dims: TrinaryDims
    s_psa: float
    s_sa_branches: np.ndarray
    mean_s_sa: float
    born: DualBornReport

    @cached_property
    def final_state(self) -> TrinaryState:
        amps = self.amplitudes
        owned = amps if np.iscomplexobj(amps) else amps.astype(np.complex128)
        return TrinaryState.from_dense(self.dims, StateVector._owning(owned))


def _real_run(config: IcqcConfig) -> bool:
    """Whether every gate of the run, in the gate stage, a branch circuit or the P-only
    circuit, is of a real kind (``_REAL_KINDS``); the start always is real."""
    circuits = (config.gate_sequence, *config.program_table, config.post_program_p_circuit)
    return all(gate.kind in _REAL_KINDS for circuit in circuits for gate in circuit)


def run(config: IcqcConfig) -> IcqcRunReport:
    """init -> gate stage -> programmed stage -> dual entropies and Born report.

    The buffer's dtype is icqt's one choice of float64, made before the run from the
    gate kinds alone (``_real_run``): float64 when every gate is X, Z, H, RY or CNOT,
    else complex128.  The kernels take the dtype they are given.  The start is
    written straight into the buffer (bit for bit ``init_state``), the gate stage
    alternates between it and one spare, the programmed stage rewrites its rows in
    place, and the finite and norm check runs after each stage.  The frozen buffer's
    (d_p, d_sa) rows are read without a copy: one P|(SA) ``_cut_entropy``, then one
    ``_weights`` and one ``_branch_spectra`` pass shared by the entropies and the report.
    A complex run equals ``dual_entropies`` and ``dual_born_report`` of its final state
    bit for bit; a float64 run equals its complex-typed run within the bounds
    documented in ``linalg``.
    """
    n, dims = config.n, config.dims
    amps = np.empty(dims.total, dtype=np.float64 if _real_run(config) else np.complex128)
    _product_into(amps, *_initial_factors(n, config.initial))
    _check_unit(amps)
    if config.gate_sequence:
        amps = _apply_gates_nd(amps, config.gate_sequence, _full_layout(n), np.empty_like(amps))
        _check_unit(amps)
    amps = _programmed_stage(amps, config)
    _check_unit(amps)
    amps.setflags(write=False)
    rows = amps.reshape(dims.d_p, dims.d_sa)
    # P|(SA) first, as in dual_entropies: on a real icqc-n5 buffer (seed 2026, 2 vCPU) a
    # process peaked at 63.5-64.2 MB this way and at 64.9-65.0 MB the other way (ru_maxrss,
    # 4 runs each)
    s_psa = _cut_entropy(rows)
    weights = _weights(rows)
    spectra = _branch_spectra(dims, rows, weights)
    branches = branch_entropies(spectra)
    return IcqcRunReport(
        amplitudes=amps,
        dims=dims,
        s_psa=s_psa,
        s_sa_branches=branches,
        mean_s_sa=float(np.mean(branches)),
        born=_dual_born_report(dims, spectra, weights),
    )


def pointer_branch_circuit(basis_name: str) -> tuple[GateOp, ...]:
    """Single-qubit pointer measurement of a named basis as an S0->A0 circuit."""
    cnot = GateOp("CNOT", (("S", 0), ("A", 0)))
    if basis_name == "Z":
        return (cnot,)
    if basis_name == "X":
        h = GateOp("H", (("S", 0),))
        return (h, cnot, h)
    if basis_name == "Y":
        s0 = (("S", 0),)
        return (GateOp("SDG", s0), GateOp("H", s0), cnot, GateOp("H", s0), GateOp("S", s0))
    raise ValueError(f"unknown basis name {_echo(basis_name)}")


def tomographic_program_n1() -> tuple[tuple[GateOp, ...], ...]:
    """The informationally complete (Z, X, Y, Z) branch table for n = 1."""
    return tuple(pointer_branch_circuit(b) for b in ("Z", "X", "Y", "Z"))
