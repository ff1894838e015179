"""Trinary Hamiltonians, measurability checks, and the dual dynamics.

A trinary Hamiltonian is H_P on the programming space plus one Hermitian
block per programming basis state acting on S x A.  When the programmed part
commutes with H_P (the measurability condition) the propagator factorizes
into a programming-side propagator times independent per-branch propagators,
and evolution runs block-by-block without ever forming the full-space matrix.
The form H_prog (x) I + sum_n |e_n><e_n| (x) B_n serves three levels: P
conditions S x A (``TrinaryHamiltonian``), S conditions A in one block
(``ProgrammedBlockStructure``), and S x A conditions P in the swapped variant.
They share one core over (H_prog, blocks, basis): one validator, one
assembler, one conditioning frame h' = basis^dagger H_prog basis, the
blockwise check (``conditioned_commutator_norm``) and one checked path to the
``FactorizedPropagator``.  ``DensePropagator`` (and ``evolve_full``), the dense
reference for that claim, splits H by the program states h' does not couple.

Time dependence is piecewise constant: ``schedule_states`` walks a list of
(duration, hamiltonian) segments back to back with the propagator it is given.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .linalg import (
    DimensionError,
    HermiticityError,
    HermitianSpectrum,
    Operator,
    StateVector,
    random_hermitian,
    seeded_random,
)
from .trinary import TrinaryDims, TrinaryState, _check_orthonormal, dual_entropies

COMMUTATION_TOL = 1e-10
_DIAG_TOL = 1e-13  # below this the programming Hamiltonian counts as diagonal


class FactorizationPreconditionError(ValueError):
    """Factorized evolution requested while the measurability condition fails."""


class ScheduleError(ValueError):
    """A schedule with a negative duration, or one that ends before a requested time."""


@dataclass(frozen=True)
class CommutatorCheck:
    commutator_norm: float
    satisfied: bool


def _validate_conditioned(h_program: Operator, blocks: Sequence[Operator], basis, dims, names):
    """Check the (H_prog, blocks, basis) of one level; return the basis as complex.

    ``dims`` is (program dim, block dim), a block dim of None meaning the first
    block's; ``names`` name the program side, a block and the basis in messages.
    """
    (program_dim, block_dim), (program, block, basis_name) = dims, names
    if h_program.dim != program_dim:
        raise DimensionError(f"{program} must be {program_dim}x{program_dim}")
    if not h_program.is_hermitian():
        raise HermiticityError(f"{program} is not Hermitian")
    if len(blocks) != program_dim:
        raise DimensionError(f"need {program_dim} {block}s, got {len(blocks)}")
    block_dim = blocks[0].dim if block_dim is None else block_dim
    for n, b in enumerate(blocks):
        if b.dim != block_dim:
            raise DimensionError(f"{block} {n} must be {block_dim}x{block_dim}")
        if not b.is_hermitian():
            raise HermiticityError(f"{block} {n} is not Hermitian")
    if basis is None:
        return None
    return _check_orthonormal(basis, program_dim, basis_name)


def _assemble_conditioned(h_program, blocks, basis) -> np.ndarray:
    """H_prog (x) I + sum_n |e_n><e_n| (x) B_n as one dense array.

    The blocks are written into a (d, d_block, d, d_block) view, then H_prog is
    added on its block diagonal: entry for entry the Kronecker form with the
    programmed terms summed first.  With basis None, leading batch axes of
    ``h_program`` and ``blocks`` give one such matrix per batch index.
    """
    *batch, d, b, _ = np.shape(blocks)
    out = np.zeros((*batch, d, b, d, b), dtype=complex)
    for n, block in enumerate(np.moveaxis(blocks, -3, 0)):
        if basis is None:
            out[..., n, :, n, :] = block
        else:
            proj = np.outer(basis[:, n], basis[:, n].conj())
            out += proj[:, None, :, None] * block[None, :, None, :]
    out[..., range(b), :, range(b)] += h_program
    return out.reshape(*batch, d * b, d * b)


def _conditioning_frame(h_program: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    """h' = basis^dagger H_prog basis: the program side over the conditioning states."""
    return h_program if basis is None else basis.conj().T @ h_program @ basis


def _zero_pattern_components(h: np.ndarray) -> list[np.ndarray]:
    """The connected components of (h != 0) | (h != 0)^T, symmetrized because ``eigh``
    reads one triangle only: per size g, the (k, g) stack of the k components' ascending
    indices.  One breadth-first pass from each unseen root reads each row once."""
    coupled = (h != 0) | (h != 0).T
    unseen = np.ones(h.shape[0], dtype=bool)
    by_size: dict[int, list[np.ndarray]] = {}
    for root in range(h.shape[0]):
        if unseen[root]:
            members = frontier = np.array([root])
            while frontier.size:
                unseen[frontier] = False
                frontier = np.flatnonzero(coupled[frontier].any(axis=0) & unseen)
                members = np.concatenate((members, frontier))
            by_size.setdefault(members.size, []).append(np.sort(members))
    return [np.stack(group) for group in by_size.values()]


def _commutator_check(h_program, blocks, basis) -> CommutatorCheck:
    norm = conditioned_commutator_norm(h_program, blocks, basis)
    return CommutatorCheck(commutator_norm=norm, satisfied=norm <= COMMUTATION_TOL)


def _checked_propagator(check: CommutatorCheck, triple) -> FactorizedPropagator:
    """The factorized propagator of ``triple``, whose measurability ``check`` must hold."""
    if not check.satisfied:
        raise FactorizationPreconditionError(
            f"measurability condition violated (commutator norm {check.commutator_norm:.3e})"
        )
    return FactorizedPropagator(*triple)


@dataclass(frozen=True)
class TrinaryHamiltonian:
    """H_P plus one S x A block per programming basis state.

    ``programming_basis`` is a d_p x d_p matrix whose columns are the
    programming states the blocks are conditioned on; None means the
    computational basis.
    """

    dims: TrinaryDims
    h_p: Operator
    blocks: tuple[Operator, ...]
    programming_basis: np.ndarray | None = None

    def __post_init__(self):
        basis = _validate_conditioned(
            self.h_p, self.blocks, self.programming_basis, (self.dims.d_p, self.dims.d_sa),
            ("h_p", "block", "programming basis"),
        )
        object.__setattr__(self, "programming_basis", basis)

    @property
    def _triple(self):
        return self.h_p.entries, [b.entries for b in self.blocks], self.programming_basis

    def full_operator(self) -> Operator:
        """H_P (x) I plus sum_n |e_n><e_n| (x) block_n on the full space."""
        return Operator(_assemble_conditioned(*self._triple))

    def propagator(self) -> FactorizedPropagator:
        """The factorized propagator; exact only when ``check_pmc`` holds."""
        return FactorizedPropagator(*self._triple)


@dataclass(frozen=True)
class ProgrammedBlockStructure:
    """Second-level structure of one S x A block.

    The block decomposes as sum_i |eps_i><eps_i| (x) H_A[i] + H_S (x) I over
    an orthonormal S basis (columns of ``s_basis``).
    """

    s_basis: np.ndarray
    a_generators: tuple[Operator, ...]
    h_s: Operator

    def __post_init__(self):
        basis = _validate_conditioned(
            self.h_s, self.a_generators, self.s_basis, (self.d_s, None),
            ("h_s", "apparatus generator", "S basis"),
        )
        object.__setattr__(self, "s_basis", basis)

    @property
    def d_s(self) -> int:
        return self.h_s.dim

    @property
    def d_a(self) -> int:
        return self.a_generators[0].dim

    @property
    def _triple(self):
        return self.h_s.entries, [g.entries for g in self.a_generators], self.s_basis

    def assemble(self) -> Operator:
        return Operator(_assemble_conditioned(*self._triple))


def conditioned_commutator_norm(
    h_program: np.ndarray,
    blocks: Sequence[np.ndarray],
    basis: np.ndarray | None = None,
) -> float:
    """Max-entry norm of [sum_n |e_n><e_n| (x) B_n, H_prog (x) I], blockwise.

    The norm is taken in the conditioning basis (the columns e_n of
    ``basis``, computational when None), where block (n, m) of the
    commutator is h'[n, m] (B_n - B_m) with h' = basis^dagger H_prog basis.
    The difference form is exactly 0 wherever h'[n, m] or B_n - B_m is, so a
    row takes only the m with h'[n, m] != 0: the blocks are finite, each
    skipped block is exactly 0 and the max keeps its bits.  A row without
    zeros is taken whole, without the gather.  One row of blocks at a time,
    so memory is len(blocks) * d_block^2 and no full-space matrix is formed.
    """
    h_program = _conditioning_frame(h_program, basis)
    stack = np.stack(blocks)
    norm = 0.0
    for n in range(len(stack)):
        coupling = h_program[n]
        coupled = np.flatnonzero(coupling)
        if coupled.size == 0:
            continue
        if coupled.size < coupling.size:
            row = coupling[coupled, None, None] * (stack[n] - stack[coupled])
        else:
            row = coupling[:, None, None] * (stack[n] - stack)
        norm = max(norm, float(np.max(np.abs(row))))
    return norm


def check_pmc(h: TrinaryHamiltonian) -> CommutatorCheck:
    """Measurability of the programming side: [programmed part, H_P (x) I]."""
    return _commutator_check(*h._triple)


def check_sapmc(block: ProgrammedBlockStructure) -> CommutatorCheck:
    """Programmed measurability inside one block: [block, H_S (x) I]."""
    return _commutator_check(*block._triple)


class _ConditionedPropagator:
    """exp(-i H t) for H = H_prog (x) I + sum_n |e_n><e_n| (x) B_n, decomposed once.

    ``blocks[n]`` is conditioned on column n of ``basis`` (computational when None).
    Over those states H reads h' (x) I plus the block diagonal of the B_n, and a
    subclass decomposes (h', blocks) and steps in that frame.
    """

    def __init__(self, h_program: np.ndarray, blocks: Sequence[np.ndarray], basis):
        self._basis = basis
        self._decompose(_conditioning_frame(h_program, basis), np.stack(blocks))

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        """Evolve a (program_dim, target_dim) amplitude matrix for time t."""
        w = self._basis
        if w is None:
            return self._step(psi, t)
        return w @ self._step(w.conj().T @ psi, t)

    def evolve(self, state: TrinaryState, t: float) -> TrinaryState:
        """``apply`` on the (d_p, d_sa) amplitude matrix of a trinary state."""
        out = self.apply(state.as_matrix(), t)
        return TrinaryState.from_dense(state.dims, StateVector(out.reshape(-1)))


class FactorizedPropagator(_ConditionedPropagator):
    """When H_prog commutes with the programmed part: the program-side propagator, then
    one block propagator per program state, from one ``eigh`` of h' and one batched
    ``eigh`` of the blocks.  An h' diagonal within _DIAG_TOL evolves by exact
    per-component phases instead, so empty program components stay exactly zero.
    """

    def _decompose(self, h_program: np.ndarray, blocks: np.ndarray) -> None:
        self._energies = np.real(np.diag(h_program))
        diagonal = np.max(np.abs(h_program - np.diag(np.diag(h_program)))) <= _DIAG_TOL
        self._program = None if diagonal else HermitianSpectrum.of(h_program)
        self._blocks = HermitianSpectrum.of(blocks)  # one batched eigh for all blocks

    def _step(self, psi: np.ndarray, t: float) -> np.ndarray:
        if self._program is None:
            out = np.exp(-1j * self._energies * t)[:, None] * psi
        else:
            out = self._program.apply(psi, t)
        return self._blocks.apply(out[..., None], t)[..., 0]  # row n is one column of block n


class DensePropagator(_ConditionedPropagator):
    """Exact whether or not the measurability condition holds: the brute-force reference.

    H is the direct sum of one (g d_sa)^2 matrix per connected component of the exact
    zero pattern of h'.  Per component size g, one assembler call builds them and one
    batched ``eigh`` diagonalises them, at sum_k (g_k d_sa)^3 cost.  A step gathers each
    component's amplitudes, applies its spectrum and scatters them back.
    """

    def __init__(self, h: TrinaryHamiltonian):
        super().__init__(*h._triple)

    def _decompose(self, h_program: np.ndarray, blocks: np.ndarray) -> None:
        self._groups = []  # per component size: the (k, g) program states and their spectra
        for index in _zero_pattern_components(h_program):
            program = h_program[index[:, :, None], index[:, None, :]]
            stack = _assemble_conditioned(program, blocks[index], None)
            if not np.isfinite(stack).all():  # finite blocks may still sum past the double range
                raise ValueError("non-finite entries")
            self._groups.append((index, HermitianSpectrum.of(stack)))

    def _step(self, psi: np.ndarray, t: float) -> np.ndarray:
        out = np.empty(psi.shape, dtype=complex)
        for index, spectrum in self._groups:
            x = psi[index].reshape(*spectrum.values.shape, 1)
            out[index] = spectrum.apply(x, t).reshape(*index.shape, -1)
        return out


def evolve_full(h: TrinaryHamiltonian, state: TrinaryState, t: float) -> TrinaryState:
    """One step of ``DensePropagator``: the brute-force oracle."""
    if h.dims != state.dims:
        raise DimensionError("hamiltonian and state dims differ")
    return DensePropagator(h).evolve(state, t)


def evolve_factorized(h: TrinaryHamiltonian, state: TrinaryState, t: float) -> TrinaryState:
    """Blockwise dual evolution; requires the measurability condition.

    ``h.propagator().evolve(state, t)`` is the same formula without the check
    (used to demonstrate that the condition is not vacuous).
    """
    if h.dims != state.dims:
        raise DimensionError("hamiltonian and state dims differ")
    return _checked_propagator(check_pmc(h), h._triple).evolve(state, t)


def evolve_programmed_block(
    block: ProgrammedBlockStructure, sa_state: StateVector, t: float
) -> StateVector:
    """Second-level factorized evolution of one S x A block."""
    if sa_state.dim != block.d_s * block.d_a:
        raise DimensionError("state does not live on this block's S x A space")
    prop = _checked_propagator(check_sapmc(block), block._triple)
    out = prop.apply(sa_state.amplitudes.reshape(block.d_s, block.d_a), t)
    return StateVector(out.reshape(-1))


def schedule_states(
    segments: Sequence[tuple[float, TrinaryHamiltonian]], state: TrinaryState,
    times: Sequence[float],
    propagator: Callable[[TrinaryHamiltonian], DensePropagator | FactorizedPropagator],
) -> Iterator[TrinaryState]:
    """Yield the state at each time (ascending from 0) under back-to-back segments.

    ``propagator(h)`` decomposes a segment once; each is dropped before the next
    is built.  A time lies in the first segment whose end (``math.fsum`` of the durations
    so far) is at or past it, one step from that segment's start: the time minus the
    earlier durations, clamped to [0, duration].  Every time is mapped first, so a
    too-short schedule raises ``ScheduleError`` before any segment is decomposed.
    """
    times = [float(t) for t in times]
    if not times or times[0] != 0.0 or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must ascend and start at 0")
    if not all(duration >= 0 for duration, _ in segments):
        raise ScheduleError("segment durations must be nonnegative")
    durations = [duration for duration, _ in segments]
    ends = [math.fsum(durations[: k + 1]) for k in range(len(durations))]
    steps = [[] for _ in durations]  # steps[k]: the steps of the times in segment k
    for t in times:
        k = bisect.bisect_left(ends, t)
        if k == len(ends):
            raise ScheduleError(f"schedule is shorter than requested time {t}")
        for duration in durations[:k]:
            t -= duration
        steps[k].append(min(max(t, 0.0), durations[k]))
    del steps[k + 1 :]  # the segments past the last time are never decomposed

    start = state
    for k, ((duration, h), segment_steps) in enumerate(zip(segments, steps)):
        prop = propagator(h)
        for step in segment_steps:
            yield prop.evolve(start, step)
        if k + 1 < len(steps):
            start = prop.evolve(start, duration)
        del prop


def evolve_swapped_factorized(
    h_sa: Operator,
    blocks_on_p: Sequence[Operator],
    state: TrinaryState,
    t: float,
    sa_basis: np.ndarray | None = None,
) -> TrinaryState:
    """Symmetric variant where S x A programs the evolution of P.

    Realized by transposing the (P, SA) amplitude matrix and reusing the same
    blockwise engine with the roles exchanged; ``blocks_on_p`` holds one
    Hermitian P-space generator per SA programming state.
    """
    dims = state.dims
    sa_basis = _validate_conditioned(
        h_sa, blocks_on_p, sa_basis, (dims.d_sa, dims.d_p), ("h_sa", "swapped block", "SA basis")
    )
    triple = (h_sa.entries, [b.entries for b in blocks_on_p], sa_basis)
    prop = _checked_propagator(_commutator_check(*triple), triple)
    out = prop.apply(state.as_matrix().T, t)  # (d_sa, d_p): SA is now the program side
    return TrinaryState.from_dense(dims, StateVector(out.T.reshape(-1)))


@dataclass(frozen=True)
class EntanglementTrajectory:
    """Entropies along an evolution: P|(SA) and per-branch S|A, per time."""

    times: tuple[float, ...]
    s_psa: np.ndarray
    s_sa_branches: np.ndarray  # shape (len(times), d_p)
    used_factorized: bool

    def __post_init__(self):
        object.__setattr__(self, "s_psa", np.asarray(self.s_psa, dtype=float))
        object.__setattr__(self, "s_sa_branches", np.asarray(self.s_sa_branches, dtype=float))


def entanglement_trajectory(
    h: TrinaryHamiltonian, state: TrinaryState, times: Sequence[float]
) -> EntanglementTrajectory:
    """Record dual entropies at the given times (ascending, starting at 0)."""
    times = tuple(float(t) for t in times)
    factorized = check_pmc(h).satisfied
    propagator = TrinaryHamiltonian.propagator if factorized else DensePropagator

    s_psa = np.zeros(len(times))
    s_branches = np.zeros((len(times), h.dims.d_p))
    for k, current in enumerate(schedule_states([(np.inf, h)], state, times, propagator)):
        s_psa[k], s_branches[k] = dual_entropies(current)
    return EntanglementTrajectory(
        times=times, s_psa=s_psa, s_sa_branches=s_branches, used_factorized=factorized
    )


def random_trinary_hamiltonian(
    dims: TrinaryDims, seed, kind: str = "pmc"
) -> TrinaryHamiltonian:
    """Seeded Hamiltonian families for verification runs.

    kind "pmc": H_P diagonal in the programming basis, distinct blocks (the
    measurability condition holds exactly).  kind "coupled": H_P mixes
    programming states pairwise while paired blocks are identical, so the
    condition still holds with a non-diagonal H_P.  kind "violating": generic
    H_P with distinct blocks, so the condition fails.
    """
    rng = np.random.default_rng(seed)
    d_p, d_sa = dims.d_p, dims.d_sa
    if kind == "pmc":
        h_p = Operator(np.diag(rng.normal(size=d_p)).astype(complex))
        blocks = tuple(random_hermitian(rng, d_sa) for _ in range(d_p))
    elif kind == "coupled":
        h_p_entries = np.zeros((d_p, d_p), dtype=complex)
        blocks_list: list[Operator] = [None] * d_p  # type: ignore[list-item]
        pairs = [(i, i + 1) for i in range(0, d_p - 1, 2)]
        leftovers = [d_p - 1] if d_p % 2 else []
        for i, j in pairs:
            h_p_entries[np.ix_([i, j], [i, j])] = random_hermitian(rng, 2).entries
            shared = random_hermitian(rng, d_sa)
            blocks_list[i] = shared
            blocks_list[j] = shared
        for i in leftovers:
            h_p_entries[i, i] = rng.normal()
            blocks_list[i] = random_hermitian(rng, d_sa)
        h_p = Operator(h_p_entries)
        blocks = tuple(blocks_list)
    elif kind == "violating":
        h_p = seeded_random("hermitian", d_p, rng.integers(2**32))
        blocks = tuple(random_hermitian(rng, d_sa) for _ in range(d_p))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return TrinaryHamiltonian(dims=dims, h_p=h_p, blocks=blocks)


def random_block_structure(
    d_s: int, d_a: int, seed, kind: str = "sapmc"
) -> ProgrammedBlockStructure:
    """Seeded second-level block structures.

    kind "sapmc": H_S diagonal in the block's S basis (condition holds);
    kind "shared": identical apparatus generators with a generic H_S
    (condition holds through the identity structure); kind "violating":
    generic H_S against distinct generators.
    """
    rng = np.random.default_rng(seed)
    basis = seeded_random("unitary", d_s, rng.integers(2**32)).entries
    if kind == "sapmc":
        h_s = Operator(basis @ np.diag(rng.normal(size=d_s)).astype(complex) @ basis.conj().T)
        gens = tuple(random_hermitian(rng, d_a) for _ in range(d_s))
    elif kind == "shared":
        h_s = random_hermitian(rng, d_s)
        shared = random_hermitian(rng, d_a)
        gens = tuple(shared for _ in range(d_s))
        basis = np.eye(d_s, dtype=complex)
    elif kind == "violating":
        h_s = random_hermitian(rng, d_s)
        gens = tuple(random_hermitian(rng, d_a) for _ in range(d_s))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return ProgrammedBlockStructure(s_basis=basis, a_generators=gens, h_s=h_s)
