"""Trinary Hamiltonians, measurability checks, and the dual dynamics.

A trinary Hamiltonian is H_P on the programming space plus one Hermitian
block per programming basis state acting on S x A.  When the programmed part
commutes with H_P (the measurability condition) the propagator factorizes
into a programming-side propagator times independent per-branch propagators,
and evolution runs block-by-block without ever forming the full-space matrix.
``FactorizedPropagator`` is that propagator, decomposed once per Hamiltonian
and shared by every factorized path; ``DensePropagator`` (and ``evolve_full``
on top of it) is the dense brute-force reference for exactly that claim.  The
measurability checks work block by block as well
(``conditioned_commutator_norm``), so the one full-space matrix built here is
the one the dense reference diagonalises.

Time dependence is piecewise constant: a schedule is a list of
(duration, hamiltonian) segments evolved back to back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def _require_hermitian(op: Operator, what: str) -> None:
    if not op.is_hermitian():
        raise HermiticityError(f"{what} is not Hermitian")


@dataclass(frozen=True)
class CommutatorCheck:
    commutator_norm: float
    satisfied: bool


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
        if self.h_p.dim != self.dims.d_p:
            raise DimensionError("h_p must act on the programming space")
        _require_hermitian(self.h_p, "h_p")
        if len(self.blocks) != self.dims.d_p:
            raise DimensionError(f"need {self.dims.d_p} blocks, got {len(self.blocks)}")
        for n, b in enumerate(self.blocks):
            if b.dim != self.dims.d_sa:
                raise DimensionError(f"block {n} must act on S x A")
            _require_hermitian(b, f"block {n}")
        if self.programming_basis is not None:
            basis = _check_orthonormal(
                np.asarray(self.programming_basis, dtype=complex),
                self.dims.d_p,
                "programming basis",
            )
            object.__setattr__(self, "programming_basis", basis)

    def full_operator(self) -> Operator:
        """H_P (x) I plus sum_n |e_n><e_n| (x) block_n on the full space.

        The blocks are written into a (d_p, d_sa, d_p, d_sa) view and H_P is
        added on its S x A diagonal: entry for entry the same matrix as the
        ``np.kron`` form, without a full-space temporary per term.
        """
        d_p, d_sa = self.dims.d_p, self.dims.d_sa
        out = np.zeros((d_p, d_sa, d_p, d_sa), dtype=complex)
        w = self.programming_basis
        for n, b in enumerate(self.blocks):
            if w is None:
                out[n, :, n, :] = b.entries
            else:
                proj = np.outer(w[:, n], w[:, n].conj())
                out += proj[:, None, :, None] * b.entries[None, :, None, :]
        diag = np.arange(d_sa)
        out[:, diag, :, diag] += self.h_p.entries
        return Operator(out.reshape(self.dims.total, self.dims.total))

    def propagator(self) -> FactorizedPropagator:
        """The factorized propagator; exact only when ``check_pmc`` holds."""
        return FactorizedPropagator(
            self.h_p.entries, [b.entries for b in self.blocks], self.programming_basis
        )


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
        basis = _check_orthonormal(
            np.asarray(self.s_basis, dtype=complex), self.d_s, "S basis"
        )
        object.__setattr__(self, "s_basis", basis)
        if len(self.a_generators) != self.d_s:
            raise DimensionError(f"need {self.d_s} apparatus generators")
        d_a = self.a_generators[0].dim
        for i, g in enumerate(self.a_generators):
            if g.dim != d_a:
                raise DimensionError("apparatus generators must share one dim")
            _require_hermitian(g, f"apparatus generator {i}")
        _require_hermitian(self.h_s, "h_s")

    @property
    def d_s(self) -> int:
        return self.h_s.dim

    @property
    def d_a(self) -> int:
        return self.a_generators[0].dim

    def assemble(self) -> Operator:
        out = np.kron(self.h_s.entries, np.eye(self.d_a))
        for i in range(self.d_s):
            proj = np.outer(self.s_basis[:, i], self.s_basis[:, i].conj())
            out = out + np.kron(proj, self.a_generators[i].entries)
        return Operator(out)


def conditioned_commutator_norm(
    h_program: np.ndarray,
    blocks: Sequence[np.ndarray],
    basis: np.ndarray | None = None,
) -> float:
    """Max-entry norm of [sum_n |e_n><e_n| (x) B_n, H_prog (x) I], blockwise.

    The norm is taken in the conditioning basis (the columns e_n of
    ``basis``, computational when None), where block (n, m) of the
    commutator is h'[n, m] (B_n - B_m) with h' = basis^dagger H_prog basis.
    The difference form is exactly 0 wherever h'[n, m] or B_n - B_m is.  One
    row of blocks at a time, so memory is len(blocks) * d_block^2 and no
    full-space matrix is formed.
    """
    if basis is not None:
        h_program = basis.conj().T @ h_program @ basis
    stack = np.stack(blocks)
    norm = 0.0
    for n in range(len(stack)):
        row = h_program[n][:, None, None] * (stack[n] - stack)
        norm = max(norm, float(np.max(np.abs(row))))
    return norm


def check_pmc(h: TrinaryHamiltonian) -> CommutatorCheck:
    """Measurability of the programming side: [programmed part, H_P (x) I]."""
    norm = conditioned_commutator_norm(
        h.h_p.entries, [b.entries for b in h.blocks], h.programming_basis
    )
    return CommutatorCheck(commutator_norm=norm, satisfied=norm <= COMMUTATION_TOL)


def check_sapmc(block: ProgrammedBlockStructure) -> CommutatorCheck:
    """Programmed measurability inside one block: [block, H_S (x) I]."""
    norm = conditioned_commutator_norm(
        block.h_s.entries, [g.entries for g in block.a_generators], block.s_basis
    )
    return CommutatorCheck(commutator_norm=norm, satisfied=norm <= COMMUTATION_TOL)


class FactorizedPropagator:
    """exp(-i H t) for H = H_prog (x) I + sum_n |e_n><e_n| (x) B_n, decomposed once.

    ``blocks[n]`` is conditioned on column n of ``basis`` (the computational
    basis when None).  When H_prog commutes with the programmed part, the
    propagator is the program-side propagator followed by one block
    propagator per program state.  Construction diagonalises the program side
    once and all blocks in one batched ``eigh``; ``apply`` then costs one
    matrix product per block and never forms a full-space matrix.  A program
    side that is diagonal (within _DIAG_TOL) in ``basis`` evolves by exact
    per-component phases, so empty program components stay exactly zero.
    """

    def __init__(
        self,
        h_program: np.ndarray,
        blocks: Sequence[np.ndarray],
        basis: np.ndarray | None = None,
    ):
        if basis is not None:
            h_program = basis.conj().T @ h_program @ basis
        self._basis = basis
        self._energies = np.real(np.diag(h_program))
        diagonal = np.max(np.abs(h_program - np.diag(np.diag(h_program)))) <= _DIAG_TOL
        self._program = None if diagonal else HermitianSpectrum.of(h_program)
        w, v = np.linalg.eigh(np.stack(blocks))  # one batched eigh for all blocks
        self._blocks = [HermitianSpectrum(wn, vn) for wn, vn in zip(w, v)]

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        """Evolve a (program_dim, target_dim) amplitude matrix for time t."""
        w = self._basis
        if w is not None:
            psi = w.conj().T @ psi
        if self._program is None:
            out = np.exp(-1j * self._energies * t)[:, None] * psi
        else:
            out = self._program.propagator(t) @ psi
        for n, block in enumerate(self._blocks):
            out[n] = block.propagator(t) @ out[n]
        if w is not None:
            out = w @ out
        return out

    def evolve(self, state: TrinaryState, t: float) -> TrinaryState:
        """``apply`` on the (d_p, d_sa) amplitude matrix of a trinary state."""
        out = self.apply(state.as_matrix(), t)
        return TrinaryState.from_dense(state.dims, StateVector(out.reshape(-1)))


class DensePropagator:
    """exp(-i H t) of a trinary Hamiltonian on the full space, decomposed once.

    The brute-force reference for ``FactorizedPropagator``: it diagonalises
    the densely assembled ``full_operator`` with one ``eigh``, so it is exact
    whether or not the measurability condition holds, at (d_p d_sa)^3 cost.
    Each ``evolve`` applies the spectrum to the state without forming U(t).
    """

    def __init__(self, h: TrinaryHamiltonian):
        self._spectrum = HermitianSpectrum.of(h.full_operator().entries)

    def evolve(self, state: TrinaryState, t: float) -> TrinaryState:
        amp = self._spectrum.apply(state.dense.amplitudes, t)
        return TrinaryState.from_dense(state.dims, StateVector(amp))


def evolve_full(h: TrinaryHamiltonian, state: TrinaryState, t: float) -> TrinaryState:
    """Dense full-space propagator: the brute-force oracle."""
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
    chk = check_pmc(h)
    if not chk.satisfied:
        raise FactorizationPreconditionError(
            f"measurability condition violated (commutator norm {chk.commutator_norm:.3e})"
        )
    return h.propagator().evolve(state, t)


def evolve_programmed_block(
    block: ProgrammedBlockStructure, sa_state: StateVector, t: float
) -> StateVector:
    """Second-level factorized evolution of one S x A block."""
    if sa_state.dim != block.d_s * block.d_a:
        raise DimensionError("state does not live on this block's S x A space")
    chk = check_sapmc(block)
    if not chk.satisfied:
        raise FactorizationPreconditionError(
            f"programmed measurability violated (commutator norm {chk.commutator_norm:.3e})"
        )
    prop = FactorizedPropagator(
        block.h_s.entries, [g.entries for g in block.a_generators], block.s_basis
    )
    out = prop.apply(sa_state.amplitudes.reshape(block.d_s, block.d_a), t)
    return StateVector(out.reshape(-1))


def evolve(h: TrinaryHamiltonian, state: TrinaryState, t: float) -> TrinaryState:
    """Factorized when the measurability condition holds, dense otherwise."""
    if h.dims != state.dims:
        raise DimensionError("hamiltonian and state dims differ")
    if check_pmc(h).satisfied:
        return h.propagator().evolve(state, t)
    return evolve_full(h, state, t)


def evolve_schedule(
    segments: Sequence[tuple[float, TrinaryHamiltonian]], state: TrinaryState
) -> TrinaryState:
    """Piecewise-constant time dependence, one closed-form segment at a time."""
    current = state
    for duration, h in segments:
        if duration < 0:
            raise ValueError("segment durations must be nonnegative")
        current = evolve(h, current, duration)
    return current


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
    if h_sa.dim != dims.d_sa or len(blocks_on_p) != dims.d_sa:
        raise DimensionError("swapped-role dims do not match the state")
    _require_hermitian(h_sa, "h_sa")
    for m, b in enumerate(blocks_on_p):
        if b.dim != dims.d_p:
            raise DimensionError("swapped blocks must act on the programming space")
        _require_hermitian(b, f"swapped block {m}")
    if sa_basis is not None:
        sa_basis = _check_orthonormal(np.asarray(sa_basis, dtype=complex), dims.d_sa, "SA basis")
    blocks = [b.entries for b in blocks_on_p]
    norm = conditioned_commutator_norm(h_sa.entries, blocks, sa_basis)
    if norm > COMMUTATION_TOL:
        raise FactorizationPreconditionError(
            f"measurability condition violated (commutator norm {norm:.3e})"
        )
    prop = FactorizedPropagator(h_sa.entries, blocks, sa_basis)
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

    @property
    def monotone_psa(self) -> bool:
        """Whether the P|(SA) entropy never decreased (recorded, not promised)."""
        return bool(np.all(np.diff(self.s_psa) >= -1e-9))


def entanglement_trajectory(
    h: TrinaryHamiltonian, state: TrinaryState, times: Sequence[float]
) -> EntanglementTrajectory:
    """Record dual entropies at the given times (ascending, starting at 0)."""
    times = tuple(float(t) for t in times)
    if len(times) == 0 or times[0] != 0.0 or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must ascend and start at 0")
    factorized = check_pmc(h).satisfied
    prop = h.propagator() if factorized else DensePropagator(h)

    s_psa = np.zeros(len(times))
    s_branches = np.zeros((len(times), h.dims.d_p))
    for k, t in enumerate(times):
        s_psa[k], s_branches[k] = dual_entropies(prop.evolve(state, t))
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
