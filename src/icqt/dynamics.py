"""Trinary Hamiltonians, measurability checks, and the dual dynamics.

A trinary Hamiltonian is H_P on the programming space plus one Hermitian
block per programming basis state acting on S x A.  The form
H_prog (x) I + sum_n |e_n><e_n| (x) B_n serves three levels: P conditions
S x A (``TrinaryHamiltonian``), S conditions A in one block
(``ProgrammedBlockStructure``), and S x A conditions P in the swapped variant.
They share one core, ``_Conditioned``, built once per Hamiltonian: it validates
(H_prog, blocks, basis), frames h' = basis^dagger H_prog basis, over which H reads
A + B with A = h' (x) I and B the block diagonal of the B_n, and labels the
components of the exact zero pattern of h'.  The blockwise check,
``FactorizedPropagator`` (A, then B), the dense reference ``DensePropagator``
(A + B, assembled per component in the frame) and the block assembler
``ProgrammedBlockStructure.assemble`` all read it.  When the check holds,
[A, B] = 0 and the factorized step is exact.

Time dependence is piecewise constant: ``entanglement_trajectory`` walks a list of
(duration, hamiltonian) segments back to back, each reached segment by its own path
(factorized when its check holds, dense otherwise), beside the dense reference.
"""

from __future__ import annotations

import bisect
import math
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
from .serialize import _echo, _is_finite
from .trinary import TrinaryDims, TrinaryState, _check_orthonormal, dual_entropies

COMMUTATION_TOL = 1e-10


class FactorizationPreconditionError(ValueError):
    """Factorized evolution requested while the measurability condition fails."""


class ScheduleError(ValueError):
    """A negative duration, times that break ``_check_times``, or a too-short schedule."""


@dataclass(frozen=True)
class CommutatorCheck:
    commutator_norm: float
    satisfied: bool


def _assemble_conditioned(h_program, blocks: np.ndarray) -> np.ndarray:
    """h_program (x) I plus the block diagonal of the (d, d_block, d_block) ``blocks`` (the
    frame's A + B), entry for entry the Kronecker form; leading batch axes of both give one
    matrix per batch index."""
    *batch, d, b, _ = blocks.shape
    out = np.zeros((*batch, d, b, d, b), dtype=complex)
    out[..., range(d), :, range(d), :] = np.moveaxis(blocks, -3, 0)
    return _add_program(out, h_program)


def _add_program(out: np.ndarray, h_program) -> np.ndarray:
    """A (..., d, d_block, d, d_block) programmed part plus h_program (x) I, in place."""
    *batch, d, b = out.shape[:-2]
    out[..., range(b), :, range(b)] += h_program
    return out.reshape(*batch, d * b, d * b)


def _zero_pattern_components(h: np.ndarray) -> list[np.ndarray]:
    """The connected components of (h != 0) | (h != 0)^T, symmetrized because ``eigh``
    reads one triangle only: per size g, the (k, g) stack of the k components' ascending
    indices.  One breadth-first pass from each unseen root reads each row once."""
    coupled = (h != 0) | (h != 0).T
    unseen = np.ones(h.shape[0], dtype=bool)
    by_size: dict[int, list[list[int]]] = {}
    for root in range(h.shape[0]):
        if unseen[root]:
            unseen[root] = False
            members, frontier = [root], np.flatnonzero(coupled[root] & unseen)
            while frontier.size:
                unseen[frontier] = False
                members += frontier.tolist()
                frontier = np.flatnonzero(np.logical_or.reduce(coupled[frontier]) & unseen)
            by_size.setdefault(len(members), []).append(sorted(members))
    return [np.array(group) for group in by_size.values()]


def _component_spectra(core: _Conditioned, blocks: np.ndarray | None = None) -> list:
    """Per component size g of h', its (k, g) program states and one batched spectrum: of
    the k g x g submatrices of h', or with ``blocks`` of their (g d_block)^2 matrices A + B."""
    groups = []
    for index in core.components:
        matrices = core.h[index[:, :, None], index[:, None, :]]
        if blocks is not None:
            matrices = _assemble_conditioned(matrices, blocks[index])
        groups.append((index, HermitianSpectrum.of(matrices)))
    return groups


def _apply_components(groups, psi: np.ndarray, t: float) -> np.ndarray:
    """Gather each component's (g, d_block) rows of ``psi``, apply its spectrum for time
    t as columns of its matrix size n, and scatter them back."""
    out = np.empty(psi.shape, dtype=complex)
    for index, spectrum in groups:
        x = psi[index].reshape(*spectrum.values.shape, -1)
        out[index] = spectrum.apply(x, t).reshape(*index.shape, -1)
    return out


class _Conditioned:
    """One level's H_prog (x) I + sum_n |e_n><e_n| (x) B_n, validated, framed and labelled once.

    It holds the checked ``basis`` (None: computational), H_prog as ``program``, the
    ``blocks`` as a list of arrays, ``h`` = h' = basis^dagger H_prog basis, and
    ``components``, the per-size stacks of the components of h' (``_zero_pattern_components``).
    ``dims`` is (program dim, block dim), a block dim of None meaning the first
    block's; ``names`` name the program side, a block and the basis in messages.

    It owns the overflow rule: ``scale`` = program dim max|H_prog| + block dim max|B_n|
    bounds every assembled entry, entry of h' and eigenvalue; program dim max|H_prog| and
    2 max|B_n| bound the factors of each h'[n, m] (B_n - B_m) that ``check`` forms (none
    when H_prog is 0), and their product it.  A level where a bound is not finite is
    refused, so nothing built from it overflows.  Its one time rule, ``check_time``,
    bounds every phase w t of a step by ``scale`` |t|.
    """

    def __init__(self, h_program: Operator, blocks: Sequence[Operator], basis, dims, names):
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
        self.basis = None if basis is None else _check_orthonormal(basis, program_dim, basis_name)
        self.program, self.blocks = h_program.entries, [b.entries for b in blocks]
        with np.errstate(over="ignore"):  # |re + i im| past the range reads inf, refused below
            peak_program = float(np.max(np.abs(self.program)))
            peak_block = max(float(np.max(np.abs(b))) for b in self.blocks)
        self.scale = program_dim * peak_program + block_dim * peak_block
        if not math.isfinite(self.scale):
            raise ValueError(f"{program} and the {block}s overflow a double")
        if peak_program and not math.isfinite(program_dim * peak_program * (2 * peak_block)):
            raise ValueError("the measurability commutator overflows a double")
        w = self.basis
        self.h = self.program if w is None else w.conj().T @ self.program @ w
        self.components = _zero_pattern_components(self.h)

    def check_time(self, t: float) -> None:
        """The time rule: refuse a t that is not a finite number (``_is_finite``) or whose
        ``scale`` |t| is not finite, so no phase of a step for time t overflows."""
        finite = _is_finite(t)
        if not (finite and math.isfinite(self.scale * abs(float(t)))):
            shown = _echo(float(t) if finite else t)
            raise ValueError(f"the Hamiltonian overflows a double by t = {shown}")

    def assemble(self) -> Operator:
        """H_prog (x) I + sum_n |e_n><e_n| (x) B_n on the full space.  Over a custom basis the
        programmed part is one product of the (d^2, d) projector stack with the (d, d_block^2)
        block stack, copied once into (d, d_block, d, d_block) order: two full arrays at most."""
        w, blocks = self.basis, np.stack(self.blocks)
        if w is None:
            return Operator(_assemble_conditioned(self.program, blocks))
        d, b = blocks.shape[:2]
        programmed = (w[:, None] * w.conj()).reshape(d * d, d) @ blocks.reshape(d, b * b)
        out = np.ascontiguousarray(programmed.reshape(d, d, b, b).swapaxes(1, 2))
        del programmed, blocks
        return Operator(_add_program(out, self.program))

    def check(self) -> CommutatorCheck:
        """Max-entry norm of [sum_n |e_n><e_n| (x) B_n, H_prog (x) I], blockwise.

        The norm is taken in the conditioning basis, where block (n, m) of the
        commutator is h'[n, m] (B_n - B_m).  Only the rows inside a component of h' are
        taken: every other block, and a lone state's, is exactly 0, so the max keeps its
        bits.  Row j of every component of one size at a time: memory
        len(blocks) * d_block^2.
        """
        h, stack = self.h, np.stack(self.blocks)
        norm = 0.0
        for index in self.components:
            for n in index.T if index.shape[1] > 1 else ():
                coupling = h[n[:, None], index][..., None, None]
                row = np.abs(coupling * (stack[n][:, None] - stack[index]))
                norm = max(norm, float(row.max()))
        return CommutatorCheck(commutator_norm=norm, satisfied=norm <= COMMUTATION_TOL)


def _checked_propagator(check: CommutatorCheck, h) -> FactorizedPropagator:
    """The factorized propagator of ``h`` (as ``_ConditionedPropagator`` takes it), whose
    measurability ``check`` must hold."""
    if not check.satisfied:
        raise FactorizationPreconditionError(
            f"measurability condition violated (commutator norm {check.commutator_norm:.3e})"
        )
    return FactorizedPropagator(h)


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
        core = _Conditioned(
            self.h_p, self.blocks, self.programming_basis, (self.dims.d_p, self.dims.d_sa),
            ("h_p", "block", "programming basis"),
        )
        object.__setattr__(self, "programming_basis", core.basis)
        object.__setattr__(self, "_core", core)

    def propagator(self) -> FactorizedPropagator:
        """The factorized propagator; exact only when ``check_pmc`` holds."""
        return FactorizedPropagator(self)


@dataclass(frozen=True)
class ProgrammedBlockStructure:
    """Second-level structure of one S x A block.

    The block decomposes as sum_i |eps_i><eps_i| (x) H_A[i] + H_S (x) I over
    an orthonormal S basis (columns of ``s_basis``); None means the computational
    basis.
    """

    s_basis: np.ndarray | None
    a_generators: tuple[Operator, ...]
    h_s: Operator

    def __post_init__(self):
        core = _Conditioned(
            self.h_s, self.a_generators, self.s_basis, (self.d_s, None),
            ("h_s", "apparatus generator", "S basis"),
        )
        object.__setattr__(self, "s_basis", core.basis)
        object.__setattr__(self, "_core", core)

    @property
    def d_s(self) -> int:
        return self.h_s.dim

    @property
    def d_a(self) -> int:
        return self.a_generators[0].dim

    def assemble(self) -> Operator:
        return self._core.assemble()


def check_pmc(h: TrinaryHamiltonian) -> CommutatorCheck:
    """Measurability of the programming side: [programmed part, H_P (x) I]."""
    return h._core.check()


def check_sapmc(block: ProgrammedBlockStructure) -> CommutatorCheck:
    """Programmed measurability inside one block: [block, H_S (x) I]."""
    return block._core.check()


class _ConditionedPropagator:
    """exp(-i H t) for H = H_prog (x) I + sum_n |e_n><e_n| (x) B_n, decomposed once.

    ``h`` is a Hamiltonian of any level, or a bare ``_Conditioned`` core (the swapped
    level).  Over the conditioning states H reads A + B; a subclass splits the core into
    factors, each a list of component spectra (``_component_spectra``); a step applies
    them in turn in that frame.  Only a ``TrinaryHamiltonian``'s propagator ``evolve``s a
    trinary state, and only one of its dims.
    """

    def __init__(self, h):
        core = h if isinstance(h, _Conditioned) else h._core
        self._dims = h.dims if isinstance(h, TrinaryHamiltonian) else None
        self._basis = core.basis
        self._check_time = core.check_time
        self._factors = self._factorize(core)

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        """Evolve a (program_dim, target_dim) amplitude matrix for a time t that the core's
        time rule (``_Conditioned.check_time``) passes."""
        self._check_time(t)
        w = self._basis
        psi = psi if w is None else w.conj().T @ psi
        for groups in self._factors:
            psi = _apply_components(groups, psi, t)
        return psi if w is None else w @ psi

    def evolve(self, state: TrinaryState, t: float) -> TrinaryState:
        """``apply`` on the (d_p, d_sa) amplitude matrix of a trinary state of the
        Hamiltonian's dims."""
        if state.dims != self._dims:
            raise DimensionError("hamiltonian and state dims differ")
        out = self.apply(state.as_matrix(), t)
        return TrinaryState.from_dense(state.dims, StateVector(out.reshape(-1)))


class FactorizedPropagator(_ConditionedPropagator):
    """exp(-iBt) exp(-iAt), exact when H_prog commutes with the programmed part: A by the
    components of h' (a lone state is an exact phase, so an empty program component
    stays exactly zero), then B by one batched ``eigh`` of all blocks, one per state.
    """

    def _factorize(self, core: _Conditioned) -> list:
        every_state = np.arange(len(core.blocks))[:, None]  # B alone: one component per state
        blocks = HermitianSpectrum.of(np.stack(core.blocks))
        return [_component_spectra(core), [(every_state, blocks)]]


class DensePropagator(_ConditionedPropagator):
    """Exact whether or not the measurability condition holds: the brute-force reference.

    H is the direct sum of one (g d_sa)^2 matrix of A + B per connected component of
    the exact zero pattern of h'.  Per component size g, one assembler call builds them
    and one batched ``eigh`` diagonalises them, at sum_k (g_k d_sa)^3 cost.
    """

    def _factorize(self, core: _Conditioned) -> list:
        return [_component_spectra(core, np.stack(core.blocks))]


def evolve_full(h: TrinaryHamiltonian, state: TrinaryState, t: float) -> TrinaryState:
    """One step of ``DensePropagator``: the brute-force oracle."""
    return DensePropagator(h).evolve(state, t)


def evolve_factorized(h: TrinaryHamiltonian, state: TrinaryState, t: float) -> TrinaryState:
    """Blockwise dual evolution; requires the measurability condition.

    ``h.propagator().evolve(state, t)`` is the same formula without the check
    (used to demonstrate that the condition is not vacuous).
    """
    return _checked_propagator(check_pmc(h), h).evolve(state, t)


def evolve_programmed_block(
    block: ProgrammedBlockStructure, sa_state: StateVector, t: float
) -> StateVector:
    """Second-level factorized evolution of one S x A block."""
    if sa_state.dim != block.d_s * block.d_a:
        raise DimensionError("state does not live on this block's S x A space")
    prop = _checked_propagator(check_sapmc(block), block)
    out = prop.apply(sa_state.amplitudes.reshape(block.d_s, block.d_a), t)
    return StateVector(out.reshape(-1))


def _end(durations: Sequence[float]) -> float:
    """``math.fsum`` of nonnegative durations; a sum past the double range lies past
    every finite time, and reads inf."""
    try:
        return math.fsum(durations)
    except OverflowError:  # intermediate overflow in fsum
        return math.inf


def _check_times(times: Sequence[float]) -> tuple[float, ...]:
    """The times rule: ``times`` is a nonempty sequence of finite numbers (``_is_finite``)
    that starts at 0 and ascends; returns them as floats, or raises ``ScheduleError``."""
    if not all(map(_is_finite, times)):
        raise ScheduleError("times must be finite numbers")
    times = tuple(map(float, times))
    if not times or times[0] != 0.0 or any(b < a for a, b in zip(times, times[1:])):
        raise ScheduleError("times must ascend and start at 0")
    return times


def _segment_steps(
    segments: Sequence[tuple[float, TrinaryHamiltonian]], state: TrinaryState,
    times: Sequence[float],
) -> list[list[float]]:
    """The steps of ``times`` in each segment up to the one holding the last time.

    A time lies in the first segment whose end (``_end`` of the durations so far) is at
    or past it, one step from that segment's start: the time minus the earlier
    durations, clamped to [0, duration].  Bad times (``_check_times``) or durations, a
    too-short schedule and a reached segment stepped to a time t on the schedule that its
    time rule (``_Conditioned.check_time``) refuses raise ``ScheduleError``, and dims
    that differ ``DimensionError``.
    """
    if any(h.dims != state.dims for _, h in segments):
        raise DimensionError("hamiltonian and state dims differ")
    times = _check_times(times)
    if not all(duration >= 0 for duration, _ in segments):
        raise ScheduleError("segment durations must be nonnegative")
    durations = [duration for duration, _ in segments]
    ends = [_end(durations[: k + 1]) for k in range(len(durations))]
    steps = [[] for _ in durations]  # steps[k]: the steps of the times in segment k
    for t in times:
        k = bisect.bisect_left(ends, t)
        if k == len(ends):
            raise ScheduleError(f"schedule is shorter than requested time {t}")
        for duration in durations[:k]:
            t -= duration
        steps[k].append(min(max(t, 0.0), durations[k]))
    del steps[k + 1 :]
    for j, ((_, h), t) in enumerate(zip(segments, ends[:k] + [times[-1]])):
        try:
            h._core.check_time(t)
        except ValueError as exc:
            raise ScheduleError(f"segment {j}: {exc}") from None
    return steps


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
    core = _Conditioned(
        h_sa, blocks_on_p, sa_basis, (dims.d_sa, dims.d_p), ("h_sa", "swapped block", "SA basis")
    )
    prop = _checked_propagator(core.check(), core)
    out = prop.apply(state.as_matrix().T, t)  # (d_sa, d_p): SA is now the program side
    return TrinaryState.from_dense(dims, StateVector(out.T.reshape(-1)))


@dataclass(frozen=True)
class EntanglementTrajectory:
    """Entropies along an evolution: P|(SA) and per-branch S|A, per time, as read-only arrays.

    ``checks`` holds one measurability check per segment the walk reaches.
    ``max_deviation`` is the largest entry gap between the recorded and dense reference
    states, or None when no reached segment was factorized.
    """

    times: tuple[float, ...]
    s_psa: np.ndarray
    s_sa_branches: np.ndarray  # shape (len(times), d_p)
    checks: tuple[CommutatorCheck, ...]
    max_deviation: float | None

    def __post_init__(self):
        for name in ("s_psa", "s_sa_branches"):
            values = np.array(getattr(self, name), dtype=float)
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @property
    def used_factorized(self) -> bool:
        return all(check.satisfied for check in self.checks)


def entanglement_trajectory(
    segments: Sequence[tuple[float, TrinaryHamiltonian]], state: TrinaryState,
    times: Sequence[float],
) -> EntanglementTrajectory:
    """Record dual entropies at the given times (ascending, from 0) under back-to-back
    (duration, hamiltonian) segments; a single Hamiltonian h is [(math.inf, h)].

    Every time is mapped first (``_segment_steps``), so a bad schedule is refused before
    any check or decomposition, and the segments past the last time are neither checked
    nor decomposed.  Each reached segment is checked once and decomposed once into the
    dense reference; it is stepped by its factorized propagator when its check holds and
    by that reference otherwise, and both are dropped before the next segment is built.
    The reference state walks beside the recorded one over the whole schedule; while every
    segment so far was dense the two are one object, stepped once.
    """
    times = tuple(times)
    steps = _segment_steps(segments, state, times)
    checks, entropies, deviations = [], [], []
    current = reference = state
    for k, ((duration, h), segment_steps) in enumerate(zip(segments, steps)):
        checks.append(check_pmc(h))
        dense = DensePropagator(h)
        prop = h.propagator() if checks[-1].satisfied else dense
        shared = prop is dense and current is reference  # one step serves both walks
        for step in segment_steps:
            now = prop.evolve(current, step)
            ref = now if shared else dense.evolve(reference, step)
            deviations.append(np.max(np.abs(now.dense.amplitudes - ref.dense.amplitudes)))
            entropies.append(dual_entropies(now))
        if k + 1 < len(steps):
            current = prop.evolve(current, duration)
            reference = current if shared else dense.evolve(reference, duration)
        del dense, prop
    s_psa, s_branches = zip(*entropies)
    factorized = any(check.satisfied for check in checks)
    times = tuple(map(float, times))  # finite numbers, by the times rule
    return EntanglementTrajectory(
        times, s_psa, s_branches, tuple(checks), max(deviations) if factorized else None
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
        raise ValueError(f"unknown kind {_echo(kind)}, expected pmc, coupled or violating")
    return TrinaryHamiltonian(dims=dims, h_p=h_p, blocks=blocks)


def random_block_structure(
    d_s: int, d_a: int, seed, kind: str = "sapmc"
) -> ProgrammedBlockStructure:
    """Seeded second-level block structures.

    kind "sapmc": H_S diagonal in the block's S basis (condition holds);
    kind "shared": identical apparatus generators with a generic H_S over the
    computational basis (condition holds through the identity structure); kind
    "violating": generic H_S against distinct generators.
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
        basis = None
    elif kind == "violating":
        h_s = random_hermitian(rng, d_s)
        gens = tuple(random_hermitian(rng, d_a) for _ in range(d_s))
    else:
        raise ValueError(f"unknown kind {_echo(kind)}, expected sapmc, shared or violating")
    return ProgrammedBlockStructure(s_basis=basis, a_generators=gens, h_s=h_s)
