import json
import tracemalloc
import warnings

import numpy as np
import pytest

from icqt import dynamics
from icqt.cli import main
from icqt.dynamics import (
    COMMUTATION_TOL,
    CommutatorCheck,
    DensePropagator,
    FactorizationPreconditionError,
    ProgrammedBlockStructure,
    ScheduleError,
    TrinaryHamiltonian,
    check_pmc,
    check_sapmc,
    entanglement_trajectory,
    evolve_factorized,
    evolve_full,
    evolve_programmed_block,
    evolve_swapped_factorized,
    random_block_structure,
    random_trinary_hamiltonian,
    schedule_states,
)
from icqt.linalg import (
    DimensionError,
    HermiticityError,
    Operator,
    StateVector,
    hermitian_propagator,
    random_hermitian,
    seeded_random,
)
from icqt.trinary import TrinaryDims, TrinaryState, dual_entropies, standard_basis
from oracles import (
    chained_bound,
    dense_block,
    dense_pmc_norm,
    dense_sapmc_norm,
    dense_swapped_norm,
    dense_trinary_hamiltonian,
    every_block_commutator_norm,
    expm_hermitian,
    factorized_apply_loop,
    product_bound,
    programmed_part,
    schedule_walk,
    spectral_step_bound,
    swapped_full_operator,
)

DIMS = TrinaryDims(2, 2, 4)


def random_state(dims, seed):
    return TrinaryState.from_dense(dims, seeded_random("state", dims.total, seed))


def separable_state(dims, seed):
    return TrinaryState.from_product(
        dims,
        seeded_random("state", dims.d_p, seed),
        seeded_random("state", dims.d_s, seed + 1),
        seeded_random("state", dims.d_a, seed + 2),
    )


def sigma(which):
    return {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }[which]


class TestTrinaryHamiltonian:
    def test_full_operator_matches_oracle(self):
        h = random_trinary_hamiltonian(DIMS, 3, kind="pmc")
        want = dense_trinary_hamiltonian(
            h.h_p.entries, [b.entries for b in h.blocks]
        )
        assert np.max(np.abs(h.full_operator().entries - want)) < 1e-14

    @pytest.mark.parametrize("kind", ["pmc", "coupled", "violating"])
    @pytest.mark.parametrize("custom_basis", [False, True])
    def test_full_operator_equals_kron_form(self, kind, custom_basis):
        # the dense reference diagonalises the kron form, entry for entry
        h = random_trinary_hamiltonian(TrinaryDims(2, 3, 5), 9, kind=kind)
        if custom_basis:
            h = in_programming_basis(h, 10)
        want = np.kron(h.h_p.entries, np.eye(h.dims.d_sa)) + programmed_part(h)
        assert np.array_equal(h.full_operator().entries, want)

    def test_full_operator_hermitian(self):
        h = random_trinary_hamiltonian(DIMS, 4, kind="violating")
        f = h.full_operator().entries
        assert np.max(np.abs(f - f.conj().T)) <= 1e-12

    def test_rejects_non_hermitian_block(self):
        with pytest.raises(HermiticityError):
            TrinaryHamiltonian(
                dims=DIMS,
                h_p=Operator(np.zeros((4, 4))),
                blocks=tuple(
                    [Operator(np.triu(np.ones((4, 4))))] + [Operator.identity(4)] * 3
                ),
            )

    def test_custom_programming_basis(self):
        basis = seeded_random("unitary", 4, 8).entries
        h = TrinaryHamiltonian(
            dims=DIMS,
            h_p=Operator(np.zeros((4, 4))),
            blocks=tuple(seeded_random("hermitian", 4, 20 + n) for n in range(4)),
            programming_basis=basis,
        )
        want = dense_trinary_hamiltonian(
            np.zeros((4, 4)), [b.entries for b in h.blocks], basis
        )
        assert np.max(np.abs(h.full_operator().entries - want)) < 1e-12

    def test_owns_a_read_only_copy_of_the_programming_basis(self):
        # rewriting the caller's complex basis once changed programming_basis and
        # full_operator, while check_pmc and the propagators kept the old frame
        pmc = random_trinary_hamiltonian(DIMS, 11, kind="pmc")
        w = np.eye(4, dtype=complex)
        h = TrinaryHamiltonian(dims=DIMS, h_p=pmc.h_p, blocks=pmc.blocks, programming_basis=w)
        w[:] = standard_basis("X", 4)
        fresh = TrinaryHamiltonian(
            dims=DIMS, h_p=pmc.h_p, blocks=pmc.blocks, programming_basis=np.eye(4)
        )
        assert np.array_equal(h.programming_basis, np.eye(4))
        assert not h.programming_basis.flags.writeable
        assert np.array_equal(h.full_operator().entries, fresh.full_operator().entries)
        assert check_pmc(h) == check_pmc(fresh)
        state = random_state(DIMS, 12)
        want = expm_hermitian(h.full_operator().entries, 0.7) @ state.dense.amplitudes
        got = DensePropagator(h).evolve(state, 0.7).dense.amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_owns_a_read_only_copy_of_the_s_basis(self):
        w = np.eye(2, dtype=complex)
        block = ProgrammedBlockStructure(
            s_basis=w, a_generators=(Operator.identity(2), Operator(np.diag([1.0, -1.0]))),
            h_s=Operator(np.diag([0.5, 2.0])),
        )
        w[:] = standard_basis("X", 2)
        assert np.array_equal(block.s_basis, np.eye(2))
        assert not block.s_basis.flags.writeable
        assert check_sapmc(block).satisfied


def build_level(level, h_program, blocks, basis):
    """One conditioned Hamiltonian (3 program states, 2-dim blocks) at each level."""
    if level == "P|SA":
        dims = TrinaryDims(2, 1, 3)
        return TrinaryHamiltonian(dims=dims, h_p=h_program, blocks=blocks, programming_basis=basis)
    if level == "S|A":
        return ProgrammedBlockStructure(s_basis=basis, a_generators=blocks, h_s=h_program)
    state = random_state(TrinaryDims(3, 1, 2), 1)
    return evolve_swapped_factorized(h_program, blocks, state, 0.5, sa_basis=basis)


class TestConditionedValidation:
    """The three levels share one validator: each fault raises the same error at each."""

    GOOD = (
        Operator(np.diag([1.0, 2.0, 3.0])),
        tuple(seeded_random("hermitian", 2, 50 + n) for n in range(3)),
        np.eye(3),
    )
    BASIS_NAMES = {"P|SA": "programming basis", "S|A": "S basis", "SA|P": "SA basis"}

    @pytest.mark.parametrize("level", ["P|SA", "S|A", "SA|P"])
    @pytest.mark.parametrize(
        "fault, error",
        [
            (None, None),
            ("program not Hermitian", HermiticityError),
            ("block not Hermitian", HermiticityError),
            ("too few blocks", DimensionError),
            ("block of another dim", DimensionError),
            ("basis not orthonormal", ValueError),
            # a NaN or inf entry makes the unitarity deviation NaN, which no comparison passes
            ("basis with a NaN entry", ValueError),
            ("basis with an inf entry", ValueError),
        ],
    )
    def test_fault(self, level, fault, error):
        h_program, blocks, basis = self.GOOD
        if fault == "program not Hermitian":
            h_program = Operator(np.triu(np.ones((3, 3))))
        elif fault == "block not Hermitian":
            blocks = (blocks[0], Operator(np.triu(np.ones((2, 2)))), blocks[2])
        elif fault == "too few blocks":
            blocks = blocks[:2]
        elif fault == "block of another dim":
            blocks = blocks[:2] + (Operator.identity(3),)
        elif fault == "basis not orthonormal":
            basis = np.triu(np.ones((3, 3)))
        elif fault is not None and fault.startswith("basis with"):
            basis = np.eye(3)
            basis[0, 0] = np.nan if "NaN" in fault else np.inf
        with warnings.catch_warnings():  # each fault is refused without a warning
            warnings.simplefilter("error")
            if error is None:
                build_level(level, h_program, blocks, basis)
            else:
                match = None
                if fault.startswith("basis"):
                    match = f"^{self.BASIS_NAMES[level]} columns are not orthonormal$"
                with pytest.raises(error, match=match):
                    build_level(level, h_program, blocks, basis)


class TestCheckPmc:
    def test_diagonal_h_p_satisfied(self):
        h = random_trinary_hamiltonian(DIMS, 1, kind="pmc")
        chk = check_pmc(h)
        assert chk.satisfied and chk.commutator_norm == 0.0

    def test_offdiagonal_coupling_violates(self):
        h_p = np.zeros((4, 4), dtype=complex)
        h_p[0, 1] = h_p[1, 0] = 1.0
        h = TrinaryHamiltonian(
            dims=DIMS,
            h_p=Operator(h_p),
            blocks=tuple(seeded_random("hermitian", 4, 30 + n) for n in range(4)),
        )
        chk = check_pmc(h)
        assert not chk.satisfied and chk.commutator_norm > 0

    def test_equal_blocks_commute_with_anything(self):
        shared = seeded_random("hermitian", 4, 5)
        h = TrinaryHamiltonian(
            dims=DIMS,
            h_p=seeded_random("hermitian", 4, 6),
            blocks=(shared,) * 4,
        )
        assert check_pmc(h).satisfied


class TestCheckSapmc:
    def test_diagonal_h_s_satisfied(self):
        block = random_block_structure(2, 2, 1, kind="sapmc")
        assert check_sapmc(block).satisfied

    def test_sigma_x_against_z_basis_violates(self):
        block = ProgrammedBlockStructure(
            s_basis=standard_basis("Z", 2),
            a_generators=(seeded_random("hermitian", 2, 1), seeded_random("hermitian", 2, 2)),
            h_s=Operator(sigma("x")),
        )
        assert not check_sapmc(block).satisfied

    def test_shared_generators_satisfied(self):
        shared = seeded_random("hermitian", 2, 3)
        block = ProgrammedBlockStructure(
            s_basis=standard_basis("Z", 2),
            a_generators=(shared, shared),
            h_s=seeded_random("hermitian", 2, 4),
        )
        assert check_sapmc(block).satisfied

    def test_assembled_matches_definition(self):
        block = random_block_structure(3, 3, 7, kind="sapmc")
        want = np.kron(block.h_s.entries, np.eye(3))
        for i in range(3):
            proj = np.outer(block.s_basis[:, i], block.s_basis[:, i].conj())
            want = want + np.kron(proj, block.a_generators[i].entries)
        assert np.max(np.abs(block.assemble().entries - want)) <= 1e-12


CHECK_DS = (2, 3, 4)
CHECK_CASES = 60


def conditioned_on(h, w):
    """``h`` conjugated into the programming basis ``w``, blocks conditioned on it."""
    h_p = Operator(w @ h.h_p.entries @ w.conj().T)
    return TrinaryHamiltonian(dims=h.dims, h_p=h_p, blocks=h.blocks, programming_basis=w)


def in_programming_basis(h, seed):
    """``h`` conditioned on a seeded unitary programming basis."""
    return conditioned_on(h, seeded_random("unitary", h.dims.d_p, seed).entries)


def relabelled_basis(d, seed):
    """Computational states, permuted and rephased: a seeded programming basis in which
    a diagonal h_p stays exactly diagonal."""
    rng = np.random.default_rng(seed)
    return np.eye(d)[:, rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))


def swapped_case(dims, seed, kind):
    """(h_sa, blocks on P, SA basis); h_sa is diagonal in the basis unless violating."""
    rng = np.random.default_rng(seed)
    f = seeded_random("unitary", dims.d_sa, rng.integers(2**32)).entries
    blocks = tuple(
        seeded_random("hermitian", dims.d_p, rng.integers(2**32)) for _ in range(dims.d_sa)
    )
    if kind == "pmc":
        h_sa = Operator(f @ np.diag(rng.normal(size=dims.d_sa)) @ f.conj().T)
    else:
        h_sa = seeded_random("hermitian", dims.d_sa, rng.integers(2**32))
    return h_sa, blocks, f


class TestBlockwiseChecks:
    """The blockwise norms against the dense commutator of tests/oracles.py."""

    @pytest.mark.parametrize("d", CHECK_DS)
    @pytest.mark.parametrize("kind", ["pmc", "coupled"])
    def test_computational_basis_exactly_zero_as_dense(self, d, kind):
        for i in range(CHECK_CASES):
            h = random_trinary_hamiltonian(TrinaryDims(d, d, d), 1000 * d + i, kind=kind)
            assert dense_pmc_norm(h) == 0.0
            assert check_pmc(h).commutator_norm == 0.0

    @pytest.mark.parametrize("d", CHECK_DS)
    def test_violating_norm_within_rounding_of_dense(self, d):
        eps = np.finfo(float).eps
        for i in range(CHECK_CASES):
            h = random_trinary_hamiltonian(TrinaryDims(d, d, d), 2000 * d + i, kind="violating")
            max_b = max(float(np.max(np.abs(b.entries))) for b in h.blocks)
            bound = 4 * eps * float(np.max(np.abs(h.h_p.entries))) * max_b
            chk = check_pmc(h)
            assert not chk.satisfied
            assert abs(chk.commutator_norm - dense_pmc_norm(h)) <= bound

    @pytest.mark.parametrize("d", CHECK_DS)
    @pytest.mark.parametrize("kind", ["pmc", "coupled", "violating"])
    def test_programming_basis_verdict_as_dense(self, d, kind):
        for i in range(CHECK_CASES):
            h = random_trinary_hamiltonian(TrinaryDims(d, d, d), 3000 * d + i, kind=kind)
            h = in_programming_basis(h, 4000 * d + i)
            satisfied = check_pmc(h).satisfied
            assert satisfied == (dense_pmc_norm(h) <= COMMUTATION_TOL)
            assert satisfied == (kind != "violating")

    @pytest.mark.parametrize("d", CHECK_DS)
    @pytest.mark.parametrize("kind", ["sapmc", "shared", "violating"])
    def test_s_basis_verdict_as_dense(self, d, kind):
        for i in range(CHECK_CASES):
            block = random_block_structure(d, d, 5000 * d + i, kind=kind)
            chk = check_sapmc(block)
            assert chk.satisfied == (dense_sapmc_norm(block) <= COMMUTATION_TOL)
            assert chk.satisfied == (kind != "violating")
            if kind == "shared":  # identical generators: every difference block is 0
                assert chk.commutator_norm == 0.0

    @pytest.mark.parametrize("d", CHECK_DS)
    @pytest.mark.parametrize("kind", ["pmc", "coupled", "violating", "banded", "custom basis"])
    def test_zero_couplings_skipped_bit_for_bit(self, d, kind):
        # "banded": a tridiagonal H_P against distinct blocks, so rows mix zero
        # and nonzero couplings and the norm is not 0
        for i in range(CHECK_CASES // 4):
            dims, seed = TrinaryDims(d, d, d), 8000 * d + i
            if kind == "banded":
                h = random_trinary_hamiltonian(dims, seed, kind="violating")
                h_p = np.triu(np.tril(h.h_p.entries, 1), -1)
                h = TrinaryHamiltonian(dims=dims, h_p=Operator(h_p), blocks=h.blocks)
            elif kind == "custom basis":
                h = in_programming_basis(random_trinary_hamiltonian(dims, seed, kind="pmc"), seed)
            else:
                h = random_trinary_hamiltonian(dims, seed, kind=kind)
            norm = check_pmc(h).commutator_norm
            core = h._core
            assert norm == every_block_commutator_norm(core.program, core.blocks, core.basis)
            if kind in ("pmc", "coupled"):
                assert norm == dense_pmc_norm(h) == 0.0

    def test_zero_coupling_against_an_overflowing_difference_is_an_exact_zero(self):
        # h' is the path 0-1-2-3, one component; B_0 - B_2 and B_1 - B_3 overflow where
        # h' is 0, so every row holds one NaN product, yet those blocks are exactly 0
        # and the coupled (0, 1) block, 1 * (1e308 - 5e307) = 5e307, is the norm
        h_p = np.zeros((4, 4), dtype=complex)
        h_p[0, 1] = h_p[1, 0] = 1.0
        h_p[1, 2] = h_p[2, 1] = h_p[2, 3] = h_p[3, 2] = 1e-10
        blocks = tuple(Operator(v * np.eye(2)) for v in (1e308, 5e307, -1e308, -1.5e308))
        h = TrinaryHamiltonian(dims=TrinaryDims(2, 1, 4), h_p=Operator(h_p), blocks=blocks)
        assert check_pmc(h).commutator_norm == 5e307

    def test_coupling_against_an_overflowing_difference_reads_inf(self):
        # B_0 - B_1 = 2 B_0 overflows in both parts, and 1 * (inf + inf j) is NaN + NaN j:
        # a product past the double range, so the check fails and evolution is refused
        z = 1e308 + 1e308j
        b = np.array([[0, z], [np.conj(z), 0]])
        h_p = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
        dims = TrinaryDims(2, 1, 2)
        h = TrinaryHamiltonian(dims=dims, h_p=h_p, blocks=(Operator(b), Operator(-b)))
        assert check_pmc(h) == CommutatorCheck(commutator_norm=np.inf, satisfied=False)
        with pytest.raises(FactorizationPreconditionError):
            evolve_factorized(h, random_state(dims, 39), 0.5)

    @pytest.mark.parametrize("d", CHECK_DS)
    @pytest.mark.parametrize("kind", ["sapmc", "shared", "violating"])
    def test_s_basis_zero_couplings_skipped_bit_for_bit(self, d, kind):
        for i in range(CHECK_CASES // 4):
            block = random_block_structure(d, d, 9000 * d + i, kind=kind)
            core = block._core
            want = every_block_commutator_norm(core.program, core.blocks, core.basis)
            assert check_sapmc(block).commutator_norm == want

    @pytest.mark.parametrize("d", CHECK_DS)
    @pytest.mark.parametrize("kind", ["pmc", "violating"])
    def test_sa_basis_verdict_as_dense(self, d, kind):
        dims = TrinaryDims(d, d, d)
        state = random_state(dims, 6000 * d)
        for i in range(CHECK_CASES):
            h_sa, blocks, f = swapped_case(dims, 7000 * d + i, kind)
            dense_ok = dense_swapped_norm(h_sa, blocks, dims, f) <= COMMUTATION_TOL
            assert dense_ok == (kind == "pmc")
            if dense_ok:
                evolve_swapped_factorized(h_sa, blocks, state, 0.5, sa_basis=f)
            else:
                with pytest.raises(FactorizationPreconditionError):
                    evolve_swapped_factorized(h_sa, blocks, state, 0.5, sa_basis=f)


class TestEvolveFull:
    def test_t_zero_identity(self):
        h = random_trinary_hamiltonian(DIMS, 2, kind="violating")
        state = random_state(DIMS, 3)
        out = evolve_full(h, state, 0.0)
        assert np.max(np.abs(out.dense.amplitudes - state.dense.amplitudes)) < 1e-12

    def test_zero_hamiltonian(self):
        h = TrinaryHamiltonian(
            dims=DIMS,
            h_p=Operator(np.zeros((4, 4))),
            blocks=(Operator(np.zeros((4, 4))),) * 4,
        )
        state = random_state(DIMS, 5)
        out = evolve_full(h, state, 1.7)
        assert np.max(np.abs(out.dense.amplitudes - state.dense.amplitudes)) < 1e-12

    def test_norm_preserved(self):
        h = random_trinary_hamiltonian(DIMS, 6, kind="pmc")
        out = evolve_full(h, random_state(DIMS, 7), 1.0)
        assert abs(np.linalg.norm(out.dense.amplitudes) - 1) <= 1e-10

    @pytest.mark.parametrize(
        "kind",
        ["pmc", "coupled", "violating", "custom basis", "relabelled basis", "sparse blocks"],
    )
    def test_matches_eigendecomposition_oracle(self, kind):
        # the split reference against one whole-matrix eigh: at d_p = 3, d_sa = 4
        # pmc and a relabelled programming basis have 3 program groups of 4,
        # coupled one of 8 and one of 4 (also with diagonal blocks, which the
        # whole matrix's zero pattern would split further), violating and a
        # custom basis one of 12
        dims = TrinaryDims(2, 2, 3)
        if kind == "custom basis":
            h = in_programming_basis(random_trinary_hamiltonian(dims, 8, kind="pmc"), 10)
        elif kind == "relabelled basis":
            pmc = random_trinary_hamiltonian(dims, 8, kind="pmc")
            h = conditioned_on(pmc, relabelled_basis(dims.d_p, 10))
        elif kind == "sparse blocks":
            coupled = random_trinary_hamiltonian(dims, 8, kind="coupled")
            blocks = tuple(Operator(np.diag(np.diag(b.entries))) for b in coupled.blocks)
            h = TrinaryHamiltonian(dims=dims, h_p=coupled.h_p, blocks=blocks)
        else:
            h = random_trinary_hamiltonian(dims, 8, kind=kind)
        state = random_state(dims, 9)
        want = expm_hermitian(h.full_operator().entries, 0.9) @ state.dense.amplitudes
        out = evolve_full(h, state, 0.9)
        assert np.max(np.abs(out.dense.amplitudes - want)) < 1e-12

    @staticmethod
    def build_memory(h) -> tuple[int, int]:
        """(kept, peak) bytes traced while ``DensePropagator(h)`` is built."""
        tracemalloc.start()
        try:
            prop = DensePropagator(h)  # noqa: F841 (alive while the memory is read)
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def test_dense_reference_keeps_only_its_components(self):
        # one full matrix is 26.9 MB at total 1296; the 36 program groups of
        # 36 build and keep 36 * 36^2 entries per stack, and no full matrix
        dims = TrinaryDims(6, 6, 36)
        kept, peak = self.build_memory(random_trinary_hamiltonian(dims, 5, kind="pmc"))
        full = dims.total**2 * 16
        assert peak < 0.1 * full
        assert kept < 0.1 * full

    def test_custom_basis_reference_builds_in_its_frame(self):
        # blocks conditioned on relabelled programming states: the reference
        # assembles each group's matrix over those states, and neither the
        # full matrix nor a full-space temporary per programmed term
        dims = TrinaryDims(6, 6, 36)
        pmc = random_trinary_hamiltonian(dims, 5, kind="pmc")
        h = conditioned_on(pmc, relabelled_basis(dims.d_p, 6))
        _, peak = self.build_memory(h)
        assert peak < 0.1 * dims.total**2 * 16

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_reads_program_couplings_from_the_lower_triangle(self, seed):
        # two chains of program states under a random permutation, linked in the
        # lower triangle of h_p alone (within the Hermiticity tolerance 1e-12) and
        # sharing one block: eigh reads that triangle, so the groups must come
        # from the symmetrized pattern, or a chain would split and miss a
        # transfer of about the links times t = 40
        rng = np.random.default_rng(seed)
        dims = TrinaryDims(2, 1, 9)
        order = rng.permutation(dims.d_p)
        h_p = np.zeros((dims.d_p, dims.d_p), dtype=complex)
        for chain in (order[:6], order[6:]):
            links = (np.maximum(chain[1:], chain[:-1]), np.minimum(chain[1:], chain[:-1]))
            h_p[links] = 9e-13 * np.exp(2j * np.pi * rng.random(chain.size - 1))
        block = random_hermitian(rng, dims.d_sa)
        h = TrinaryHamiltonian(dims=dims, h_p=Operator(h_p), blocks=(block,) * dims.d_p)
        state = random_state(dims, seed)
        for t in (1.3, 40.0):
            want = expm_hermitian(h.full_operator().entries, t) @ state.dense.amplitudes
            got = evolve_full(h, state, t).dense.amplitudes
            assert np.max(np.abs(got - want)) < 1e-12


class TestEvolveFactorized:
    def test_single_branch_reduces_to_bipartite(self):
        dims = TrinaryDims(2, 2, 1)
        h = random_trinary_hamiltonian(dims, 10, kind="pmc")
        state = random_state(dims, 11)
        a = evolve_full(h, state, 1.3)
        b = evolve_factorized(h, state, 1.3)
        assert np.max(np.abs(a.dense.amplitudes - b.dense.amplitudes)) <= 1e-10

    @pytest.mark.parametrize("kind", ["pmc", "coupled"])
    @pytest.mark.parametrize("t", [0.1, 0.7, 2.0])
    def test_matches_full(self, kind, t):
        h = random_trinary_hamiltonian(DIMS, 12, kind=kind)
        state = random_state(DIMS, 13)
        a = evolve_full(h, state, t)
        b = evolve_factorized(h, state, t)
        assert np.max(np.abs(a.dense.amplitudes - b.dense.amplitudes)) <= 1e-9

    def test_custom_programming_basis_matches_full(self):
        basis = seeded_random("unitary", 4, 44).entries
        h = TrinaryHamiltonian(
            dims=DIMS,
            h_p=Operator(
                basis @ np.diag([0.3, -1.2, 0.5, 2.0]).astype(complex) @ basis.conj().T
            ),
            blocks=tuple(seeded_random("hermitian", 4, 50 + n) for n in range(4)),
            programming_basis=basis,
        )
        assert check_pmc(h).satisfied
        state = random_state(DIMS, 14)
        a = evolve_full(h, state, 0.8)
        b = evolve_factorized(h, state, 0.8)
        assert np.max(np.abs(a.dense.amplitudes - b.dense.amplitudes)) <= 1e-9

    def test_precondition_enforced(self):
        h = random_trinary_hamiltonian(DIMS, 15, kind="violating")
        with pytest.raises(FactorizationPreconditionError):
            evolve_factorized(h, random_state(DIMS, 16), 1.0)

    def test_forced_differs_when_pmc_violated(self):
        h = random_trinary_hamiltonian(DIMS, 17, kind="violating")
        state = random_state(DIMS, 18)
        a = evolve_full(h, state, 1.0)
        b = h.propagator().evolve(state, 1.0)  # the factorized formula, unchecked
        assert np.max(np.abs(a.dense.amplitudes - b.dense.amplitudes)) > 1e-6

    def test_entanglement_creation_from_separable(self):
        h = random_trinary_hamiltonian(DIMS, 19, kind="pmc")
        state = separable_state(DIMS, 100)
        out = evolve_factorized(h, state, 0.1)
        from icqt.trinary import dual_entropies

        s_psa, _ = dual_entropies(out)
        assert s_psa > 1e-6

    def test_block_locality_exact(self):
        # a single-component input never leaks into other programming components
        h = random_trinary_hamiltonian(DIMS, 20, kind="pmc")
        sa = seeded_random("state", 4, 21)
        state = TrinaryState.from_branches(DIMS, [(1.0, sa)] + [(0.0, sa)] * 3)
        out = evolve_factorized(h, state, 1.1)
        rows = out.as_matrix()
        assert np.all(rows[1:] == 0)

    def test_block_locality_exact_for_coupled_pairs(self):
        # pairs (0, 1) and (2, 3) and a lone state 4: a state on the pair (2, 3)
        # never leaks into the other components
        dims = TrinaryDims(2, 2, 5)
        h = random_trinary_hamiltonian(dims, 20, kind="coupled")
        rows = np.zeros((5, 4), dtype=complex)
        rows[2:4] = seeded_random("state", 8, 21).amplitudes.reshape(2, 4)
        state = TrinaryState.from_dense(dims, StateVector(rows.reshape(-1)))
        for t in (0.3, 1.1, 40.0):
            out = evolve_factorized(h, state, t).as_matrix()
            assert np.all(out[[0, 1, 4]] == 0)
            assert np.any(out[2:4] != 0)

    @pytest.mark.parametrize("t", [1.0, 1e4])
    def test_tiny_coupling_is_evolved_not_dropped(self, t):
        # h_p couples states 0 and 1 by 5e-14 and their blocks are equal, so the
        # commutator is exactly 0; the step must still rotate rows 0 and 1 (an
        # angle of 5e-10 at t = 1e4).  The reference applies the same factors,
        # each by expm_hermitian: the pair, the lone states, then every block.
        h_p = np.diag([0.3, 0.3, -0.7, 1.1]).astype(complex)
        h_p[0, 1] = h_p[1, 0] = 5e-14
        shared = seeded_random("hermitian", 4, 63)
        blocks = (shared, shared, seeded_random("hermitian", 4, 64), seeded_random("hermitian", 4, 65))
        h = TrinaryHamiltonian(dims=DIMS, h_p=Operator(h_p), blocks=blocks)
        assert check_pmc(h).commutator_norm == 0.0
        psi = random_state(DIMS, 66).as_matrix()
        want = np.empty_like(psi)
        want[:2] = expm_hermitian(h_p[:2, :2], t) @ psi[:2]
        for n in (2, 3):
            want[n] = expm_hermitian(h_p[n : n + 1, n : n + 1], t) @ psi[n : n + 1]
        for n, b in enumerate(blocks):
            want[n] = expm_hermitian(b.entries, t) @ want[n]
        got = evolve_factorized(h, TrinaryState.from_dense(DIMS, StateVector(psi.reshape(-1))), t)
        bound = chained_bound(spectral_step_bound(2), spectral_step_bound(4))
        assert np.linalg.norm(got.as_matrix() - want) <= bound

    def test_composition(self):
        h = random_trinary_hamiltonian(DIMS, 22, kind="pmc")
        state = random_state(DIMS, 23)
        two_step = evolve_factorized(h, evolve_factorized(h, state, 0.4), 0.8)
        one_step = evolve_factorized(h, state, 1.2)
        assert np.max(np.abs(two_step.dense.amplitudes - one_step.dense.amplitudes)) <= 1e-9

    def test_norm_preserved(self):
        h = random_trinary_hamiltonian(DIMS, 24, kind="coupled")
        out = evolve_factorized(h, random_state(DIMS, 25), 2.0)
        assert abs(np.linalg.norm(out.dense.amplitudes) - 1) <= 1e-10

    def test_one_propagator_serves_every_time(self):
        basis = seeded_random("unitary", 4, 26).entries
        h_p = Operator(basis @ np.diag([0.3, -1.1, 0.7, 2.0]).astype(complex) @ basis.conj().T)
        blocks = tuple(seeded_random("hermitian", 4, 27 + n) for n in range(4))
        h = TrinaryHamiltonian(dims=DIMS, h_p=h_p, blocks=blocks, programming_basis=basis)
        state = random_state(DIMS, 31)
        prop = h.propagator()
        for t in (0.0, 0.4, 1.3):
            got = prop.evolve(state, t).dense.amplitudes
            assert np.array_equal(got, evolve_factorized(h, state, t).dense.amplitudes)

    def test_batched_blocks_equal_per_block_formula(self):
        # the rotated program side and the per-block propagators, each formed
        # from its own eigh, within the derived bound of the matrix-free step
        h = random_trinary_hamiltonian(TrinaryDims(2, 3, 5), 32, kind="coupled")
        w = seeded_random("unitary", 5, 33).entries
        psi = seeded_random("state", 30, 34).amplitudes.reshape(5, 6)
        h = TrinaryHamiltonian(dims=h.dims, h_p=h.h_p, blocks=h.blocks, programming_basis=w)
        prop = h.propagator()
        # program step, block step, then the rotation back, computed alike on both sides
        bound = chained_bound(spectral_step_bound(5), spectral_step_bound(6), 2 * product_bound(5))
        for t in (0.0, 0.7):
            want = expm_hermitian(w.conj().T @ h.h_p.entries @ w, t) @ (w.conj().T @ psi)
            for n, b in enumerate(h.blocks):
                want[n] = expm_hermitian(b.entries, t) @ want[n]
            assert np.linalg.norm(prop.apply(psi, t) - w @ want) <= bound

    def test_checked_evolution_forms_no_full_space_matrix(self):
        # total 1296: one total x total complex matrix is 26.9 MB; the check
        # and the evolution together stay below a quarter of one
        dims = TrinaryDims(6, 6, 36)
        h = random_trinary_hamiltonian(dims, 98, kind="coupled")
        state = random_state(dims, 99)
        tracemalloc.start()
        try:
            evolve_factorized(h, state, 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dims.total**2 * 16 / 4


class TestFactorizedPropagatorBatched:
    """``FactorizedPropagator.apply`` equals its block-by-block loop of formed
    propagators within ``spectral_step_bound``, in the Frobenius norm."""

    DIMS = [TrinaryDims(d, d, d * d) for d in (2, 3, 5)] + [TrinaryDims(8, 8, 64)]  # 64 x 64

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    @pytest.mark.parametrize("kind", ["pmc", "coupled"])
    def test_equals_block_loop(self, dims, kind):
        h = random_trinary_hamiltonian(dims, 70, kind=kind)
        psi = random_state(dims, 71).as_matrix()
        prop = h.propagator()
        blocks = [b.entries for b in h.blocks]
        # a diagonal program side (pmc) takes the same phases on both sides
        steps = [spectral_step_bound(dims.d_sa)]
        if kind == "coupled":
            steps.insert(0, spectral_step_bound(dims.d_p))
        for t in (0.0, 0.3, 1.7):
            want = factorized_apply_loop(h.h_p.entries, blocks, psi, t)
            assert np.linalg.norm(prop.apply(psi, t) - want) <= chained_bound(*steps)

    def test_step_allocates_under_eight_states(self):
        # matrix-free: no array the size of the (d_p, d_sa, d_sa) eigenvector
        # stack (4.2 MB here), only a few state-sized (65.5 kB) temporaries
        dims = TrinaryDims(8, 8, 64)
        prop = random_trinary_hamiltonian(dims, 72, kind="pmc").propagator()
        psi = random_state(dims, 73).as_matrix()
        tracemalloc.start()
        try:
            prop.apply(psi, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * dims.total * 16


class TestEvolveProgrammedBlock:
    def test_zero_generators_pure_s_evolution(self):
        d = 2
        block = ProgrammedBlockStructure(
            s_basis=standard_basis("Z", d),
            a_generators=(Operator(np.zeros((d, d))),) * d,
            h_s=Operator(np.diag([0.0, 1.3]).astype(complex)),
        )
        psi = seeded_random("state", d, 1)
        phi = seeded_random("state", d, 2)
        sa = StateVector(np.kron(psi.amplitudes, phi.amplitudes))
        out = evolve_programmed_block(block, sa, 0.9)
        want = np.kron(
            expm_hermitian(block.h_s.entries, 0.9) @ psi.amplitudes, phi.amplitudes
        )
        assert np.max(np.abs(out.amplitudes - want)) < 1e-12

    def test_conditional_evolution_creates_entanglement(self):
        from icqt.linalg import entanglement_entropy

        block = ProgrammedBlockStructure(
            s_basis=standard_basis("Z", 2),
            a_generators=(
                Operator(np.zeros((2, 2))),
                Operator(np.pi / 2 * sigma("x")),
            ),
            h_s=Operator(np.zeros((2, 2))),
        )
        sa = StateVector(np.kron([1, 1] / np.sqrt(2), [1, 0]).astype(complex))
        out = evolve_programmed_block(block, sa, 1.0)
        want = expm_hermitian(dense_block(block), 1.0) @ sa.amplitudes
        assert np.max(np.abs(out.amplitudes - want)) <= 1e-9
        assert entanglement_entropy(out, (2, 2)) > 0.1

    def test_t_zero(self):
        block = random_block_structure(3, 3, 3, kind="sapmc")
        sa = seeded_random("state", 9, 4)
        out = evolve_programmed_block(block, sa, 0.0)
        assert np.max(np.abs(out.amplitudes - sa.amplitudes)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["sapmc", "shared"])
    def test_matches_dense_exponential(self, d, kind):
        block = random_block_structure(d, d, 5, kind=kind)
        sa = seeded_random("state", d * d, 6)
        out = evolve_programmed_block(block, sa, 1.4)
        want = expm_hermitian(dense_block(block), 1.4) @ sa.amplitudes
        assert np.max(np.abs(out.amplitudes - want)) <= 1e-9

    def test_precondition_enforced(self):
        block = random_block_structure(2, 2, 7, kind="violating")
        assert not check_sapmc(block).satisfied
        with pytest.raises(FactorizationPreconditionError):
            evolve_programmed_block(block, seeded_random("state", 4, 8), 1.0)


class TestTrajectory:
    def test_zero_hamiltonian_constant(self):
        h = TrinaryHamiltonian(
            dims=DIMS,
            h_p=Operator(np.zeros((4, 4))),
            blocks=(Operator(np.zeros((4, 4))),) * 4,
        )
        state = random_state(DIMS, 9)
        traj = entanglement_trajectory([(np.inf, h)], state, [0.0, 0.5, 1.0])
        assert np.max(np.abs(traj.s_psa - traj.s_psa[0])) < 1e-10
        assert np.max(np.abs(traj.s_sa_branches - traj.s_sa_branches[0])) < 1e-10

    def test_state_dims_must_match(self):
        h = random_trinary_hamiltonian(DIMS, 26, kind="pmc")
        state = random_state(TrinaryDims(4, 1, 4), 27)
        with pytest.raises(DimensionError, match="dims differ"):
            entanglement_trajectory([(np.inf, h)], state, [0.0, 0.5])

    def test_creation_from_separable(self):
        h = random_trinary_hamiltonian(DIMS, 26, kind="pmc")
        traj = entanglement_trajectory([(np.inf, h)], separable_state(DIMS, 27), [0.0, 0.1])
        assert traj.s_psa[0] < 1e-9
        assert traj.s_psa[1] > 1e-6

    def test_bounds_hold_from_entangled_start(self):
        # maximally entangled P|(SA) start stays within the ln d_p bound
        basis_sa = seeded_random("unitary", 4, 28).entries
        pairs = [(0.5 + 0j, StateVector(basis_sa[:, r])) for r in range(4)]
        state = TrinaryState.from_branches(DIMS, pairs)
        h = random_trinary_hamiltonian(DIMS, 29, kind="pmc")
        traj = entanglement_trajectory([(np.inf, h)], state, [0.0, 0.3, 0.9])
        assert np.all(traj.s_psa <= np.log(4) + 1e-9)
        assert abs(traj.s_psa[0] - np.log(4)) < 1e-9

    def test_times_validation(self):
        h = random_trinary_hamiltonian(DIMS, 30, kind="pmc")
        state = random_state(DIMS, 31)
        with pytest.raises(ValueError):
            entanglement_trajectory([(np.inf, h)], state, [0.1, 0.5])
        with pytest.raises(ValueError):
            entanglement_trajectory([(np.inf, h)], state, [0.0, 0.5, 0.2])

    def test_dense_fallback_when_pmc_violated(self):
        h = random_trinary_hamiltonian(DIMS, 32, kind="violating")
        traj = entanglement_trajectory([(np.inf, h)], random_state(DIMS, 33), [0.0, 0.2])
        assert not traj.used_factorized

    def test_custom_programming_basis_matches_pointwise_full(self):
        from icqt.trinary import dual_entropies

        basis = seeded_random("unitary", 4, 80).entries
        h = TrinaryHamiltonian(
            dims=DIMS,
            h_p=Operator(
                basis @ np.diag([0.1, 0.9, -0.4, 1.5]).astype(complex) @ basis.conj().T
            ),
            blocks=tuple(seeded_random("hermitian", 4, 81 + n) for n in range(4)),
            programming_basis=basis,
        )
        state = random_state(DIMS, 82)
        times = [0.0, 0.3, 0.8]
        traj = entanglement_trajectory([(np.inf, h)], state, times)
        assert traj.used_factorized
        for k, t in enumerate(times):
            s_psa, s_branches = dual_entropies(evolve_full(h, state, t))
            assert abs(traj.s_psa[k] - s_psa) <= 1e-9
            assert np.max(np.abs(traj.s_sa_branches[k] - s_branches)) <= 1e-9


def schedule_of(kinds, seed):
    """Segments of durations 0.5, 0.75 and 1.0 of the seeded Hamiltonian kinds."""
    return [
        (duration, random_trinary_hamiltonian(DIMS, seed + k, kind=kind))
        for k, (duration, kind) in enumerate(zip((0.5, 0.75, 1.0), kinds))
    ]


class TestEvolveDispatch:
    """entanglement_trajectory picks its propagator with one measurability check per
    segment, and walks the dense reference beside the factorized walk."""

    def assert_states_of(self, monkeypatch, h, prop, used_factorized):
        # the states whose entropies the trajectory records equal prop's
        seen = []

        def recording_entropies(state):
            seen.append(state)
            return dual_entropies(state)

        monkeypatch.setattr(dynamics, "dual_entropies", recording_entropies)
        state, times = random_state(DIMS, 91), [0.0, 0.6]
        traj = entanglement_trajectory([(np.inf, h)], state, times)
        assert traj.used_factorized is used_factorized
        assert len(seen) == len(times)
        for t, got in zip(times, seen):
            assert np.array_equal(got.dense.amplitudes, prop.evolve(state, t).dense.amplitudes)

    def test_picks_factorized_when_condition_holds(self, monkeypatch):
        h = random_trinary_hamiltonian(DIMS, 90, kind="pmc")
        self.assert_states_of(monkeypatch, h, h.propagator(), True)

    def test_falls_back_to_dense(self, monkeypatch):
        h = random_trinary_hamiltonian(DIMS, 92, kind="violating")
        self.assert_states_of(monkeypatch, h, DensePropagator(h), False)

    def test_checks_the_condition_once(self, monkeypatch):
        # once per segment; the last of three lies past the last time, and is
        # checked all the same
        calls = []

        def counting_check(h):
            calls.append(h)
            return check_pmc(h)

        monkeypatch.setattr(dynamics, "check_pmc", counting_check)
        h = random_trinary_hamiltonian(DIMS, 94, kind="coupled")
        for segments in ([(np.inf, h)], schedule_of(["pmc", "coupled", "pmc"], 100)):
            calls.clear()
            traj = entanglement_trajectory(segments, random_state(DIMS, 95), [0.0, 0.3, 0.6])
            assert [id(h) for h in calls] == [id(h) for _, h in segments]
            assert traj.checks == tuple(check_pmc(h) for _, h in segments)

    def test_schedule_records_the_factorized_walk_and_its_dense_gap(self):
        segments = schedule_of(["pmc", "coupled", "pmc"], 100)
        state, times = random_state(DIMS, 104), [0.0, 0.25, 0.5, 0.9, 1.25, 2.0]
        traj = entanglement_trajectory(segments, state, times)
        factorized = list(schedule_states(segments, state, times, TrinaryHamiltonian.propagator))
        dense = list(schedule_states(segments, state, times, DensePropagator))
        assert traj.used_factorized
        for k, current in enumerate(factorized):
            s_psa, s_branches = dual_entropies(current)
            assert traj.s_psa[k] == s_psa
            assert np.array_equal(traj.s_sa_branches[k], s_branches)
        gaps = [
            np.max(np.abs(f.dense.amplitudes - d.dense.amplitudes))
            for f, d in zip(factorized, dense)
        ]
        assert traj.max_deviation == max(gaps)
        assert traj.max_deviation <= 1e-12

    @pytest.mark.parametrize(
        "kinds, times",
        [(["pmc", "violating", "pmc"], [0.0, 0.3, 0.9, 2.0]),
         (["pmc", "coupled", "violating"], [0.0, 0.3, 0.9])],  # the last one is never reached
        ids=["reached", "past-the-last-time"],
    )
    def test_a_violating_segment_records_the_dense_walk(self, kinds, times):
        segments = schedule_of(kinds, 110)
        state = random_state(DIMS, 114)
        traj = entanglement_trajectory(segments, state, times)
        assert not traj.used_factorized
        assert traj.max_deviation is None
        assert [c.satisfied for c in traj.checks] == [kind != "violating" for kind in kinds]
        for k, current in enumerate(schedule_states(segments, state, times, DensePropagator)):
            s_psa, s_branches = dual_entropies(current)
            assert traj.s_psa[k] == s_psa
            assert np.array_equal(traj.s_sa_branches[k], s_branches)

    def test_entropy_arrays_are_read_only_copies(self):
        h = random_trinary_hamiltonian(DIMS, 98, kind="pmc")
        traj = entanglement_trajectory([(np.inf, h)], random_state(DIMS, 99), [0.0, 0.4])
        for values in (traj.s_psa, traj.s_sa_branches):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
        s_psa = np.zeros(2)
        copy = dynamics.EntanglementTrajectory(
            traj.times, s_psa, traj.s_sa_branches, traj.checks, traj.max_deviation
        )
        s_psa[0] = 1.0
        assert copy.s_psa[0] == 0.0

    def test_dense_propagator_serves_every_time(self):
        # One decomposition, reused: equal (not close) to the one-vector
        # formula on a fresh dense spectrum at each time, and within 1e-13 of
        # the explicit propagator, for a Hamiltonian that violates the condition.
        h = random_trinary_hamiltonian(DIMS, 96, kind="violating")
        state = random_state(DIMS, 97)
        prop = DensePropagator(h)
        psi = state.dense.amplitudes
        for t in (0.0, 0.3, 1.7):
            w, v = np.linalg.eigh(h.full_operator().entries)
            want = v @ (np.exp(-1j * w * t) * (v.T @ psi.conj()).conj())
            assert np.array_equal(prop.evolve(state, t).dense.amplitudes, want)
            assert np.array_equal(evolve_full(h, state, t).dense.amplitudes, want)
            oracle = hermitian_propagator(h.full_operator(), t).apply(state.dense)
            assert np.max(np.abs(want - oracle.amplitudes)) <= 1e-13


def count_labelling(monkeypatch) -> list:
    """From now on, record the h' of each ``dynamics._zero_pattern_components`` call."""
    calls = []
    label = dynamics._zero_pattern_components

    def counting_label(h):
        calls.append(h)
        return label(h)

    monkeypatch.setattr(dynamics, "_zero_pattern_components", counting_label)
    return calls


class TestOneCorePerHamiltonian:
    """h' is framed and labelled once per Hamiltonian, when it is built; the check, both
    propagators and the assembler read that one core."""

    @pytest.mark.parametrize("kind", ["pmc", "coupled", "violating"])
    def test_check_and_both_propagators_label_once(self, monkeypatch, kind):
        h = random_trinary_hamiltonian(DIMS, 83, kind=kind)
        w = seeded_random("unitary", DIMS.d_p, 84).entries
        calls = count_labelling(monkeypatch)
        h = TrinaryHamiltonian(dims=DIMS, h_p=h.h_p, blocks=h.blocks, programming_basis=w)
        check_pmc(h)
        h.propagator()
        DensePropagator(h)
        h.full_operator()
        assert len(calls) == 1 and calls[0] is h._core.h

    def test_block_structure_labels_once(self, monkeypatch):
        calls = count_labelling(monkeypatch)
        block = random_block_structure(3, 2, 85, kind="sapmc")
        check_sapmc(block)
        evolve_programmed_block(block, seeded_random("state", 6, 86), 0.4)
        block.assemble()
        assert len(calls) == 1

    def test_evolve_command_labels_once_per_segment(self, monkeypatch, tmp_path, capsys):
        segments = [
            {"duration": 0.5, "hamiltonian": {"random": "pmc"}},
            {"duration": 0.75, "hamiltonian": {"random": "coupled"}},
            {"duration": 1.0, "hamiltonian": {"random": "pmc"}},
        ]
        payload = {
            "schema": 1, "kind": "dynamics", "seed": 87, "dims": [2, 2, 4],
            "times": [0.25 * i for i in range(9)], "segments": segments,
        }
        path = tmp_path / "e.json"
        path.write_text(json.dumps(payload))
        calls = count_labelling(monkeypatch)
        assert main(["evolve", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["pmc_fallback"] is False
        assert len(calls) == len(segments)


# The dense walk and the factorized walk, each with the closed-form segment
# step that the oracle replays from t = 0.
WALKS = {
    "dense": (DensePropagator, evolve_full),
    "factorized": (TrinaryHamiltonian.propagator, evolve_factorized),
}


class TestSchedule:
    """schedule_states against oracles.schedule_walk, state for state with ==."""

    def assert_walk_matches(self, segments, state, times, walk):
        propagator, step = WALKS[walk]
        got = list(schedule_states(segments, state, times, propagator))
        assert len(got) == len(times)
        for t, out in zip(times, got):
            want = schedule_walk(segments, state, t, step)
            assert np.array_equal(out.dense.amplitudes, want.dense.amplitudes)

    def test_two_segments_match_manual(self):
        # t = 0, inside each segment, on the boundary and at the schedule end
        segments = [
            (0.5, random_trinary_hamiltonian(DIMS, 34, kind="pmc")),
            (0.7, random_trinary_hamiltonian(DIMS, 35, kind="coupled")),
        ]
        state = random_state(DIMS, 36)
        for walk in WALKS:
            self.assert_walk_matches(segments, state, [0.0, 0.2, 0.5, 0.9, 1.2], walk)

    @pytest.mark.parametrize("walk", sorted(WALKS))
    def test_zero_duration_segments(self, walk):
        # zero-duration segments first, in the middle and last; t = 0 falls
        # in the first one and t = 0.5 on the boundary before the middle one
        kinds = ["pmc", "coupled", "pmc", "coupled", "pmc"]
        durations = [0.0, 0.5, 0.0, 0.75, 0.0]
        segments = [
            (d, random_trinary_hamiltonian(DIMS, 44 + k, kind=kind))
            for k, (d, kind) in enumerate(zip(durations, kinds))
        ]
        state = random_state(DIMS, 49)
        self.assert_walk_matches(segments, state, [0.0, 0.0, 0.3, 0.5, 0.8, 1.25], walk)

    def test_violating_segment_evolves_densely(self):
        segments = [
            (0.3, random_trinary_hamiltonian(DIMS, 41, kind="pmc")),
            (0.4, random_trinary_hamiltonian(DIMS, 42, kind="violating")),
            (0.5, random_trinary_hamiltonian(DIMS, 40, kind="coupled")),
        ]
        state = random_state(DIMS, 43)
        self.assert_walk_matches(segments, state, [0.0, 0.3, 0.5, 0.7, 1.0], "dense")

    def test_time_at_a_decimal_schedule_end(self):
        # 1.1 - 0.5 rounds to 0.6000000000000001 > 0.6, yet 1.1 is where the
        # second segment ends: it steps that segment whole, and the third one
        # is never decomposed
        built = []

        def propagator(h):
            built.append(h)
            return DensePropagator(h)

        segments = [
            (0.5, random_trinary_hamiltonian(DIMS, 60, kind="pmc")),
            (0.6, random_trinary_hamiltonian(DIMS, 61, kind="coupled")),
            (1.0, random_trinary_hamiltonian(DIMS, 62, kind="violating")),
        ]
        state = random_state(DIMS, 63)
        *_, got = schedule_states(segments, state, [0.0, 1.1], propagator)
        want = DensePropagator(segments[1][1]).evolve(
            DensePropagator(segments[0][1]).evolve(state, 0.5), 0.6
        )
        assert np.array_equal(got.dense.amplitudes, want.dense.amplitudes)
        assert [id(h) for h in built] == [id(h) for _, h in segments[:2]]
        for walk in WALKS:
            self.assert_walk_matches(segments[:2], state, [0.0, 0.5, 1.1], walk)

    def test_segment_ends_past_the_double_range_read_as_infinite(self):
        # 1e308 + 1e308 overflows math.fsum; that end lies past every finite time
        segments = [
            (1e308, random_trinary_hamiltonian(DIMS, 64, kind="pmc")),
            (1e308, random_trinary_hamiltonian(DIMS, 65, kind="coupled")),
            (1.0, random_trinary_hamiltonian(DIMS, 66, kind="pmc")),
        ]
        state = random_state(DIMS, 67)
        for walk in WALKS:
            self.assert_walk_matches(segments, state, [0.0, 1.0], walk)

    def test_rejects_negative_duration(self):
        h = random_trinary_hamiltonian(DIMS, 37, kind="pmc")
        with pytest.raises(ValueError):
            next(schedule_states([(-0.1, h)], random_state(DIMS, 38), [0.0], DensePropagator))

    def test_decomposes_each_segment_reached_once(self):
        built = []

        def propagator(h):
            built.append(h)
            return DensePropagator(h)

        hs = [random_trinary_hamiltonian(DIMS, 50 + k, kind="violating") for k in range(4)]
        segments = [(0.5, h) for h in hs]
        list(schedule_states(segments, random_state(DIMS, 54), [0.0, 0.2, 0.4, 1.2], propagator))
        assert [id(h) for h in built] == [id(h) for h in hs[:3]]

    def test_too_short_schedule_raises_before_any_decomposition(self):
        built = []
        h = random_trinary_hamiltonian(DIMS, 55, kind="pmc")
        walk = schedule_states(
            [(0.5, h), (0.25, h)], random_state(DIMS, 56), [0.0, 0.5, 0.8], built.append
        )
        with pytest.raises(ScheduleError, match="shorter than requested time 0.8"):
            next(walk)
        assert built == []

    def test_segment_dims_differing_from_the_state_raise_before_any_decomposition(self):
        # equal d_p and d_sa, so the amplitude matrices alone would fit: h at
        # (d_s, d_a) = (2, 2), the state at (4, 1); a later segment is checked too
        built = []
        state = random_state(TrinaryDims(4, 1, 4), 60)
        h = random_trinary_hamiltonian(TrinaryDims(4, 1, 4), 61, kind="pmc")
        other = random_trinary_hamiltonian(DIMS, 62, kind="pmc")
        for segments in ([(1.0, other)], [(0.5, h), (0.5, other)]):
            walk = schedule_states(segments, state, [0.0, 0.2], built.append)
            with pytest.raises(DimensionError, match="dims differ"):
                next(walk)
        assert built == []

    def test_drops_each_decomposition_before_the_next(self):
        # total 1296: one total x total complex matrix is 26.9 MB, and a live
        # dense decomposition holds at least its eigenvector matrix.  Walking a
        # second segment while the first one's decomposition were still alive
        # would add that whole matrix to the peak of walking one segment; the
        # bound allows half of it (about 1.2x that peak).
        dims = TrinaryDims(6, 6, 36)
        h1 = random_trinary_hamiltonian(dims, 57, kind="violating")
        h2 = random_trinary_hamiltonian(dims, 58, kind="violating")
        state = random_state(dims, 59)

        def walk_peak(segments, times):
            tracemalloc.start()
            try:
                for _ in schedule_states(segments, state, times, DensePropagator):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = walk_peak([(0.4, h1)], [0.0, 0.3])
        two = walk_peak([(0.4, h1), (0.4, h2)], [0.0, 0.3, 0.6])
        assert two < one + dims.total**2 * 16 / 2


class TestSwappedRoles:
    def test_matches_dense_oracle(self):
        h_sa = Operator(np.diag(np.arange(4.0)).astype(complex))
        blocks_p = tuple(seeded_random("hermitian", 4, 60 + m) for m in range(4))
        state = random_state(DIMS, 39)
        out = evolve_swapped_factorized(h_sa, blocks_p, state, 0.6)
        full = swapped_full_operator(h_sa, blocks_p, DIMS)
        want = hermitian_propagator(Operator(full), 0.6).apply(state.dense)
        assert np.max(np.abs(out.dense.amplitudes - want.amplitudes)) <= 1e-9

    def test_precondition_enforced(self):
        h_sa = seeded_random("hermitian", 4, 61)
        blocks_p = tuple(seeded_random("hermitian", 4, 70 + m) for m in range(4))
        with pytest.raises(FactorizationPreconditionError):
            evolve_swapped_factorized(h_sa, blocks_p, random_state(DIMS, 40), 1.0)
