import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from icqt.born import DEGENERACY_TOL, EmptyBranchError, _dual_born_report, dual_born_report
from icqt.linalg import (
    DimensionError,
    StateVector,
    branch_schmidt_coefficients,
    entanglement_entropy,
    schmidt_decompose,
    seeded_random,
)
from icqt.trinary import (
    EMPTY_BRANCH_TOL,
    BranchCountError,
    PointerCapacityError,
    ProgrammedUnitary,
    TrinaryDims,
    TrinaryState,
    apply_programmed,
    _branch_spectra,
    _check_orthonormal,
    _unit_rows,
    _weights,
    build_programmed_unitary,
    branch_spectra,
    dual_entropies,
    pointer_readout_operators,
    standard_basis,
    validate_informational_completeness,
)
from oracles import (
    EPS,
    apply_programmed_loop,
    branch_entropies_loop,
    branch_spectra_loop,
    dense_programmed_matrix,
    dual_born_loop,
    entropy_bound,
    full_svd_entropy,
    operator_span_rank,
    pauli_projectors,
    pointer_apply_bound,
    pointer_readout_bound,
    pointer_unitary,
    readout_operators_loop,
    singular_value_bound,
    unit_rows_loop,
)

DIMS224 = TrinaryDims(2, 2, 4)
HUGE_D_P = TrinaryDims(1, 1, 10**5000)  # a d_p past Python's decimal digit limit
PLUS = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))


def zxyz_unitary(dims=DIMS224):
    bases = [standard_basis(b, dims.d_s) for b in ("Z", "X", "Y", "Z")]
    return build_programmed_unitary(dims, bases)


def pointer(basis, d_a):
    """The one-branch program (d_p = 1) that pointer-measures ``basis``."""
    return build_programmed_unitary(TrinaryDims(len(basis), d_a, 1), [basis])


def apply_to(pu, amplitudes):
    """``apply_programmed`` on the state of the given amplitudes, as amplitudes."""
    state = TrinaryState.from_dense(pu.dims, StateVector(amplitudes))
    return apply_programmed(pu, state).dense.amplitudes


def program_matrix(pu):
    """The matrix of ``apply_programmed``, one basis state of P x S x A per column."""
    return np.array([apply_to(pu, column) for column in np.eye(pu.dims.total)]).T


def oracle_matrix(pu):
    """The block-diagonal matrix of ``pointer_unitary`` of each of the program's bases."""
    return dense_programmed_matrix([pointer_unitary(b, pu.dims.d_a) for b in pu.bases])


class TestDims:
    @pytest.mark.parametrize(
        "triple,valid,minimal",
        [
            ((2, 2, 4), True, True),
            ((3, 3, 9), True, True),
            ((2, 2, 3), False, False),
            ((2, 3, 6), False, True),  # d_p = d_s*d_a but d_a != d_s
            ((2, 2, 5), False, True),
        ],
    )
    def test_predicates(self, triple, valid, minimal):
        dims = TrinaryDims(*triple)
        assert dims.measurability_valid is valid
        assert dims.minimal_complete is minimal

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TrinaryDims(0, 2, 4)

    @pytest.mark.parametrize("triple", [(2.0, 2, 4), (True, 1, 1), (2, "2", 4), (2, 2, None)])
    def test_rejects_a_dim_that_is_not_an_integer(self, triple):
        # 2.0 and True once passed, and (2.0, True, 4) had total 8.0
        with pytest.raises(DimensionError, match="must be an integer >= 1"):
            TrinaryDims(*triple)

    def test_numpy_dims_kept_as_ints(self):
        dims = TrinaryDims(np.int64(2), np.uint8(2), np.int32(4))
        assert dims == TrinaryDims(2, 2, 4)
        assert all(type(d) is int for d in (dims.d_s, dims.d_a, dims.d_p, dims.total))


def test_checked_basis_is_an_owned_read_only_copy():
    w = standard_basis("X", 2)
    b = _check_orthonormal(w, 2, "basis")
    w[:] = np.eye(2)
    assert np.array_equal(b, standard_basis("X", 2))
    assert not b.flags.writeable


class TestPointerMeasurement:
    def test_z_basis_is_cnot(self):
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.array_equal(program_matrix(pointer(standard_basis("Z", 2), 2)), cnot)
        assert np.array_equal(pointer_unitary(standard_basis("Z", 2), 2), cnot)

    def test_z_on_plus_makes_bell(self):
        out = apply_to(pointer(standard_basis("Z", 2), 2), np.kron(PLUS.amplitudes, [1, 0]))
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(out - bell)) < 1e-15

    def test_x_basis_on_zero(self):
        # expected output computed by the explicit matrix oracle
        basis = standard_basis("X", 2)
        matrix = np.zeros((4, 4), dtype=complex)
        shift = np.array([[0, 1], [1, 0]], dtype=complex)
        for j, power in enumerate((np.eye(2), shift)):
            proj = np.outer(basis[:, j], basis[:, j].conj())
            matrix += np.kron(proj, power)
        state_in = np.kron([1, 0], [1, 0]).astype(complex)
        want = matrix @ state_in
        out = apply_to(pointer(basis, 2), state_in)
        assert np.max(np.abs(out - want)) < 1e-14
        coeffs = schmidt_decompose(StateVector(out), (2, 2)).coefficients
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_qutrit_shift(self):
        state_in = np.zeros(9, dtype=complex)
        state_in[2 * 3 + 0] = 1.0  # |2>|0>
        out = apply_to(pointer(standard_basis("Z", 3), 3), state_in)
        want = np.zeros(9, dtype=complex)
        want[2 * 3 + 2] = 1.0  # |2>|2>
        assert np.array_equal(out, want)

    def test_pointer_capacity(self):
        message = "^apparatus dim 2 < system dim 3: not enough pointer positions$"
        with pytest.raises(PointerCapacityError, match=message):
            pointer(standard_basis("Z", 3), 2)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 2.0])
    def test_rejects_a_basis_that_is_not_orthonormal(self, entry):
        basis = np.eye(2, dtype=complex)
        basis[1, 1] = entry
        with warnings.catch_warnings():  # refused without a warning
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^pointer basis columns are not orthonormal$"):
                pointer(basis, 2)

    def test_branch_schmidt_equals_input_amplitudes(self):
        # pointer branch on |psi>|0>: Schmidt coefficients are sorted |<j|psi>|
        basis = seeded_random("unitary", 3, 5).entries
        psi = seeded_random("state", 3, 6)
        out = apply_to(pointer(basis, 3), np.kron(psi.amplitudes, [1, 0, 0]))
        coeffs = schmidt_decompose(StateVector(out), (3, 3)).coefficients
        want = np.sort(np.abs(basis.conj().T @ psi.amplitudes))[::-1]
        assert np.max(np.abs(coeffs - want)) < 1e-10


class TestProgrammedUnitary:
    def test_zxyz_is_unitary(self):
        matrix = program_matrix(zxyz_unitary())
        assert np.max(np.abs(matrix.conj().T @ matrix - np.eye(16))) < 1e-12

    def test_all_z_constructs(self):
        pu = build_programmed_unitary(DIMS224, [standard_basis("Z", 2)] * 4)
        assert pu.bases.shape == (4, 2, 2)
        assert np.array_equal(pu.bases, np.broadcast_to(np.eye(2), (4, 2, 2)))

    def test_bases_are_an_owned_read_only_stack(self):
        w = [standard_basis("X", 2) for _ in range(4)]
        pu = build_programmed_unitary(DIMS224, w)
        w[0][:] = np.eye(2)
        assert np.array_equal(pu.bases[0], standard_basis("X", 2))
        assert not pu.bases.flags.writeable
        assert pu.bases.dtype == np.complex128

    def test_wrong_branch_count(self):
        with pytest.raises(BranchCountError, match="^need 4 branch bases, got 3$"):
            build_programmed_unitary(DIMS224, [standard_basis("Z", 2)] * 3)

    def test_block_diagonal_exact(self):
        full = program_matrix(zxyz_unitary())
        for r, rp in itertools.product(range(4), repeat=2):
            block = full[r * 4 : (r + 1) * 4, rp * 4 : (rp + 1) * 4]
            if r != rp:
                assert np.all(block == 0)

    def test_non_unitary_branch_rejected(self):
        bases = (np.ones((2, 2)),) + (np.eye(2),) * 3
        with pytest.raises(ValueError, match="^pointer basis columns are not orthonormal$"):
            ProgrammedUnitary(dims=DIMS224, bases=bases)


class TestTrinaryState:
    def test_fields_are_dims_and_amplitudes(self):
        assert [f.name for f in dataclasses.fields(TrinaryState)] == ["dims", "dense"]

    def test_from_product_weights(self):
        chi = seeded_random("state", 4, 1)
        state = TrinaryState.from_product(DIMS224, chi, PLUS, StateVector.basis(2, 0))
        weights = state.branch_weights()
        assert np.max(np.abs(weights - np.abs(chi.amplitudes) ** 2)) < 1e-12

    def test_from_product_dense_is_kron(self):
        minus_i = StateVector(np.array([1, -1j], dtype=complex) / np.sqrt(2))
        factors = [
            (seeded_random("state", 4, 3 * k), seeded_random("state", 2, 3 * k + 1),
             seeded_random("state", 2, 3 * k + 2))
            for k in range(5)
        ]
        factors.append((StateVector.basis(4, 2), minus_i, StateVector.basis(2, 1)))
        for chi, psi, phi in factors:
            state = TrinaryState.from_product(DIMS224, chi, psi, phi)
            want = np.kron(chi.amplitudes, np.kron(psi.amplitudes, phi.amplitudes))
            assert state.dense.amplitudes.tobytes() == want.tobytes()  # bitwise, zero signs too

    def test_from_branches_checks_shape(self):
        dims = TrinaryDims(2, 2, 2)
        pairs = [(1.0, StateVector.basis(4, 0)), (0.0, StateVector.basis(4, 1))]
        want = np.zeros(8, dtype=complex)
        want[0] = 1.0
        assert np.array_equal(TrinaryState.from_branches(dims, pairs).dense.amplitudes, want)
        with pytest.raises(DimensionError):
            TrinaryState.from_branches(dims, pairs + [(0.0, StateVector.basis(4, 2))])  # one pair too many
        with pytest.raises(DimensionError):
            TrinaryState.from_branches(dims, [(1.0, StateVector.basis(2, 0))] * 2)  # pairs on S only

    def test_empty_branch_state_raises(self):
        state = TrinaryState.from_dense(
            TrinaryDims(2, 2, 2), StateVector.basis(8, 0)
        )
        with pytest.raises(ValueError):
            state.branch_state(1)


class TestApplyProgrammed:
    def test_inert_program(self):
        # Z pointers on |0>_S leave the apparatus at |0>_A: a product state stays one
        pu = build_programmed_unitary(DIMS224, [standard_basis("Z", 2)] * 4)
        state = TrinaryState.from_product(
            DIMS224, StateVector.basis(4, 0), StateVector.basis(2, 0), StateVector.basis(2, 0)
        )
        out = apply_programmed(pu, state)
        s_psa, s_branches = dual_entropies(out)
        assert s_psa < 1e-12
        assert np.all(s_branches < 1e-12)

    def test_matches_dense_oracle_product_state(self):
        pu = zxyz_unitary()
        state = TrinaryState.from_product(
            DIMS224, StateVector.uniform(4), PLUS, StateVector.basis(2, 0)
        )
        out = apply_programmed(pu, state)
        want = oracle_matrix(pu) @ state.dense.amplitudes
        assert np.max(np.abs(out.dense.amplitudes - want)) <= 1e-10
        # P|(SA) entropy agrees with the Schmidt spectrum of the dense result
        coeffs = schmidt_decompose(out.dense, (4, 4)).coefficients
        p = coeffs[coeffs > 1e-15] ** 2
        assert abs(entanglement_entropy(out.dense, (4, 4)) + np.sum(p * np.log(p))) < 1e-12

    def test_matches_dense_oracle_without_branch_view(self):
        pu = zxyz_unitary()
        state = TrinaryState.from_dense(DIMS224, seeded_random("state", 16, 3))
        out = apply_programmed(pu, state)
        want = oracle_matrix(pu) @ state.dense.amplitudes
        assert np.max(np.abs(out.dense.amplitudes - want)) <= 1e-10

    def test_dual_entropy_bounds(self):
        pu = zxyz_unitary()
        for seed in range(5):
            state = TrinaryState.from_dense(DIMS224, seeded_random("state", 16, seed))
            s_psa, s_branches = dual_entropies(apply_programmed(pu, state))
            assert 0 <= s_psa <= np.log(4) + 1e-9
            assert np.all(s_branches <= np.log(2) + 1e-9)


class TestMatrixFreePointer:
    """``apply_programmed`` and ``pointer_readout_operators`` read the branch bases alone,
    and agree with the formed ``pointer_unitary`` of each branch within the derived
    bounds: every shipped basis name, seeded random bases, a pointer that wraps
    (d_a > d_s), a basis probe and a random one."""

    DIMS = [TrinaryDims(d, d, d * d) for d in (2, 3, 4, 5)] + [
        TrinaryDims(2, 3, 4), TrinaryDims(3, 5, 9),
    ]

    @staticmethod
    def programs(dims):
        """The shipped names in turn over the branches (Y at d_s = 2 only), and seeded bases."""
        names = "ZXY" if dims.d_s == 2 else "ZX"
        named = [standard_basis(names[r % len(names)], dims.d_s) for r in range(dims.d_p)]
        seeded = [seeded_random("unitary", dims.d_s, 70 + r).entries for r in range(dims.d_p)]
        return {"named": build_programmed_unitary(dims, named),
                "random": build_programmed_unitary(dims, seeded)}

    @staticmethod
    def states(dims):
        """A seeded state and a seeded product start."""
        return [
            TrinaryState.from_dense(dims, seeded_random("state", dims.total, 72)),
            TrinaryState.from_product(
                dims, seeded_random("state", dims.d_p, 73), seeded_random("state", dims.d_s, 74),
                seeded_random("state", dims.d_a, 75),
            ),
        ]

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_apply_matches_the_formed_unitaries(self, dims):
        bound = pointer_apply_bound(dims.d_s, dims.d_a)
        for name, pu in self.programs(dims).items():
            dense = oracle_matrix(pu)
            for state in self.states(dims):
                got = apply_programmed(pu, state).dense.amplitudes
                assert np.linalg.norm(got - dense @ state.dense.amplitudes) <= bound, name

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_readout_matches_the_formed_unitaries(self, dims):
        bound = pointer_readout_bound(dims.d_s, dims.d_a)
        probes = {"basis": StateVector.basis(dims.d_a, 1), "random": seeded_random("state", dims.d_a, 76)}
        for name, pu in self.programs(dims).items():
            for kind, probe in probes.items():
                got = pointer_readout_operators(pu, probe)
                assert got.shape == (dims.d_p, dims.d_a, dims.d_s, dims.d_s)
                for r, basis in enumerate(pu.bases):
                    u = pointer_unitary(basis, dims.d_a)
                    want = readout_operators_loop(u, dims.d_s, dims.d_a, probe.amplitudes)
                    assert np.max(np.abs(got[r] - np.array(want))) <= bound, (name, kind, r)

    @pytest.mark.parametrize("triple", [(2, 3, 4), (3, 5, 9)])
    def test_wrapping_pointer_is_a_cyclic_shift(self, triple):
        # Z pointers move |j>_S |a>_A to |j>_S |a + j mod d_a>_A, exactly
        dims = TrinaryDims(*triple)
        pu = build_programmed_unitary(dims, [standard_basis("Z", dims.d_s)] * dims.d_p)
        for j, a in itertools.product(range(dims.d_s), range(dims.d_a)):
            start = TrinaryState.from_product(
                dims, StateVector.basis(dims.d_p, 0), StateVector.basis(dims.d_s, j),
                StateVector.basis(dims.d_a, a),
            )
            want = TrinaryState.from_product(
                dims, StateVector.basis(dims.d_p, 0), StateVector.basis(dims.d_s, j),
                StateVector.basis(dims.d_a, (a + j) % dims.d_a),
            )
            assert np.array_equal(apply_programmed(pu, start).dense.amplitudes,
                                  want.dense.amplitudes)

    def test_build_apply_and_report_hold_a_few_states(self):
        """At (12, 12, 144) the (d_p, d_s, d_s) bases hold one state's bytes, and the
        build, the apply (one result buffer that holds the frames too, the gathered rows
        and a conjugate of the bases) and the dual Born report peak below four state
        sizes.  One formed d_sa x d_sa unitary per branch would hold d_sa = 144 states."""
        dims = TrinaryDims(12, 12, 144)
        bases = [seeded_random("unitary", 12, 80 + r).entries for r in range(dims.d_p)]
        state = TrinaryState.from_dense(dims, seeded_random("state", dims.total, 81))
        tracemalloc.start()
        try:
            dual_born_report(apply_programmed(build_programmed_unitary(dims, bases), state))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * state.dense.amplitudes.nbytes


class TestDualEntropies:
    """``dual_entropies`` against one full SVD per cut, within ``entropy_bound``.

    The library takes values-only SVDs and the oracle full ones, so the
    entropies agree within the derived bound; an empty branch is exactly 0
    on both sides.
    """

    DIMS = (DIMS224, TrinaryDims(3, 3, 9))

    @staticmethod
    def assert_close(state):
        dims = state.dims
        s_psa, branches = dual_entropies(state)
        want = full_svd_entropy(state.as_matrix())
        assert abs(s_psa - want) <= entropy_bound((dims.d_p, dims.d_sa))
        want = branch_entropies_loop(state.as_matrix(), (dims.d_s, dims.d_a), EMPTY_BRANCH_TOL)
        assert np.max(np.abs(branches - want)) <= entropy_bound((dims.d_s, dims.d_a))
        return branches, want

    @staticmethod
    def degenerate_program(dims):
        """Z and X (Fourier) pointer measurements in turn, zxyz at (2, 2, 4)."""
        if dims == DIMS224:
            return zxyz_unitary()
        bases = [standard_basis("ZX"[r % 2], dims.d_s) for r in range(dims.d_p)]
        return build_programmed_unitary(dims, bases)

    @pytest.mark.parametrize("dims", [DIMS224, TrinaryDims(3, 3, 9), TrinaryDims(2, 3, 5)])
    def test_equals_per_branch_loop(self, dims):
        for seed in range(3):
            state = TrinaryState.from_dense(dims, seeded_random("state", dims.total, seed))
            self.assert_close(state)

    def test_programmed_product_state(self):
        # the entropies come from the renormalised rows, as the loop takes them
        state = TrinaryState.from_product(
            DIMS224, StateVector.uniform(4), PLUS, StateVector.basis(2, 0)
        )
        self.assert_close(apply_programmed(zxyz_unitary(), state))

    @pytest.mark.parametrize("dims", DIMS)
    def test_degenerate_branches(self, dims):
        # S uniform: every Z branch has equal Schmidt values, every X branch one
        state = TrinaryState.from_product(
            dims, StateVector.uniform(dims.d_p), StateVector.uniform(dims.d_s),
            StateVector.basis(dims.d_a, 0),
        )
        out = apply_programmed(self.degenerate_program(dims), state)
        assert any(dual_born_report(out).degenerate)
        branches, _ = self.assert_close(out)
        assert abs(branches[0] - np.log(dims.d_s)) <= entropy_bound((dims.d_s, dims.d_a))

    @pytest.mark.parametrize("dims", DIMS)
    def test_rank_deficient_branches(self, dims):
        # every branch of rank 1 or 2 (below min(d_s, d_a) at (3, 3, 9))
        rng = np.random.default_rng(30)
        rows = []
        for r in range(dims.d_p):
            rank = 1 + r % 2
            left = rng.normal(size=(dims.d_s, rank)) + 1j * rng.normal(size=(dims.d_s, rank))
            right = rng.normal(size=(rank, dims.d_a)) + 1j * rng.normal(size=(rank, dims.d_a))
            rows.append((left @ right).ravel())
        amps = np.array(rows).ravel()
        state = TrinaryState.from_dense(dims, StateVector(amps / np.linalg.norm(amps)))
        branches, _ = self.assert_close(state)
        assert branches[0] <= entropy_bound((dims.d_s, dims.d_a))

    def test_empty_branch_is_exactly_zero(self):
        for dims in self.DIMS:
            amps = seeded_random("state", dims.total, 21).amplitudes.copy()
            amps[1 * dims.d_sa : 2 * dims.d_sa] = 0.0
            state = TrinaryState.from_dense(dims, StateVector(amps / np.linalg.norm(amps)))
            branches, want = self.assert_close(state)
            assert branches[1] == want[1] == 0.0
            assert np.all(np.delete(branches, 1) > 0)

class TestAmplitudesOnly:
    """A state's reports depend on its amplitudes only, bit for bit."""

    DIMS = (DIMS224, TrinaryDims(3, 3, 9))

    @staticmethod
    def programs(dims):
        seeded = [seeded_random("unitary", dims.d_s, 40 + r).entries for r in range(dims.d_p)]
        pus = [build_programmed_unitary(dims, seeded)]
        if dims == DIMS224:
            pus.append(zxyz_unitary())
        return pus

    @staticmethod
    def built_states(dims):
        """from_product and from_branches states, one with an empty branch."""
        d_p, d_s, d_a, d_sa = dims.d_p, dims.d_s, dims.d_a, dims.d_sa
        states = [
            TrinaryState.from_product(
                dims, StateVector.uniform(d_p), StateVector.uniform(d_s), StateVector.basis(d_a, 0)
            ),
            TrinaryState.from_product(
                dims, seeded_random("state", d_p, 1), seeded_random("state", d_s, 2),
                seeded_random("state", d_a, 3),
            ),
        ]
        sa = [seeded_random("state", d_sa, 10 + r) for r in range(d_p)]
        g = seeded_random("state", d_p, 4).amplitudes.copy()
        states.append(TrinaryState.from_branches(dims, list(zip(g, sa))))
        g[1] = 0.0
        states.append(TrinaryState.from_branches(dims, list(zip(g / np.linalg.norm(g), sa))))
        return states

    def cases(self):
        for dims in self.DIMS:
            for state in self.built_states(dims):
                yield state
                for pu in self.programs(dims):
                    yield apply_programmed(pu, state)

    @staticmethod
    def twin(state):
        return TrinaryState.from_dense(state.dims, state.dense)

    def test_born_report(self):
        for state in self.cases():
            got, want = dual_born_report(state), dual_born_report(self.twin(state))
            assert got.decision_probs.tobytes() == want.decision_probs.tobytes()
            assert got.outcome_probs.tobytes() == want.outcome_probs.tobytes()
            assert (got.degenerate, got.empty) == (want.degenerate, want.empty)

    def test_dual_entropies(self):
        for state in self.cases():
            (s_psa, branches), (w_psa, w_branches) = (
                dual_entropies(state), dual_entropies(self.twin(state))
            )
            assert s_psa == w_psa
            assert branches.tobytes() == w_branches.tobytes()

    def test_apply_programmed(self):
        for state in self.cases():
            for pu in self.programs(state.dims):
                got = apply_programmed(pu, state).dense.amplitudes
                want = apply_programmed(pu, self.twin(state)).dense.amplitudes
                assert got.tobytes() == want.tobytes()


class TestBatchedBranchPasses:
    """The one-pass branch kernels equal their per-branch loops (tests/oracles.py) with ==;
    ``apply_programmed``, which forms no branch matrix, is within ``pointer_apply_bound``."""

    DIMS = [TrinaryDims(d, d, d * d) for d in (2, 3, 5)] + [TrinaryDims(8, 8, 64)]  # 64 x 64

    @staticmethod
    def states(dims):
        """A seeded state; one with an empty branch and a faint one; degenerate branches."""
        amps = seeded_random("state", dims.total, dims.total).amplitudes
        rows = amps.reshape(dims.d_p, dims.d_sa).copy()
        rows[1] = 0.0
        rows[2] *= 1e-6 / np.linalg.norm(rows[2])  # weight about 1e-12, not empty
        edge = rows.reshape(-1) / np.linalg.norm(rows)
        # S uniform under Z and X pointer measurements: equal Schmidt values
        bases = [standard_basis("ZX"[r % 2], dims.d_s) for r in range(dims.d_p)]
        product = TrinaryState.from_product(
            dims, StateVector.uniform(dims.d_p), StateVector.uniform(dims.d_s),
            StateVector.basis(dims.d_a, 0),
        )
        return [
            TrinaryState.from_dense(dims, StateVector(amps)),
            TrinaryState.from_dense(dims, StateVector(edge)),
            apply_programmed(build_programmed_unitary(dims, bases), product),
        ]

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_branch_state(self, dims):
        for state in self.states(dims):
            units = unit_rows_loop(state.as_matrix(), EMPTY_BRANCH_TOL)
            for r, unit in enumerate(units):
                if not unit.any():
                    with pytest.raises(EmptyBranchError):
                        state.branch_state(r)
                else:
                    assert np.array_equal(state.branch_state(r).amplitudes, unit)

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_branch_spectra(self, dims):
        for state in self.states(dims):
            want = branch_spectra_loop(state.as_matrix(), (dims.d_s, dims.d_a), EMPTY_BRANCH_TOL)
            assert np.array_equal(branch_spectra(state), want)

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_dual_born_report(self, dims):
        flags = set()
        for state in self.states(dims):
            got = dual_born_report(state)
            decision, outcome, degenerate, empty = dual_born_loop(
                state.as_matrix(), (dims.d_s, dims.d_a), EMPTY_BRANCH_TOL, DEGENERACY_TOL
            )
            assert np.array_equal(got.decision_probs, decision)
            assert np.array_equal(got.outcome_probs, outcome)
            assert (got.degenerate, got.empty) == (degenerate, empty)
            flags.update(degenerate)
        assert flags == {False, True}

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_apply_programmed(self, dims):
        # rotate, shift and rotate back against one formed pointer unitary per branch
        seeded = [seeded_random("unitary", dims.d_s, 40 + r).entries for r in range(dims.d_p)]
        pu = build_programmed_unitary(dims, seeded)
        matrices = [pointer_unitary(b, dims.d_a) for b in pu.bases]
        for state in self.states(dims):
            want = apply_programmed_loop(matrices, state.as_matrix())
            gap = np.linalg.norm(apply_programmed(pu, state).as_matrix() - want)
            assert gap <= pointer_apply_bound(dims.d_s, dims.d_a)

    def test_branch_spectra_allocates_one_state_sized_array(self):
        """Beyond the state, the pass holds one state-sized array: the unit rows.

        The budget is the state's bytes (the weights, taken before the unit
        rows exist, need at most two half-size real arrays), one more
        state-sized array and the SVD output.  A copy of the nonempty rows
        (``rows[mask]``) next to the unit rows would exceed it.
        """
        dims = TrinaryDims(16, 16, 256)  # a 256 x 256 amplitude matrix, 1 MB
        state = TrinaryState.from_dense(dims, seeded_random("state", dims.total, 5))
        tracemalloc.start()
        try:
            spectra = branch_spectra(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * state.dense.amplitudes.nbytes + spectra.nbytes


def schmidt_form(state):
    """The Schmidt form of a trinary state's P|(SA) cut."""
    return schmidt_decompose(state.dense, (state.dims.d_p, state.dims.d_sa))


class TestRealTypedBranchRows:
    """The branch spectra keep the dtype of the rows they are given: complex rows take the
    complex formula ``branch_schmidt_coefficients(_unit_rows(...))`` whatever their
    imaginary parts, and float64 rows, as a real ICQC run passes them, take float64."""

    DIMS = [TrinaryDims(2, 3, 6), TrinaryDims(4, 4, 16)]

    @staticmethod
    def states(dims):
        """Real (with -0.0 real parts), -0.0 imaginary parts, a nonzero imaginary part in
        an empty row only, and complex; row 1 is empty in the first three."""
        rows = np.random.default_rng(dims.total).normal(size=(dims.d_p, dims.d_sa))
        rows[0, ::3] = -0.0
        rows[1] = 0.0
        rows /= np.linalg.norm(rows)
        real = rows.astype(complex)
        negative_zero = real.copy()
        negative_zero.imag[:, ::2] = -0.0
        faint = real.copy()
        faint[1] = 1e-9 * (1 + 1j)  # weight 2e-18 * d_sa: empty
        faint /= np.linalg.norm(faint)
        state = seeded_random("state", dims.total, dims.total).amplitudes
        return {
            name: TrinaryState.from_dense(dims, StateVector(amps.reshape(-1)))
            for name, amps in
            [("real", real), ("negative-zero", negative_zero), ("empty-row-imag", faint),
             ("complex", state)]
        }

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_spectra_and_report_equal_the_complex_formula(self, dims, spectral_calls):
        for name, state in self.states(dims).items():
            rows, weights = state.as_matrix(), state.branch_weights()
            want = branch_schmidt_coefficients(_unit_rows(rows, weights), (dims.d_s, dims.d_a))
            spectral_calls.clear()
            got = _branch_spectra(dims, rows, weights)
            assert [call[2] for call in spectral_calls] == ["complex128"], name
            assert got.tobytes() == want.tobytes(), name
            report = dual_born_report(state)
            parent = _dual_born_report(dims, want, weights)
            for field in dataclasses.fields(report):
                assert np.array_equal(getattr(report, field.name), getattr(parent, field.name))

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_float64_rows_are_read_as_they_are(self, dims, spectral_calls):
        # the rows of a real ICQC run buffer: the same weights and emptiness, bit for bit,
        # and unit rows and spectra within round-off of the complex-typed rows' (the
        # float64 norms are contiguous dot products, not strided ones)
        rows = self.states(dims)["real"].as_matrix()
        real = np.ascontiguousarray(rows.real)
        weights = _weights(real)
        assert weights.tobytes() == _weights(rows).tobytes()
        unit = _unit_rows(real, weights)
        assert unit.dtype == np.float64 and not unit[1].any()
        assert unit[0].tobytes() == (real[0] * (1.0 / np.linalg.norm(real[0]))).tobytes()
        assert np.max(np.abs(unit - _unit_rows(rows, weights))) <= 4 * EPS
        spectral_calls.clear()
        got = _branch_spectra(dims, real, weights)
        assert [call[2] for call in spectral_calls] == ["float64"]
        gap = got - _branch_spectra(dims, rows, weights)
        assert np.max(np.abs(gap)) <= singular_value_bound((dims.d_s, dims.d_a))

    def test_branch_state_keeps_the_complex_division(self):
        state = self.states(TrinaryDims(2, 3, 6))["real"]
        rows, weights = state.as_matrix(), state.branch_weights()
        got = state.branch_state(0).amplitudes
        assert got.tobytes() == (rows[:1] / np.linalg.norm(rows[0]))[0].tobytes()
        assert got.tobytes() == _unit_rows(rows, weights)[0].tobytes()


class TestToSchmidtForm:
    def test_phase_absorption(self):
        sa = [StateVector.basis(4, k) for k in range(4)]
        g = [1j / np.sqrt(2), 1 / np.sqrt(2), 0.0, 0.0]
        state = TrinaryState.from_branches(DIMS224, list(zip(g, sa)))
        before = state.dense.amplitudes.copy()
        sd = schmidt_form(state)
        assert np.allclose(sd.coefficients, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=1e-12)
        assert np.max(np.abs(state.dense.amplitudes - before)) == 0
        # the phase of g_0 went into the basis vectors
        assert np.max(np.abs(sd.reconstruct().amplitudes - before)) < 1e-12

    def test_idempotent_on_dense(self):
        state = TrinaryState.from_dense(DIMS224, seeded_random("state", 16, 9))
        once = schmidt_form(state)
        twice = schmidt_decompose(once.reconstruct(), (4, 4))
        assert np.max(np.abs(once.coefficients - twice.coefficients)) < 1e-12

    def test_seeded_reconstruction(self):
        state = TrinaryState.from_dense(DIMS224, seeded_random("state", 16, 11))
        sd = schmidt_form(state)
        rebuilt = np.zeros(16, dtype=complex)
        for c, pv, sa in zip(sd.coefficients, sd.u.T, sd.vh):
            rebuilt += c * np.kron(pv, sa)
        assert np.max(np.abs(rebuilt - state.dense.amplitudes)) <= 1e-10

    def test_branch_states_orthonormal(self):
        state = TrinaryState.from_dense(DIMS224, seeded_random("state", 16, 13))
        vs = schmidt_form(state).vh
        gram = vs.conj() @ vs.T
        assert np.max(np.abs(gram - np.eye(len(vs)))) < 1e-10

    def test_coefficients_descending(self):
        sd = schmidt_form(TrinaryState.from_dense(DIMS224, seeded_random("state", 16, 15)))
        assert np.all(np.diff(np.abs(sd.coefficients)) <= 1e-15)


class TestCompleteness:
    def test_zxyz_rank_four(self):
        report = validate_informational_completeness(zxyz_unitary())
        assert report.tomographic_rank == 4
        assert report.dims_ok and report.minimal_dims_ok and report.complete

    def test_zxyz_matches_pauli_projector_oracle(self):
        projectors = pauli_projectors()
        ops = projectors["Z"] + projectors["X"] + projectors["Y"] + projectors["Z"]
        assert operator_span_rank(ops) == 4

    def test_all_z_rank_two(self):
        pu = build_programmed_unitary(DIMS224, [standard_basis("Z", 2)] * 4)
        report = validate_informational_completeness(pu)
        assert report.tomographic_rank == 2
        assert not report.complete
        assert operator_span_rank(pauli_projectors()["Z"] * 4) == 2

    def test_bad_dims(self):
        dims = TrinaryDims(2, 2, 3)
        pu = build_programmed_unitary(dims, [standard_basis("Z", 2)] * 3)
        report = validate_informational_completeness(pu)
        assert not report.dims_ok
        assert not report.complete

    def test_invariant_under_branch_relabeling(self):
        bases = [standard_basis(b, 2) for b in ("Z", "X", "Y", "Z")]
        for perm in itertools.permutations(range(4)):
            pu = build_programmed_unitary(DIMS224, [bases[p] for p in perm])
            assert validate_informational_completeness(pu).tomographic_rank == 4

    def test_readout_operators_are_projectors(self):
        names = ("Z", "X", "Y", "Z")
        ops = pointer_readout_operators(zxyz_unitary(), StateVector.basis(2, 0))
        assert ops.shape == (4, 2, 2, 2)
        for r, name in enumerate(names):
            basis = standard_basis(name, 2)
            for j in range(2):
                want = np.outer(basis[:, j], basis[:, j].conj())
                assert np.max(np.abs(ops[r, j] - want)) < 1e-12

    @pytest.mark.parametrize("triple", [(2, 2, 4), (3, 3, 9), (2, 3, 6), (4, 4, 16)])
    @pytest.mark.parametrize("program", ["random", "z-pointers", "zx-pointers"])
    def test_frame_rank_equals_the_loop_span_rank(self, triple, program):
        # d_p > d_s random pointer bases reach the full rank d_s^2 under a generic
        # probe; Z pointers alone span d_s projectors, Z and X pointers 2 d_s - 1 (the
        # identity is shared)
        dims = TrinaryDims(*triple)
        if program == "random":
            bases = [seeded_random("unitary", dims.d_s, 300 + r).entries for r in range(dims.d_p)]
            pu = build_programmed_unitary(dims, bases)
        else:
            names = "ZX" if program == "zx-pointers" else "Z"
            bases = [standard_basis(names[r % len(names)], dims.d_s) for r in range(dims.d_p)]
            pu = build_programmed_unitary(dims, bases)
        probe = seeded_random("state", dims.d_a, 301)
        ops = [
            e
            for b in pu.bases
            for e in readout_operators_loop(
                pointer_unitary(b, dims.d_a), dims.d_s, dims.d_a, probe.amplitudes
            )
        ]
        rank = validate_informational_completeness(pu, probe).tomographic_rank
        assert rank == operator_span_rank(ops)
        want = {"random": dims.d_s**2, "z-pointers": dims.d_s, "zx-pointers": 2 * dims.d_s - 1}
        assert rank == want[program]


class TestStandardBasis:
    def test_fourier_matches_hadamard_at_two(self):
        assert np.max(np.abs(standard_basis("X", 2) - np.array([[1, 1], [1, -1]]) / np.sqrt(2))) < 1e-15

    def test_y_only_for_qubits(self):
        with pytest.raises(ValueError):
            standard_basis("Y", 3)

    @pytest.mark.parametrize(
        "name,dim", [("Z", 3), ("X", 2), ("X", 3), ("X", 4), ("X", 5), ("X", 8), ("Y", 2)]
    )
    def test_orthonormal(self, name, dim):
        b = standard_basis(name, dim)
        assert np.max(np.abs(b.conj().T @ b - np.eye(dim))) < 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_fourier_quarter_turns_exact(self, dim):
        # entry (j, k) is exp(2 pi i jk / dim) / sqrt(dim); at a whole number q of
        # quarter turns it is i^q / sqrt(dim), with no round-off in either part
        b = standard_basis("X", dim)
        for j, k in itertools.product(range(dim), repeat=2):
            quarters, rest = divmod(4 * (j * k % dim), dim)
            if rest == 0:
                assert b[j, k] == [1, 1j, -1, -1j][quarters] / np.sqrt(dim)

    def test_zx_pointers_keep_a_real_state_real(self, spectral_calls):
        # Z and X pointers on a real start: every amplitude stays real, and the complex
        # state's P|(SA) Gram eigvalsh and branch SVD keep its dtype, complex128
        bases = [standard_basis(b, 2) for b in ("Z", "X", "Z", "X")]
        psi = StateVector(np.array([0.6, 0.8], dtype=complex))
        start = TrinaryState.from_product(DIMS224, StateVector.uniform(4), psi, StateVector.basis(2, 0))
        state = apply_programmed(build_programmed_unitary(DIMS224, bases), start)
        assert not state.dense.amplitudes.imag.any()
        dual_entropies(state)
        assert sorted(spectral_calls) == [
            ("eigvalsh", (4, 4), "complex128"),
            ("svd", (4, 2, 2), "complex128", False),
        ]


@pytest.mark.parametrize(
    "build, error, shown",
    [
        (lambda: TrinaryState(HUGE_D_P, StateVector.uniform(2)), DimensionError,
         "dense dim 2 != d_p*d_s*d_a = <int of 16610 bits>"),
        (lambda: TrinaryState.from_branches(HUGE_D_P, [(1.0, StateVector.uniform(1))]),
         DimensionError, "branch pairs give shape (1, 1), expected (<int of 16610 bits>, 1)"),
        (lambda: ProgrammedUnitary(HUGE_D_P, ()), BranchCountError,
         "need <int of 16610 bits> branch bases, got 0"),
        (lambda: ProgrammedUnitary(TrinaryDims(10**5000, 10**5000, 1), (np.eye(1),)),
         DimensionError,
         "pointer basis must be a <int of 16610 bits>x<int of 16610 bits> matrix of basis columns"),
        (lambda: build_programmed_unitary(HUGE_D_P, []), BranchCountError,
         "need <int of 16610 bits> branch bases, got 0"),
        (lambda: build_programmed_unitary(TrinaryDims(10**5000, 1, 1), [np.eye(1)]),
         PointerCapacityError,
         "apparatus dim 1 < system dim <int of 16610 bits>: not enough pointer positions"),
    ],
    ids=["state", "from-branches", "branch-count", "branch-dim", "branch-bases",
         "pointer-capacity"],
)
def test_dims_past_the_digit_limit_are_echoed_by_their_size(build, error, shown):
    # each message once raised the generic ValueError of writing such an integer
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == shown
