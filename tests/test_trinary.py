import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from icqt.born import DEGENERACY_TOL, EmptyBranchError, _dual_born_report, dual_born_report
from icqt.linalg import (
    DimensionError,
    Operator,
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
    build_pointer_measurement,
    _branch_spectra,
    _check_orthonormal,
    _real_unit_rows,
    _unit_rows,
    build_programmed_unitary,
    branch_spectra,
    dual_entropies,
    pointer_readout_operators,
    standard_basis,
    validate_informational_completeness,
)
from oracles import (
    apply_programmed_loop,
    branch_entropies_loop,
    branch_spectra_loop,
    dense_programmed_matrix,
    dual_born_loop,
    entropy_bound,
    full_svd_entropy,
    operator_span_rank,
    pauli_projectors,
    readout_operators_loop,
    unit_rows_loop,
)

DIMS224 = TrinaryDims(2, 2, 4)
PLUS = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))


def zxyz_unitary(dims=DIMS224):
    bases = [standard_basis(b, dims.d_s) for b in ("Z", "X", "Y", "Z")]
    return build_programmed_unitary(dims, bases)


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


def test_checked_basis_is_an_owned_read_only_copy():
    w = standard_basis("X", 2)
    b = _check_orthonormal(w, 2, "basis")
    w[:] = np.eye(2)
    assert np.array_equal(b, standard_basis("X", 2))
    assert not b.flags.writeable


class TestPointerMeasurement:
    def test_z_basis_is_cnot(self):
        u = build_pointer_measurement(standard_basis("Z", 2), 2)
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.array_equal(u.entries, cnot)

    def test_z_on_plus_makes_bell(self):
        u = build_pointer_measurement(standard_basis("Z", 2), 2)
        out = u.apply(StateVector(np.kron(PLUS.amplitudes, [1, 0])))
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert np.max(np.abs(out.amplitudes - bell)) < 1e-15

    def test_x_basis_on_zero(self):
        # expected output computed by the explicit matrix oracle
        basis = standard_basis("X", 2)
        u = build_pointer_measurement(basis, 2)
        matrix = np.zeros((4, 4), dtype=complex)
        shift = np.array([[0, 1], [1, 0]], dtype=complex)
        for j, power in enumerate((np.eye(2), shift)):
            proj = np.outer(basis[:, j], basis[:, j].conj())
            matrix += np.kron(proj, power)
        state_in = np.kron([1, 0], [1, 0]).astype(complex)
        want = matrix @ state_in
        out = u.apply(StateVector(state_in))
        assert np.max(np.abs(out.amplitudes - want)) < 1e-14
        coeffs = schmidt_decompose(out, (2, 2)).coefficients
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_qutrit_shift(self):
        u = build_pointer_measurement(standard_basis("Z", 3), 3)
        state_in = np.zeros(9, dtype=complex)
        state_in[2 * 3 + 0] = 1.0  # |2>|0>
        out = u.apply(StateVector(state_in))
        want = np.zeros(9, dtype=complex)
        want[2 * 3 + 2] = 1.0  # |2>|2>
        assert np.array_equal(out.amplitudes, want)

    def test_pointer_capacity(self):
        with pytest.raises(PointerCapacityError):
            build_pointer_measurement(standard_basis("Z", 3), 2)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 2.0])
    def test_rejects_a_basis_that_is_not_orthonormal(self, entry):
        basis = np.eye(2, dtype=complex)
        basis[1, 1] = entry
        with warnings.catch_warnings():  # refused without a warning
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^pointer basis columns are not orthonormal$"):
                build_pointer_measurement(basis, 2)

    def test_branch_schmidt_equals_input_amplitudes(self):
        # pointer branch on |psi>|0>: Schmidt coefficients are sorted |<j|psi>|
        basis = seeded_random("unitary", 3, 5).entries
        u = build_pointer_measurement(basis, 3)
        psi = seeded_random("state", 3, 6)
        out = u.apply(StateVector(np.kron(psi.amplitudes, [1, 0, 0])))
        coeffs = schmidt_decompose(out, (3, 3)).coefficients
        want = np.sort(np.abs(basis.conj().T @ psi.amplitudes))[::-1]
        assert np.max(np.abs(coeffs - want)) < 1e-10


class TestProgrammedUnitary:
    def test_zxyz_densify_unitary(self):
        assert zxyz_unitary().densify().is_unitary()

    def test_all_z_constructs(self):
        pu = build_programmed_unitary(DIMS224, [standard_basis("Z", 2)] * 4)
        assert len(pu.branches) == 4

    def test_wrong_branch_count(self):
        with pytest.raises(BranchCountError):
            build_programmed_unitary(DIMS224, [standard_basis("Z", 2)] * 3)

    def test_densify_block_diagonal_exact(self):
        full = zxyz_unitary().densify().entries
        for r, rp in itertools.product(range(4), repeat=2):
            block = full[r * 4 : (r + 1) * 4, rp * 4 : (rp + 1) * 4]
            if r != rp:
                assert np.all(block == 0)

    def test_non_unitary_branch_rejected(self):
        branches = (Operator(np.ones((4, 4))),) + (Operator.identity(4),) * 3
        with pytest.raises(ValueError, match="branch 0 is not unitary"):
            ProgrammedUnitary(dims=DIMS224, branches=branches)


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
        pu = ProgrammedUnitary(dims=DIMS224, branches=(Operator.identity(4),) * 4)
        state = TrinaryState.from_product(
            DIMS224, StateVector.basis(4, 0), PLUS, StateVector.basis(2, 0)
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
        dense = dense_programmed_matrix([pu.branches[r].entries for r in range(4)])
        want = dense @ state.dense.amplitudes
        assert np.max(np.abs(out.dense.amplitudes - want)) <= 1e-10
        # P|(SA) entropy agrees with the Schmidt spectrum of the dense result
        coeffs = schmidt_decompose(out.dense, (4, 4)).coefficients
        p = coeffs[coeffs > 1e-15] ** 2
        assert abs(entanglement_entropy(out.dense, (4, 4)) + np.sum(p * np.log(p))) < 1e-12

    def test_matches_dense_oracle_without_branch_view(self):
        pu = zxyz_unitary()
        state = TrinaryState.from_dense(DIMS224, seeded_random("state", 16, 3))
        out = apply_programmed(pu, state)
        dense = dense_programmed_matrix([pu.branches[r].entries for r in range(4)])
        want = dense @ state.dense.amplitudes
        assert np.max(np.abs(out.dense.amplitudes - want)) <= 1e-10

    def test_dual_entropy_bounds(self):
        pu = zxyz_unitary()
        for seed in range(5):
            state = TrinaryState.from_dense(DIMS224, seeded_random("state", 16, seed))
            s_psa, s_branches = dual_entropies(apply_programmed(pu, state))
            assert 0 <= s_psa <= np.log(4) + 1e-9
            assert np.all(s_branches <= np.log(2) + 1e-9)


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
    """The one-pass branch kernels equal their per-branch loops (tests/oracles.py) with ==."""

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
        seeded = [seeded_random("unitary", dims.d_s, 40 + r).entries for r in range(dims.d_p)]
        pu = build_programmed_unitary(dims, seeded)
        matrices = [u.entries for u in pu.branches]
        for state in self.states(dims):
            want = apply_programmed_loop(matrices, state.as_matrix())
            assert np.array_equal(apply_programmed(pu, state).as_matrix(), want)

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
    """Real unit rows go to the branch SVD as float64 and give, with ==, the spectra and
    Born report of the complex formula ``branch_schmidt_coefficients(_unit_rows(...))``."""

    DIMS = [TrinaryDims(2, 3, 6), TrinaryDims(4, 4, 16)]

    @staticmethod
    def states(dims):
        """Real (with -0.0 real parts), -0.0 imaginary parts, a nonzero imaginary part in
        an empty row only, and complex; row 1 is empty in the first three."""
        rows = np.random.default_rng(dims.total).normal(size=(dims.d_p, dims.d_sa))
        rows[0, ::3] = -0.0  # (re + im * 0.0) / c is +0.0 here, re / c would be -0.0
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
            got = _branch_spectra(state, weights)
            dtype = "complex128" if name == "complex" else "float64"
            assert [call[2] for call in spectral_calls] == [dtype], name
            assert got.shape == want.shape and np.all(got == want), name
            report = dual_born_report(state)
            parent = _dual_born_report(state, want, weights)
            for field in dataclasses.fields(report):
                assert np.array_equal(getattr(report, field.name), getattr(parent, field.name))
            unit = _real_unit_rows(rows, weights)
            if name == "complex":
                assert unit is None
            else:  # the real parts of the complex quotients, bit for bit
                want_rows = np.ascontiguousarray(_unit_rows(rows, weights).real)
                assert unit.tobytes() == want_rows.tobytes()

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

    @staticmethod
    def random_unitaries(dims, seed):
        return ProgrammedUnitary(
            dims,
            tuple(seeded_random("unitary", dims.d_sa, seed + r) for r in range(dims.d_p)),
        )

    @pytest.mark.parametrize("triple", [(2, 2, 4), (3, 3, 9), (2, 3, 6), (4, 4, 16)])
    @pytest.mark.parametrize("program", ["random", "z-pointers", "zx-pointers"])
    def test_frame_rank_equals_the_loop_span_rank(self, triple, program):
        # random branch unitaries reach the full rank d_s^2; Z pointers alone span
        # d_s projectors, Z and X pointers 2 d_s - 1 (the identity is shared)
        dims = TrinaryDims(*triple)
        if program == "random":
            pu = self.random_unitaries(dims, 300)
        else:
            names = "ZX" if program == "zx-pointers" else "Z"
            bases = [standard_basis(names[r % len(names)], dims.d_s) for r in range(dims.d_p)]
            pu = build_programmed_unitary(dims, bases)
        probe = seeded_random("state", dims.d_a, 301)
        ops = [
            e
            for u in pu.branches
            for e in readout_operators_loop(u.entries, dims.d_s, dims.d_a, probe.amplitudes)
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
        # Z and X pointers on a real start: every amplitude stays real, so the
        # P|(SA) Gram eigvalsh and the branch SVD take float64
        bases = [standard_basis(b, 2) for b in ("Z", "X", "Z", "X")]
        psi = StateVector(np.array([0.6, 0.8], dtype=complex))
        start = TrinaryState.from_product(DIMS224, StateVector.uniform(4), psi, StateVector.basis(2, 0))
        state = apply_programmed(build_programmed_unitary(DIMS224, bases), start)
        assert not state.dense.amplitudes.imag.any()
        dual_entropies(state)
        assert sorted(spectral_calls) == [
            ("eigvalsh", (4, 4), "float64"),
            ("svd", (4, 2, 2), "float64", False),
        ]
