import itertools

import numpy as np
import pytest

from icqt.born import (
    EmptyBranchError,
    _dual_born_report,
    conventional_oracle,
    decision_probabilities,
    dual_born_report,
    outcome_probabilities,
    textbook_comparison,
)
from icqt.linalg import (
    DimensionError,
    StateVector,
    _cut_entropy,
    entanglement_entropy,
    schmidt_decompose,
    seeded_random,
    shannon_entropy,
)
from icqt.suite import BORN_TOL
from icqt.trinary import (
    TrinaryDims,
    TrinaryState,
    _branch_spectra,
    _weights,
    apply_programmed,
    branch_entropies,
    branch_spectra,
    build_programmed_unitary,
    dual_entropies,
    standard_basis,
)
from oracles import (
    born_probabilities,
    entropy_bound,
    partial_trace,
    projector,
    singular_value_bound,
    squared_value_bound,
)

DIMS = TrinaryDims(2, 2, 4)
PLUS = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))


def zxyz_state(chi, psi):
    bases = [standard_basis(b, 2) for b in ("Z", "X", "Y", "Z")]
    pu = build_programmed_unitary(DIMS, bases)
    return apply_programmed(
        pu, TrinaryState.from_product(DIMS, chi, psi, StateVector.basis(2, 0))
    ), bases


class TestDecisionProbabilities:
    def test_deterministic_program(self):
        state, _ = zxyz_state(StateVector.basis(4, 0), PLUS)
        assert np.allclose(decision_probabilities(state), [1, 0, 0, 0], atol=1e-12)

    def test_uniform(self):
        state, _ = zxyz_state(StateVector.uniform(4), PLUS)
        assert np.allclose(decision_probabilities(state), [0.25] * 4, atol=1e-12)

    def test_matches_partial_trace_diagonal(self):
        state = TrinaryState.from_dense(DIMS, seeded_random("state", 16, 3))
        probs = decision_probabilities(state)
        rho_p = partial_trace(projector(state.dense), (4, 4), "left")
        assert np.max(np.abs(probs - rho_p.diagonal())) <= 1e-10

    def test_sums_to_one(self):
        state = TrinaryState.from_dense(DIMS, seeded_random("state", 16, 4))
        assert abs(decision_probabilities(state).sum() - 1) <= 1e-10

    def test_invariant_under_uniform_sa_unitary(self):
        state = TrinaryState.from_dense(DIMS, seeded_random("state", 16, 5))
        u_sa = seeded_random("unitary", 4, 6)
        rotated = TrinaryState.from_dense(
            DIMS, StateVector(np.kron(np.eye(4), u_sa.entries) @ state.dense.amplitudes)
        )
        assert np.max(
            np.abs(decision_probabilities(rotated) - decision_probabilities(state))
        ) <= 1e-12


class TestOutcomeProbabilities:
    def test_z_branch_on_plus(self):
        state, _ = zxyz_state(StateVector.uniform(4), PLUS)
        table = outcome_probabilities(state, 0)
        assert np.allclose(table.probabilities, [0.5, 0.5], atol=1e-12)

    def test_z_branch_on_eigenstate(self):
        state, _ = zxyz_state(StateVector.uniform(4), StateVector.basis(2, 0))
        table = outcome_probabilities(state, 0)
        assert np.allclose(table.probabilities, [1, 0], atol=1e-12)

    def test_x_branch_matches_conventional(self):
        psi = seeded_random("state", 2, 7)
        state, bases = zxyz_state(StateVector.uniform(4), psi)
        table = outcome_probabilities(state, 1)
        conv = np.sort(conventional_oracle(psi, bases[1]))[::-1]
        assert np.max(np.abs(table.probabilities - conv)) <= 1e-10

    def test_measured_basis_pairing(self):
        # with distinct probabilities, each Schmidt vector matches a basis vector
        psi = StateVector(np.array([0.8, 0.6], dtype=complex))
        state, bases = zxyz_state(StateVector.uniform(4), psi)
        table = outcome_probabilities(state, 0)
        assert not table.degenerate
        conv = conventional_oracle(psi, bases[0])
        for prob, vec in zip(table.probabilities, table.measured_basis.T):
            overlaps = np.abs(bases[0].conj().T @ vec)
            j = int(np.argmax(overlaps))
            assert overlaps[j] > 1 - 1e-10
            assert abs(prob - conv[j]) <= 1e-10

    def test_empty_branch_raises(self):
        state, _ = zxyz_state(StateVector.basis(4, 0), PLUS)
        with pytest.raises(EmptyBranchError):
            outcome_probabilities(state, 2)

    def test_degenerate_flagged(self):
        state, _ = zxyz_state(StateVector.uniform(4), PLUS)
        assert outcome_probabilities(state, 0).degenerate


class TestConventionalOracle:
    def test_zero_in_z(self):
        assert np.allclose(
            conventional_oracle(StateVector.basis(2, 0), standard_basis("Z", 2)), [1, 0]
        )

    def test_plus_in_z(self):
        assert np.allclose(
            conventional_oracle(PLUS, standard_basis("Z", 2)), [0.5, 0.5]
        )

    def test_normalized(self):
        psi = seeded_random("state", 5, 8)
        basis = seeded_random("unitary", 5, 9).entries
        probs = conventional_oracle(psi, basis)
        assert abs(probs.sum() - 1) <= 1e-12

    def test_matches_inner_product_oracle(self):
        psi = seeded_random("state", 3, 10)
        basis = seeded_random("unitary", 3, 11).entries
        assert np.max(
            np.abs(conventional_oracle(psi, basis) - born_probabilities(psi.amplitudes, basis))
        ) < 1e-14

    def test_non_orthonormal_basis_refused(self):
        # 2 I once gave the "probabilities" [2, 2]
        with pytest.raises(ValueError, match="^basis columns are not orthonormal$"):
            conventional_oracle(StateVector.uniform(2), 2 * np.eye(2))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (4,)])
    def test_basis_of_another_shape_refused(self, shape):
        with pytest.raises(DimensionError, match="^basis must be a 2x2 matrix of basis columns$"):
            conventional_oracle(StateVector.uniform(2), np.ones(shape))


class TestTextbookComparison:
    PSI = seeded_random("state", 2, 3)

    def test_no_empty_branch_gives_the_plain_max(self):
        state, bases = zxyz_state(seeded_random("state", 4, 4), self.PSI)
        report = dual_born_report(state)
        assert not any(report.empty)
        rows, gap = textbook_comparison(report, self.PSI, build_programmed_unitary(DIMS, bases))
        assert np.array_equal(rows, [np.sort(conventional_oracle(self.PSI, b))[::-1] for b in bases])
        assert gap == np.max(np.abs(report.outcome_probs - rows))
        assert gap <= BORN_TOL

    def test_an_empty_branch_is_skipped(self):
        g = StateVector(np.array([0.6, 0.0, 0.8, 0.0], dtype=complex))
        state, bases = zxyz_state(g, self.PSI)
        report = dual_born_report(state)
        assert report.empty == (False, True, False, True)
        rows, gap = textbook_comparison(report, self.PSI, build_programmed_unitary(DIMS, bases))
        assert gap == np.max(np.abs(report.outcome_probs[[0, 2]] - rows[[0, 2]]))
        # an empty branch's zero row is at least 1/d_s from its textbook row
        assert np.max(np.abs(report.outcome_probs - rows)) >= 0.5 > gap


class TestDualBornReport:
    def test_zxyz_on_plus(self):
        state, bases = zxyz_state(StateVector.uniform(4), PLUS)
        report = dual_born_report(state)
        assert np.allclose(report.decision_probs, [0.25] * 4, atol=1e-12)
        assert np.allclose(report.outcome_probs[0], [0.5, 0.5], atol=1e-10)
        assert np.allclose(report.outcome_probs[1], [1.0, 0.0], atol=1e-10)
        for r in range(4):
            conv = np.sort(conventional_oracle(PLUS, bases[r]))[::-1]
            assert np.max(np.abs(report.outcome_probs[r] - conv)) <= 1e-10

    def test_rows_equal_outcome_tables(self):
        """Each row is within ``squared_value_bound`` of ``outcome_probabilities``.

        The report takes a values-only SVD and the table the full SVD of the
        same unit branch state, so their squared Schmidt coefficients agree
        within the derived bound, not bit for bit.  Flags compare exactly.
        """
        states = [TrinaryState.from_dense(DIMS, seeded_random("state", 16, k)) for k in range(5)]
        states.append(zxyz_state(StateVector.uniform(4), PLUS)[0])  # degenerate rows
        states.append(zxyz_state(StateVector.basis(4, 1), PLUS)[0])  # empty branches
        reports = [dual_born_report(state) for state in states]
        assert any(reports[-2].degenerate) and any(reports[-1].empty)
        bound = squared_value_bound((DIMS.d_s, DIMS.d_a))
        for state, report in zip(states, reports):
            for r in range(4):
                if report.empty[r]:
                    with pytest.raises(EmptyBranchError):
                        outcome_probabilities(state, r)
                    continue
                table = outcome_probabilities(state, r)
                assert np.max(np.abs(report.outcome_probs[r] - table.probabilities)) <= bound
                assert report.degenerate[r] == table.degenerate

    def test_single_branch_deterministic(self):
        dims = TrinaryDims(2, 2, 1)
        pu = build_programmed_unitary(dims, [standard_basis("Z", 2)])
        state = apply_programmed(
            pu,
            TrinaryState.from_product(
                dims, StateVector.basis(1, 0), StateVector.basis(2, 0), StateVector.basis(2, 0)
            ),
        )
        report = dual_born_report(state)
        assert np.allclose(report.decision_probs, [1.0])
        assert np.allclose(report.outcome_probs[0], [1.0, 0.0], atol=1e-12)

    def test_rows_normalized_on_seeded_states(self):
        for seed in range(10):
            state = TrinaryState.from_dense(DIMS, seeded_random("state", 16, seed))
            report = dual_born_report(state)
            assert abs(report.decision_probs.sum() - 1) <= 1e-10
            for r in range(4):
                if not report.empty[r]:
                    assert abs(report.outcome_probs[r].sum() - 1) <= 1e-10

    def test_empty_branches_flagged_not_fatal(self):
        state, _ = zxyz_state(StateVector.basis(4, 1), PLUS)
        report = dual_born_report(state)
        assert report.empty == (True, False, True, True)
        assert np.all(report.outcome_probs[2] == 0)


def designed_real_state(dims: TrinaryDims, seed: int) -> TrinaryState:
    """A real state whose branches 0 to 3 are full rank, rank one, degenerate and empty."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(dims.d_p, dims.d_sa))
    rows[1] = np.outer(rng.normal(size=dims.d_s), rng.normal(size=dims.d_a)).ravel()
    rows[2] = np.eye(dims.d_s, dims.d_a).ravel()  # min(d_s, d_a) equal coefficients
    rows[3] = 0.0
    return TrinaryState.from_dense(dims, StateVector(rows.ravel() / np.linalg.norm(rows)))


class TestRealAmplitudes:
    """The entropies and Born report of a real state's float64 rows, as a real ICQC run
    reads them, against its complex-typed state's.

    The float64 rows take the float64 kernels, so the spectra agree within the
    derived bounds, not bit for bit; the flags agree exactly.
    """

    @pytest.mark.parametrize(
        "dims", [TrinaryDims(2, 2, 4), TrinaryDims(3, 4, 5), TrinaryDims(4, 3, 6), TrinaryDims(4, 4, 16)]
    )
    def test_within_bounds_of_the_complex_typed_copy(self, dims):
        state = designed_real_state(dims, 7)
        rows = np.ascontiguousarray(state.as_matrix().real)
        weights = _weights(rows)
        spectra = _branch_spectra(dims, rows, weights)
        want_psa, want_branches = dual_entropies(state)
        assert abs(_cut_entropy(rows) - want_psa) <= entropy_bound((dims.d_p, dims.d_sa))
        gap = branch_entropies(spectra) - want_branches
        assert np.max(np.abs(gap)) <= entropy_bound((dims.d_s, dims.d_a))
        gap = spectra - branch_spectra(state)
        assert np.max(np.abs(gap)) <= singular_value_bound((dims.d_s, dims.d_a))
        got, want = _dual_born_report(dims, spectra, weights), dual_born_report(state)
        assert got.degenerate == want.degenerate
        assert got.empty == want.empty
        assert np.array_equal(got.decision_probs, want.decision_probs)
        gap = got.outcome_probs - want.outcome_probs
        assert np.max(np.abs(gap)) <= squared_value_bound((dims.d_s, dims.d_a))
        # branch 1 is rank one, branch 2 degenerate and branch 3 empty
        assert np.max(spectra[1, 1:]) <= singular_value_bound((dims.d_s, dims.d_a))
        assert not got.degenerate[1] and got.degenerate[2] and got.empty[3]
        # the measured basis comes from the full SVD and stays complex
        assert outcome_probabilities(state, 0).measured_basis.dtype == np.complex128


class TestOneEmptinessRule:
    def test_flags_agree_around_the_tolerance(self):
        """The report's ``empty`` flag, a zero ``branch_spectra`` row, a zero
        branch entropy and EmptyBranchError mark the same branches.

        |g_1| = sqrt(1e-14) (1 + k 2^-52) for |k| <= 8 puts |g_1|^2 on both
        sides of EMPTY_BRANCH_TOL.
        """
        dims = TrinaryDims(2, 2, 2)
        flags = []
        for seed, k in itertools.product(range(6), range(-8, 9)):
            g1 = np.sqrt(1e-14) * (1 + k * 2.0**-52)
            sa = seeded_random("state", 4, seed)
            state = TrinaryState.from_branches(dims, [(np.sqrt(1 - g1 * g1), sa), (g1, sa)])
            empty = dual_born_report(state).empty[1]
            assert empty == (not branch_spectra(state)[1].any())
            assert empty == (dual_entropies(state)[1][1] == 0)
            try:
                outcome_probabilities(state, 1)
                raised = False
            except EmptyBranchError:
                raised = True
            assert empty == raised
            flags.append(empty)
        assert set(flags) == {False, True}


class TestShannonIdentity:
    def test_schmidt_form_states(self):
        for seed in range(10):
            basis = seeded_random("unitary", 4, seed).entries
            rng = np.random.default_rng(seed)
            g = np.sort(np.abs(rng.normal(size=4)))[::-1]
            g = g / np.linalg.norm(g)
            pairs = [(complex(g[r]), StateVector(basis[:, r])) for r in range(4)]
            state = TrinaryState.from_branches(DIMS, pairs)
            lhs = shannon_entropy(decision_probabilities(state))
            rhs = entanglement_entropy(state.dense, (4, 4))
            assert abs(lhs - rhs) <= 1e-9

    def test_after_to_schmidt_form(self):
        # a generic state brought to Schmidt form satisfies the identity too
        state = TrinaryState.from_dense(DIMS, seeded_random("state", 16, 42))
        g2 = schmidt_decompose(state.dense, (4, 4)).coefficients ** 2
        assert abs(
            shannon_entropy(g2) - entanglement_entropy(state.dense, (4, 4))
        ) <= 1e-9
