import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icqt.linalg import (
    DimensionError,
    HermiticityError,
    KindMismatchError,
    NormalizationError,
    Operator,
    StateVector,
    branch_schmidt_coefficients,
    commutator_norm,
    entanglement_entropy,
    HermitianSpectrum,
    hermitian_propagator,
    random_hermitian,
    schmidt_decompose,
    seeded_random,
    shannon_entropy,
    tensor_product,
)
from icqt.dynamics import DensePropagator, TrinaryHamiltonian
from icqt.trinary import TrinaryDims, TrinaryState
from oracles import (
    eigenvalue_entropy,
    entropy_bound,
    expm_hermitian,
    full_svd_entropy,
    partial_trace,
    projector,
    reduced_density,
    rk4_propagator,
    singular_value_bound,
    spectral_step_bound,
)

BELL = StateVector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def one_row_coefficients(psi, dims):
    """Descending Schmidt coefficients of one state, from the one-row ``branch_schmidt_coefficients``."""
    return branch_schmidt_coefficients(psi.amplitudes[None], dims)[0]


def real_state(dim, seed) -> StateVector:
    """A unit state whose amplitudes are real: every imaginary part is exactly 0."""
    x = np.random.default_rng(seed).normal(size=dim)
    return StateVector(x / np.linalg.norm(x))


def with_imaginary_parts(psi, imag) -> StateVector:
    amps = psi.amplitudes.copy()
    amps.imag = imag
    return StateVector(amps)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            StateVector(np.array([1.0, 1.0], dtype=complex))

    def test_accepts_a_large_unit_vector(self):
        """4 entries of sqrt((1 - 2^19 2^-56) / 4), then 2^19 of sqrt(2^-56): 8 MB.

        The squared norm is 1 exactly.  The check sums pairwise, within about
        1e-15 here; a sequential sum (``np.linalg.norm``) is off by 3.6e-12,
        beyond NORM_TOL.
        """
        n = 2**19
        amps = np.full(4 + n, np.sqrt(2.0**-56), dtype=complex)
        amps[:4] = np.sqrt((1 - n * 2.0**-56) / 4)
        assert np.array_equal(StateVector(amps).amplitudes, amps)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.nan, 0.0], dtype=complex))

    def test_basis_and_uniform(self):
        assert StateVector.basis(4, 2).amplitudes[2] == 1.0
        assert np.allclose(StateVector.uniform(4).amplitudes, 0.5)

    def test_immutable(self):
        psi = StateVector.basis(2, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestOwnedStateVector:
    """``StateVector._owning`` wraps a fresh array without a copy, by StateVector's rule."""

    def test_wraps_and_freezes_without_a_copy(self):
        amps = np.full(4, 0.5, dtype=complex)
        psi = StateVector._owning(amps)
        assert psi.amplitudes is amps
        assert not amps.flags.writeable
        assert np.array_equal(psi.amplitudes, StateVector(amps).amplitudes)

    @pytest.mark.parametrize(
        "amps",
        [
            np.full(8, 0.5, dtype=complex)[:4],  # a view, contiguous
            np.full(8, 0.5, dtype=complex)[::2],  # a view, not contiguous
            np.full(4, 0.5, dtype=np.complex64),
            np.full(4, 0.5),
            np.full((2, 2), 0.5, dtype=complex),
            [0.5, 0.5, 0.5, 0.5],
        ],
        ids=["view", "strided", "complex64", "float64", "2-d", "list"],
    )
    def test_refuses_anything_but_an_owned_1d_complex128_array(self, amps):
        with pytest.raises(ValueError, match="owns its C-contiguous data"):
            StateVector._owning(amps)

    @pytest.mark.parametrize(
        "values", [[np.nan, 0.0], [np.inf, 0.0], [1.0, 1.0], [0.5, 0.5], []],
        ids=["nan", "inf", "norm-2", "norm-half", "empty"],
    )
    def test_errors_match_the_copying_constructor(self, values):
        with pytest.raises(ValueError) as copied:
            StateVector(np.array(values, dtype=complex))
        with pytest.raises(ValueError) as owned:
            StateVector._owning(np.array(values, dtype=complex))
        assert type(owned.value) is type(copied.value)
        assert str(owned.value) == str(copied.value)


class TestTensorProduct:
    def test_basis_states(self):
        out = tensor_product(StateVector.basis(2, 0), StateVector.basis(2, 0))
        assert out.amplitudes[0] == 1.0 and np.all(out.amplitudes[1:] == 0)

    def test_identities(self):
        out = tensor_product(Operator.identity(2), Operator.identity(3))
        assert np.array_equal(out.entries, np.eye(6))

    def test_matches_index_formula(self):
        a = seeded_random("unitary", 2, 10).entries
        b = seeded_random("unitary", 3, 11).entries
        out = tensor_product(Operator(a), Operator(b)).entries
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    for l in range(3):
                        assert abs(out[i * 3 + j, k * 3 + l] - a[i, k] * b[j, l]) < 1e-14

    def test_mixed_kinds_rejected(self):
        with pytest.raises(KindMismatchError):
            tensor_product(StateVector.basis(2, 0), Operator.identity(2))

    @given(st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_associative(self, seed):
        a = seeded_random("state", 2, seed)
        b = seeded_random("state", 3, seed + 1)
        c = seeded_random("state", 2, seed + 2)
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.max(np.abs(left.amplitudes - right.amplitudes)) < 1e-14


class TestPartialTrace:
    def test_product_state(self):
        psi = seeded_random("state", 3, 1)
        phi = seeded_random("state", 2, 2)
        rho = projector(tensor_product(psi, phi))
        left = partial_trace(rho, (3, 2), "left")
        assert np.max(np.abs(left.entries - projector(psi).entries)) < 1e-12

    def test_bell_state(self):
        rho = partial_trace(projector(BELL), (2, 2), "left")
        assert np.max(np.abs(rho.entries - np.eye(2) / 2)) < 1e-12

    def test_trace_order_independence(self):
        # reduce a 3-party state to party 0: in one shot, or two parties one at a time
        psi = seeded_random("state", 2 * 3 * 4, 7)
        rho = projector(psi)
        a = partial_trace(rho, (2, 12), "left")
        b = partial_trace(partial_trace(rho, (6, 4), "left"), (2, 3), "left")
        assert np.max(np.abs(a.entries - b.entries)) < 1e-12

    def test_trace_preserved(self):
        rho = projector(seeded_random("state", 12, 3))
        out = partial_trace(rho, (3, 4), "right")
        assert abs(np.trace(out.entries) - 1) < 1e-12

    def test_non_factorizable(self):
        with pytest.raises(DimensionError):
            partial_trace(projector(seeded_random("state", 6, 1)), (4, 2), "left")

    def test_spectra_match_schmidt(self):
        psi = seeded_random("state", 12, 9)
        coeffs = schmidt_decompose(psi, (3, 4)).coefficients
        for keep in ("left", "right"):
            w = np.sort(partial_trace(projector(psi), (3, 4), keep).eigenvalues())[::-1]
            assert np.max(np.abs(w[: len(coeffs)] - coeffs**2)) < 1e-10


class TestSchmidt:
    def test_bell(self):
        sd = schmidt_decompose(BELL, (2, 2))
        assert np.allclose(sd.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert sd.rank == 2

    def test_product(self):
        psi = tensor_product(seeded_random("state", 2, 1), seeded_random("state", 2, 2))
        sd = schmidt_decompose(psi, (2, 2))
        assert abs(sd.coefficients[0] - 1) < 1e-12
        assert sd.rank == 1

    def test_reconstruction(self):
        psi = seeded_random("state", 16, 5)
        sd = schmidt_decompose(psi, (4, 4))
        assert np.max(np.abs(sd.reconstruct().amplitudes - psi.amplitudes)) <= 1e-10

    def test_bases_orthonormal(self):
        sd = schmidt_decompose(seeded_random("state", 12, 6), (3, 4))
        for basis in (sd.u, sd.vh.T):
            g = basis.conj().T @ basis
            assert np.max(np.abs(g - np.eye(basis.shape[1]))) < 1e-10

    def test_coefficients_descending_nonnegative(self):
        sd = schmidt_decompose(seeded_random("state", 16, 8), (4, 4))
        assert np.all(sd.coefficients >= 0)
        assert np.all(np.diff(sd.coefficients) <= 0)

    def test_builds_no_state_vector(self, monkeypatch):
        psi = seeded_random("state", 12, 6)
        built = []
        post_init = StateVector.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(StateVector, "__post_init__", counting)
        sd = schmidt_decompose(psi, (3, 4))
        assert built == []
        assert sd.u.shape == (3, 3) and sd.vh.shape == (3, 4)


class TestBranchSchmidtCoefficients:
    @staticmethod
    def rows(k, d_l, d_r):
        return np.array(
            [seeded_random("state", d_l * d_r, 1000 * k + i).amplitudes for i in range(k)]
        )

    @staticmethod
    def per_row(rows, dims):
        return np.array([one_row_coefficients(StateVector(row), dims) for row in rows])

    @pytest.mark.parametrize("k, d_l, d_r", [(81, 9, 9), (16, 4, 4), (7, 3, 4), (1, 2, 2)])
    def test_equals_per_row_coefficients(self, k, d_l, d_r):
        rows = self.rows(k, d_l, d_r)
        got = branch_schmidt_coefficients(rows, (d_l, d_r))
        assert got.shape == (k, min(d_l, d_r))
        assert np.array_equal(got, self.per_row(rows, (d_l, d_r)))

    def test_rows_one_at_a_time_when_the_stack_does_not_converge(self, monkeypatch):
        # complex rows, then real ones, which take float64 row by row
        stacks = [self.rows(7, 3, 4), np.array([real_state(12, i).amplitudes for i in range(7)])]
        wants = [self.per_row(rows, (3, 4)) for rows in stacks]
        svd = np.linalg.svd

        def unconverged_stack(a, *args, **kwargs):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", unconverged_stack)
        for rows, want in zip(stacks, wants):
            assert np.array_equal(branch_schmidt_coefficients(rows, (3, 4)), want)

    @staticmethod
    def decomposed(rows, dims):
        return np.array([schmidt_decompose(StateVector(row), dims).coefficients for row in rows])

    @pytest.mark.parametrize("k, d_l, d_r", [(81, 9, 9), (16, 4, 4), (7, 3, 4)])
    def test_within_bound_of_schmidt_decompose(self, k, d_l, d_r):
        rows = self.rows(k, d_l, d_r)
        gap = branch_schmidt_coefficients(rows, (d_l, d_r)) - self.decomposed(rows, (d_l, d_r))
        assert np.max(np.abs(gap)) <= singular_value_bound((d_l, d_r))

    def test_full_svd_per_row_when_no_values_only_svd_converges(self, monkeypatch):
        rows = self.rows(7, 3, 4)
        want = self.decomposed(rows, (3, 4))
        svd = np.linalg.svd

        def unconverged(a, *args, compute_uv=True, **kwargs):
            if not compute_uv:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", unconverged)
        assert np.array_equal(branch_schmidt_coefficients(rows, (3, 4)), want)


class TestEntropy:
    def test_product_zero(self):
        psi = tensor_product(seeded_random("state", 3, 1), seeded_random("state", 3, 2))
        assert entanglement_entropy(psi, (3, 3)) < 1e-12

    def test_bell_ln2(self):
        assert abs(entanglement_entropy(BELL, (2, 2)) - np.log(2)) < 1e-12

    def test_matches_eigenvalue_oracle(self):
        psi = seeded_random("state", 12, 4)
        rho = reduced_density(psi.amplitudes, (3, 4), "left")
        assert abs(entanglement_entropy(psi, (3, 4)) - eigenvalue_entropy(rho)) <= 1e-9

    def test_shannon_rows_equal_one_row_at_a_time(self):
        # one call on a (..., k) stack repeats each row's own bits
        rng = np.random.default_rng(5)
        rows = rng.dirichlet(np.ones(32), size=(3, 7))
        rows[0, :, :2] = 0.0
        rows[1, :, 5] = -4e-17  # a round-off negative eigenvalue
        rows[2, 3] = 0.0  # an empty branch
        got = shannon_entropy(rows)
        assert got.shape == (3, 7)
        assert np.array_equal(got, [[shannon_entropy(r) for r in block] for block in rows])
        assert got[2, 3] == 0.0

    def test_shannon_masks_nonpositive_entries(self):
        # a short row sums in order, so trailing masked terms add exact zeros
        got = shannon_entropy([0.5, 0.25, 0.25, 0.0, -1e-17])
        assert isinstance(got, float)
        assert got == shannon_entropy([0.5, 0.25, 0.25])
        assert abs(got - 1.5 * np.log(2)) <= 4 * np.finfo(float).eps
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_bounded_by_log_min_dim(self):
        for seed in range(5):
            psi = seeded_random("state", 8, seed)
            assert 0 <= entanglement_entropy(psi, (2, 4)) <= np.log(2) + 1e-9

    @staticmethod
    def coefficient_entropy(psi, dims):
        s = schmidt_decompose(psi, dims).coefficients
        p = s * s
        p = p[p > 0]
        return float(max(0.0, -np.sum(p * np.log(p))))

    CUTS = [(3, 4), (4, 3), (2, 8), (5, 5), (1, 6)]

    def test_equals_entropy_of_schmidt_coefficients(self):
        """Within ``entropy_bound`` of the full SVD that ``schmidt_decompose`` takes.

        The values-only SVD takes another LAPACK path, so the bits may differ;
        the coefficients of a unit state differ by at most
        ``singular_value_bound`` (Weyl), and the entropies by the bound
        propagated through -p ln p (see ``oracles.entropy_bound``).
        """
        cases = [
            (seeded_random("state", m * n, seed), (m, n)) for seed, (m, n) in enumerate(self.CUTS)
        ]
        cases.append((BELL, (2, 2)))
        for psi, dims in cases:
            gap = one_row_coefficients(psi, dims) - schmidt_decompose(psi, dims).coefficients
            assert np.max(np.abs(gap)) <= singular_value_bound(dims)
            got, want = entanglement_entropy(psi, dims), self.coefficient_entropy(psi, dims)
            assert abs(got - want) <= entropy_bound(dims)

    def test_full_svd_when_the_values_only_svd_does_not_converge(self, monkeypatch):
        values_only_calls = []
        svd = np.linalg.svd

        def unconverged(a, *args, compute_uv=True, **kwargs):
            if not compute_uv:
                values_only_calls.append(np.shape(a))
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", unconverged)
        for seed, dims in enumerate(self.CUTS):
            psi = seeded_random("state", dims[0] * dims[1], seed)
            # the fallback is the full SVD of schmidt_decompose, so the bits agree
            want = schmidt_decompose(psi, dims).coefficients
            assert np.array_equal(one_row_coefficients(psi, dims), want)
        # the one-row stack, then its row alone
        assert values_only_calls == [shape for dims in self.CUTS for shape in ((1, *dims), dims)]

    def test_svd_route_when_eigvalsh_does_not_converge(self, monkeypatch, spectral_calls):
        gram_calls = []

        def unconverged(a, *args, **kwargs):
            gram_calls.append(np.shape(a))
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", unconverged)
        # complex states, then real ones, whose SVD route takes float64
        makers = [
            (lambda dim, seed: seeded_random("state", dim, seed), "complex128"),
            (real_state, "float64"),
        ]
        for make, dtype in makers:
            spectral_calls.clear()
            for seed, dims in enumerate(self.CUTS):
                psi = make(dims[0] * dims[1], seed)
                s = one_row_coefficients(psi, dims)
                assert entanglement_entropy(psi, dims) == shannon_entropy(s * s)
            assert {call[2] for call in spectral_calls} == {dtype}
        assert gram_calls == [(min(dims), min(dims)) for dims in self.CUTS] * 2

    # 129 rows or columns on the smaller side take two row blocks of the Gram matrix
    GRAM_CUTS = CUTS + [(129, 131), (140, 129)]

    def test_gram_entropy_within_bound_of_full_svd(self):
        for seed, dims in enumerate(self.GRAM_CUTS):
            psi = seeded_random("state", dims[0] * dims[1], seed)
            got = entanglement_entropy(psi, dims)
            want = full_svd_entropy(psi.amplitudes.reshape(dims))
            assert got >= 0
            assert abs(got - want) <= entropy_bound(dims)

    @pytest.mark.parametrize("dims", [(4, 4), (3, 8), (8, 3), (130, 129)])
    def test_rank_one_and_two_cuts(self, dims):
        """Exact entropies 0 and h(c^2) of product and two-term states, within the bound.

        Every other eigenvalue of the Gram matrix is a round-off zero, of either sign.
        """
        u = seeded_random("unitary", dims[0], 1).entries
        v = seeded_random("unitary", dims[1], 2).entries
        c = np.array([np.sqrt(0.7), np.sqrt(0.3)])
        for rank, want in ((1, 0.0), (2, float(-np.sum(c**2 * np.log(c**2))))):
            coef = c[:rank] / np.linalg.norm(c[:rank])
            m = (u[:, :rank] * coef) @ v[:, :rank].T
            psi = StateVector(m.reshape(-1))
            got = entanglement_entropy(psi, dims)
            assert got >= 0
            assert abs(got - want) <= entropy_bound(dims)
            assert abs(got - full_svd_entropy(m)) <= entropy_bound(dims)

    @given(st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_local_unitary_invariance(self, seed):
        psi = seeded_random("state", 12, seed)
        u = tensor_product(
            seeded_random("unitary", 3, seed + 100), seeded_random("unitary", 4, seed + 200)
        )
        assert abs(
            entanglement_entropy(u.apply(psi), (3, 4)) - entanglement_entropy(psi, (3, 4))
        ) <= 1e-9


class TestRealAmplitudes:
    """The values-only kernels take float64 when every imaginary part is exactly zero."""

    @staticmethod
    def kernels(psi):
        """Every values-only kernel on a 12-dim state: the entropy, the coefficients and the
        coefficients of its three rows of 4 as 2 x 2 cuts."""
        return (
            entanglement_entropy(psi, (3, 4)),
            one_row_coefficients(psi, (3, 4)),
            branch_schmidt_coefficients(psi.amplitudes.reshape(3, 4), (2, 2)),
        )

    @staticmethod
    def dtypes(calls):
        return [call[2] for call in calls]

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_imaginary_parts_reach_float64_kernels(self, zero, spectral_calls):
        psi = with_imaginary_parts(real_state(12, 1), zero)
        assert np.all(np.signbit(psi.amplitudes.imag) == np.signbit(zero))
        self.kernels(psi)
        assert [call[:2] for call in spectral_calls] == [
            ("eigvalsh", (3, 3)), ("svd", (1, 3, 4)), ("svd", (3, 2, 2))
        ]
        assert self.dtypes(spectral_calls) == ["float64"] * 3
        # the state and its Schmidt vectors stay complex
        sd = schmidt_decompose(psi, (3, 4))
        assert psi.amplitudes.dtype == sd.u.dtype == sd.vh.dtype == np.complex128

    def test_one_tiny_imaginary_part_keeps_the_complex_kernels_and_bits(
        self, spectral_calls, complex_typed
    ):
        imag = np.zeros(12)
        imag[5] = 1e-300
        psi = with_imaginary_parts(real_state(12, 1), imag)
        got = self.kernels(psi)
        assert self.dtypes(spectral_calls) == ["complex128"] * 3
        for g, want in zip(got, complex_typed(self.kernels, psi)):
            assert np.array_equal(g, want)

    # (1, 6) and (6, 1) are rank one; 129 rows on the smaller side take two Gram row blocks
    @pytest.mark.parametrize("dims", [(2, 2), (3, 4), (4, 3), (5, 5), (1, 6), (6, 1), (129, 131)])
    def test_within_bounds_of_the_complex_typed_copy(self, dims, complex_typed):
        rank_deficient = real_state(dims[0], 3).amplitudes[:, None] * real_state(dims[1], 4).amplitudes
        for psi in (real_state(dims[0] * dims[1], sum(dims)), StateVector(rank_deficient.reshape(-1))):
            got = entanglement_entropy(psi, dims)
            want = complex_typed(entanglement_entropy, psi, dims)
            assert abs(got - want) <= entropy_bound(dims)
            gap = one_row_coefficients(psi, dims) - complex_typed(one_row_coefficients, psi, dims)
            assert np.max(np.abs(gap)) <= singular_value_bound(dims)

    def test_full_svd_when_no_values_only_svd_converges(self, monkeypatch, spectral_calls):
        psi = real_state(12, 2)
        rows = psi.amplitudes.reshape(3, 4)
        svd = np.linalg.svd

        def unconverged(a, *args, compute_uv=True, **kwargs):
            if not compute_uv:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", unconverged)
        want = np.linalg.svd(rows.real, full_matrices=False)[1]
        assert np.array_equal(one_row_coefficients(psi, (3, 4)), want)
        per_row = [np.linalg.svd(r.real.reshape(2, 2), full_matrices=False)[1] for r in rows]
        assert np.array_equal(branch_schmidt_coefficients(rows, (2, 2)), per_row)
        assert set(self.dtypes(spectral_calls)) == {"float64"}
        gap = one_row_coefficients(psi, (3, 4)) - schmidt_decompose(psi, (3, 4)).coefficients
        assert np.max(np.abs(gap)) <= singular_value_bound((3, 4))


class TestPropagator:
    def test_zero_hamiltonian(self):
        u = hermitian_propagator(Operator(np.zeros((3, 3))), 2.5)
        assert np.max(np.abs(u.entries - np.eye(3))) < 1e-14

    def test_diagonal(self):
        omega, t = 1.7, 0.9
        u = hermitian_propagator(Operator(np.diag([0.0, omega])), t)
        want = np.diag([1.0, np.exp(-1j * omega * t)])
        assert np.max(np.abs(u.entries - want)) < 1e-12

    def test_matches_rk4(self):
        h = seeded_random("hermitian", 4, 12)
        t = 1.0
        want = rk4_propagator(h.entries, t, dt=1e-4)
        got = hermitian_propagator(h, t).entries
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_unitary(self):
        u = hermitian_propagator(seeded_random("hermitian", 6, 3), 1.2)
        assert u.is_unitary()

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            hermitian_propagator(Operator(np.array([[0, 1], [0, 0]], dtype=complex)), 1.0)

    def test_spectrum_reused_across_times(self):
        h = seeded_random("hermitian", 5, 14)
        spectrum = HermitianSpectrum.of(h.entries)
        for t in (0.0, 0.3, 1.7):
            got = spectrum.apply(np.eye(5), t)
            assert np.array_equal(got, hermitian_propagator(h, t).entries)

    def test_spectrum_apply_matches_propagator(self):
        # matrix-free against the formed propagator of the same eigh
        h = seeded_random("hermitian", 6, 15)
        spectrum = HermitianSpectrum.of(h.entries)
        psi = seeded_random("state", 6, 16).amplitudes
        for t in (0.0, 0.4, 2.3):
            got = spectrum.apply(psi[:, None], t)[:, 0]
            want = expm_hermitian(h.entries, t) @ psi
            assert np.linalg.norm(got - want) <= spectral_step_bound(6)

    @pytest.mark.parametrize("k", [1, 3])
    def test_batched_apply_equals_per_matrix_apply(self, k):
        # one eigh and one apply over a stack repeat each matrix's own bits
        rng = np.random.default_rng(17)
        stack = np.stack([seeded_random("hermitian", 6, 18 + m).entries for m in range(4)])
        x = rng.normal(size=(4, 6, k)) + 1j * rng.normal(size=(4, 6, k))
        batched = HermitianSpectrum.of(stack)
        for t in (0.0, 0.4, 2.3):
            want = [HermitianSpectrum.of(h).apply(xm, t) for h, xm in zip(stack, x)]
            assert np.array_equal(batched.apply(x, t), np.stack(want))

    @given(st.integers(0, 30), st.floats(0.1, 2.0), st.floats(0.1, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_group_law(self, seed, t1, t2):
        h = seeded_random("hermitian", 4, seed)
        combined = hermitian_propagator(h, t1 + t2).entries
        split = hermitian_propagator(h, t1).entries @ hermitian_propagator(h, t2).entries
        assert np.max(np.abs(combined - split)) <= 1e-9


def program_grouped(sizes, seed) -> TrinaryHamiltonian:
    """A seeded Hamiltonian on dims (2, 1, sum(sizes)) whose h_p is block-diagonal, with
    blocks of ``sizes``, after a random permutation of the program states."""
    rng = np.random.default_rng(seed)
    dims = TrinaryDims(2, 1, sum(sizes))
    h_p = np.zeros((dims.d_p, dims.d_p), dtype=complex)
    for members in np.split(rng.permutation(dims.d_p), np.cumsum(sizes)[:-1]):
        h_p[np.ix_(members, members)] = random_hermitian(rng, members.size).entries
    blocks = tuple(random_hermitian(rng, dims.d_sa) for _ in range(dims.d_p))
    return TrinaryHamiltonian(dims=dims, h_p=Operator(h_p), blocks=blocks)


class TestComponentSpectrum:
    """The reference spectrum by exact-zero components of the program side against one
    whole-matrix eigh: ``DensePropagator._factors[0]`` holds, per group size g, the (k, g)
    program states of the k groups and one batched spectrum of their (g d_sa)^2 matrices."""

    SIZES = (8, 1, 5, 2, 5)  # unequal sizes; the two of 5 share one batched eigh

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_values_permute_the_whole_spectrum(self, seed):
        h = program_grouped(self.SIZES, seed)
        groups = DensePropagator(h)._factors[0]
        assert sorted(index.shape for index, _ in groups) == [(1, 1), (1, 2), (1, 8), (2, 5)]
        values = np.concatenate([spectrum.values.ravel() for _, spectrum in groups])
        whole = np.linalg.eigvalsh(h.full_operator().entries)
        assert np.max(np.abs(np.sort(values) - whole)) < 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_indices_partition_the_space(self, seed):
        h = program_grouped(self.SIZES, seed)
        groups = DensePropagator(h)._factors[0]
        every = np.concatenate([index.ravel() for index, _ in groups])
        assert np.array_equal(np.sort(every), np.arange(h.dims.d_p))
        for index, spectrum in groups:
            g = index.shape[1] * h.dims.d_sa
            assert spectrum.vectors.shape == (index.shape[0], g, g)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_apply_matches_the_whole_matrix_formula(self, seed):
        h = program_grouped(self.SIZES, seed)
        prop = DensePropagator(h)
        x = seeded_random("state", h.dims.total, seed)
        state = TrinaryState.from_dense(h.dims, x)
        for t in (0.0, 0.4, 2.3):
            want = expm_hermitian(h.full_operator().entries, t) @ x.amplitudes
            got = prop.evolve(state, t).dense.amplitudes
            assert np.max(np.abs(got - want)) < 1e-12

    def test_one_component_is_one_group_with_the_whole_bits(self):
        dims = TrinaryDims(2, 1, 7)
        blocks = tuple(seeded_random("hermitian", dims.d_sa, 10 + n) for n in range(dims.d_p))
        h = TrinaryHamiltonian(dims=dims, h_p=seeded_random("hermitian", 7, 4), blocks=blocks)
        ((index, spectrum),) = DensePropagator(h)._factors[0]
        want = HermitianSpectrum.of(h.full_operator().entries)
        assert np.array_equal(index, np.arange(7)[None])
        assert np.array_equal(spectrum.values[0], want.values)
        assert np.array_equal(spectrum.vectors[0], want.vectors)
        x = seeded_random("state", dims.total, 5)
        got = DensePropagator(h).evolve(TrinaryState.from_dense(dims, x), 0.7)
        assert np.array_equal(got.dense.amplitudes, want.apply(x.amplitudes[:, None], 0.7)[:, 0])


class TestHermiticity:
    def test_overflowing_difference_is_not_hermitian_and_quiet(self):
        # h - h^dagger overflows to inf, which is above the tolerance
        op = Operator(np.array([[0, 1.7e308], [-1.7e308, 0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not op.is_hermitian()


class TestCommutatorNorm:
    def test_self_commutes(self):
        a = seeded_random("hermitian", 4, 1)
        assert commutator_norm(a, a) == 0.0

    def test_pauli_xz(self):
        sx = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
        sz = Operator(np.array([[1, 0], [0, -1]], dtype=complex))
        assert abs(commutator_norm(sx, sz) - 2.0) < 1e-14

    def test_shared_eigenbasis(self):
        v = seeded_random("unitary", 5, 4).entries
        rng = np.random.default_rng(0)
        a = Operator(v @ np.diag(rng.normal(size=5)).astype(complex) @ v.conj().T)
        b = Operator(v @ np.diag(rng.normal(size=5)).astype(complex) @ v.conj().T)
        assert commutator_norm(a, b) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            commutator_norm(Operator.identity(2), Operator.identity(3))


class TestSeededRandom:
    def test_state_deterministic(self):
        a = seeded_random("state", 4, 7)
        b = seeded_random("state", 4, 7)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_unitary_is_unitary(self):
        assert seeded_random("unitary", 8, 1).is_unitary()

    def test_hermitian_exact(self):
        h = seeded_random("hermitian", 6, 2).entries
        assert np.array_equal(h, h.conj().T)

    def test_distinct_seeds_differ(self):
        a = seeded_random("state", 4, 1)
        b = seeded_random("state", 4, 2)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) > 1e-3
