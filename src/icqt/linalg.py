"""Dense complex linear algebra over finite-dimensional Hilbert spaces.

Everything here is a pure function over immutable value types; desk-scale
dimensions only (dense ndarrays, no sparse formats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .serialize import _echo, _is_finite, _is_int

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10
SCHMIDT_TOL = 1e-12  # coefficients below this count as rank zero
# The normalization check sums |x_i|^2 pairwise, error ~ log2(n) eps (Higham, Accuracy and
# Stability of Numerical Algorithms, 4.2), where a sequential sum (np.linalg.norm) errs ~ n eps,
# past NORM_TOL at 2^24 entries; chunks of this many reals keep the temporary small.
_NORM_CHUNK = 2**16
# Rows of a reduced-state Gram matrix formed per product: at a 1024 x 1024 cut a block's
# conjugated rows take 2 MB, and the lower triangle needs about 56% of the full product.
# A complex cut of more rows conjugates at most 1/_GRAM_SHARE of them per product.
_GRAM_ROWS = 128
_GRAM_SHARE = 16


class DimensionError(ValueError):
    """Operands have incompatible or non-factorizable dimensions."""


class NormalizationError(ValueError):
    """State vector is not normalized to 1 within tolerance."""


class HermiticityError(ValueError):
    """Operator that must be Hermitian is not."""


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries")


def _as_complex(a, ndim: int) -> np.ndarray:
    arr = np.array(a, dtype=complex, order="C")  # owned copy, safe to freeze
    if arr.ndim != ndim:
        raise DimensionError(f"expected {ndim}-d array, got shape {arr.shape}")
    _check_finite(arr)
    arr.setflags(write=False)
    return arr


def _check_unit(arr: np.ndarray) -> None:
    """icqt's one state rule for a C-contiguous 1-d complex128 or float64 array: nonempty,
    finite entries, and a squared norm within NORM_TOL of 1."""
    if arr.size < 1:
        raise DimensionError("empty state vector")
    _check_finite(arr)
    re_im = arr.view(np.float64)
    chunks = (re_im[i : i + _NORM_CHUNK] for i in range(0, re_im.size, _NORM_CHUNK))
    squared = math.fsum(float(np.sum(c * c)) for c in chunks)  # chunk sums added exactly
    if abs(squared - 1.0) > NORM_TOL:
        raise NormalizationError(f"squared norm {squared!r} != 1")


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on a dim-dimensional Hilbert space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=complex, order="C")  # owned copy, safe to freeze
        if arr.ndim != 1:
            raise DimensionError(f"expected 1-d array, got shape {arr.shape}")
        _check_unit(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def _owning(cls, arr: np.ndarray) -> StateVector:
        """The state of ``arr`` itself, without a copy, checked as ``StateVector(arr)`` is.

        ``arr`` must be a fresh array that no one else writes: a 1-d complex128
        array that owns its C-contiguous data.  It is frozen here, so no later
        write can reach the state.  A view, another dtype or layout is refused.
        """
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == np.complex128
            and arr.ndim == 1
            and arr.flags.c_contiguous
            and arr.flags.owndata
        ):
            raise ValueError(
                "an owned state takes a 1-d complex128 array that owns its C-contiguous data"
            )
        _check_unit(arr)
        arr.setflags(write=False)
        psi = object.__new__(cls)
        object.__setattr__(psi, "amplitudes", arr)
        return psi

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @staticmethod
    def basis(dim: int, index: int) -> StateVector:
        """|index> of a dim-level space; ``index`` is an integer (``_is_int``) in [0, dim)."""
        if not (_is_int(index) and 0 <= index < dim):
            raise DimensionError(f"basis index {_echo(index)} out of range")
        amp = np.zeros(dim, dtype=complex)
        amp[index] = 1.0
        return StateVector(amp)

    @staticmethod
    def uniform(dim: int) -> StateVector:
        return StateVector(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))


def is_unitary_matrix(m: np.ndarray) -> bool:
    """icqt's one unitarity rule: max|M^dagger M - I| <= UNITARITY_TOL for a square M.

    A NaN or inf entry makes the deviation NaN or inf, and the comparison fails;
    the invalid and overflowing products that give it raise no warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
    return bool(deviation <= UNITARITY_TOL)


@dataclass(frozen=True)
class Operator:
    """Square complex matrix acting on a dim-dimensional space."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_complex(self.entries, 2)
        if arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionError(f"operator must be square, got {arr.shape}")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def identity(dim: int) -> Operator:
        return Operator(np.eye(dim, dtype=complex))

    def is_hermitian(self) -> bool:
        """max|H - H^dagger| <= HERMITICITY_TOL; a difference that overflows reads inf, quietly."""
        with np.errstate(over="ignore"):
            return bool(np.max(np.abs(self.entries - self.entries.conj().T)) <= HERMITICITY_TOL)

    def apply(self, psi: StateVector) -> StateVector:
        if psi.dim != self.dim:
            raise DimensionError("operator/state dim mismatch")
        return StateVector(self.entries @ psi.amplitudes)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Bipartite Schmidt form: the arrays of one SVD of the cut matrix.

    ``coefficients`` are nonnegative and descending; the paired orthonormal
    bases are the columns of ``u`` (d_l x k) and the rows of ``vh``
    (k x d_r), so reconstruction is sum_k c_k u[:, k] x vh[k].
    """

    u: np.ndarray
    coefficients: np.ndarray
    vh: np.ndarray
    cut: tuple[int, int]

    def __post_init__(self):
        for arr in (self.u, self.coefficients, self.vh):
            arr.setflags(write=False)

    @property
    def rank(self) -> int:
        return int(np.sum(self.coefficients > SCHMIDT_TOL))

    def reconstruct(self) -> StateVector:
        return StateVector(((self.u * self.coefficients) @ self.vh).reshape(-1))


def _cut_matrix(psi: StateVector, dims: tuple[int, int]) -> np.ndarray:
    dim_l, dim_r = dims
    if dim_l * dim_r != psi.dim:
        raise DimensionError(f"{dims} does not factor dim {psi.dim}")
    return psi.amplitudes.reshape(dim_l, dim_r)


def schmidt_decompose(psi: StateVector, dims: tuple[int, int]) -> SchmidtDecomposition:
    """Schmidt decomposition of a pure state across the (dimL, dimR) cut."""
    u, s, vh = np.linalg.svd(_cut_matrix(psi, dims), full_matrices=False)
    return SchmidtDecomposition(u=u, coefficients=s, vh=vh, cut=dims)


def _singular_values(matrix: np.ndarray) -> np.ndarray:
    """Descending singular values from the values-only SVD; full SVD if it fails.

    The values-only SVD computes no singular vectors.  It takes a different
    LAPACK path from the full SVD of ``schmidt_decompose``, so the two agree
    within a bound, not bit for bit: each is exact for A + E with
    ``||E||_2 <= max(m, n) * eps * ||A||_2``, and singular values are
    perfectly conditioned (Weyl: ``|s_k(A + E) - s_k(A)| <= ||E||_2``), so
    the k-th values differ by at most ``2 * max(m, n) * eps * ||A||_2``.
    The full SVD serves only when the values-only one does not converge.
    """
    try:
        return np.linalg.svd(matrix, compute_uv=False)
    except np.linalg.LinAlgError:
        return np.linalg.svd(matrix, full_matrices=False)[1]


def branch_schmidt_coefficients(rows: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Descending Schmidt coefficients, without bases, across the (dimL, dimR) cut of every
    row of a matrix.

    The stack is read in the dtype of ``rows``, complex128 or float64.  Row i
    of the result is the one-row result of rows[i], bit for bit, when both
    take the same dtype: one batched values-only SVD of the (k, dimL, dimR)
    stack runs the same LAPACK call on each matrix.  Should it not converge,
    the rows are taken one at a time in the stack's dtype, so every row that
    converges alone keeps its bits.  Each row equals the coefficients of
    ``schmidt_decompose`` within the bound documented in ``_singular_values``.
    """
    stack = rows.reshape(-1, *dims)
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError:
        return np.array([_singular_values(m) for m in stack])


def _conj_gram_lower(a: np.ndarray) -> np.ndarray:
    """Lower triangle of conj(A) A^T in A's dtype, upper triangle zero, built in blocks of at
    most _GRAM_ROWS rows.

    Each block of a complex A conjugates only its own rows, and one block's
    conjugate is dropped before the next is made; a complex A of more than
    _GRAM_ROWS rows takes blocks of at most 1/_GRAM_SHARE of its rows, so the
    conjugate stays a small share of the Gram matrix.  A real A is read as it
    is, and the transposed factor is a view.  Each product is written straight
    into its block of the Gram matrix.
    """
    k = a.shape[0]
    complex_a = np.iscomplexobj(a)
    step = min(_GRAM_ROWS, k // _GRAM_SHARE) if complex_a and k > _GRAM_ROWS else _GRAM_ROWS
    gram = np.zeros((k, k), dtype=a.dtype)
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        rows = a[lo:hi].conj() if complex_a else a[lo:hi]
        np.matmul(rows, a[:hi].T, out=gram[lo:hi, :hi])
        del rows
    return gram


def entanglement_entropy(psi: StateVector, dims: tuple[int, int]) -> float:
    """Von Neumann entropy (nats) of either reduced state of a pure state: ``_cut_entropy``
    of its (dim_l, dim_r) cut matrix."""
    return _cut_entropy(_cut_matrix(psi, dims))


def _cut_entropy(cut: np.ndarray) -> float:
    """Von Neumann entropy (nats) of either reduced state of the pure state whose cut
    matrix M is ``cut`` (complex128 or float64, read as it is, never copied whole).

    The entropy reads only the squared Schmidt coefficients, which are the
    eigenvalues of the reduced state on the smaller side: M M^dagger, or
    M^T conj(M) when dim_l > dim_r.  One ``eigvalsh`` of the complex conjugate
    of that Gram matrix (the same spectrum, lower triangle only) costs less
    than the values-only SVD of M.  A float64 M, such as the rows ``icqc.run``
    passes for real amplitudes, gives a real Gram matrix and a float64
    ``eigvalsh``; a complex M keeps complex128 whatever its imaginary parts.
    Round-off negatives are masked by ``shannon_entropy``.  Should ``eigvalsh``
    not converge, the entropy is taken from the values-only SVD of M, in M's
    dtype, as ``branch_schmidt_coefficients`` takes it for one row.

    The Schmidt coefficients themselves stay on the SVD: a zero eigenvalue
    of +-4e-17 would read as a coefficient of about 6e-9, above the Born
    report's emptiness tolerance and within its degeneracy tolerance of its
    neighbour, so every rank-deficient branch would read as degenerate.
    """
    gram = _conj_gram_lower(cut if cut.shape[0] <= cut.shape[1] else cut.T)
    try:
        p = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError:
        s = _singular_values(cut)
        p = s * s
    return shannon_entropy(p)


def shannon_entropy(probs) -> float | np.ndarray:
    """Shannon entropy (nats) of each probability row (..., k), a float for one row."""
    p = np.asarray(probs, dtype=float)
    p = np.where(p > 0, p, 1.0)  # entries <= 0 are masked: 1 ln 1 is exactly 0
    h = np.maximum(0.0, -np.sum(p * np.log(p), axis=-1))
    return float(h) if h.ndim == 0 else h


@dataclass(frozen=True)
class HermitianSpectrum:
    """H = V diag(w) V^dagger of each matrix of a (..., n, n) Hermitian stack, from one ``eigh``.

    Evolving to many times then costs one (batched) ``eigh`` in total.
    """

    values: np.ndarray
    vectors: np.ndarray

    @staticmethod
    def of(h: np.ndarray) -> HermitianSpectrum:
        return HermitianSpectrum(*np.linalg.eigh(h))

    def apply(self, x: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t) x = V (exp(-i w t) * (V^dagger x)) for columns x of shape (..., n, k).

        Two O(n^2 k) products per matrix and no stack-sized temporary; V^dagger x
        is conj(V^T conj(x)), so V is never conjugated.  Each matrix of a stack
        gets the bits it gets alone.
        """
        w, v = self.values, self.vectors
        phase = np.exp(-1j * w * t)[..., None]
        return v @ (phase * (v.swapaxes(-1, -2) @ x.conj()).conj())


def hermitian_propagator(h: Operator, t: float) -> Operator:
    """exp(-i H t) for Hermitian H and a finite number t: its spectrum applied to the identity.
    Phases w t past the double range end quietly in the ``Operator`` check's refusal."""
    if not h.is_hermitian():
        raise HermiticityError("propagator generator must be Hermitian")
    if not _is_finite(t):
        raise ValueError(f"time {_echo(t)} is not a finite number")
    with np.errstate(over="ignore", invalid="ignore"):
        u = HermitianSpectrum.of(h.entries).apply(np.eye(h.dim), t)
    return Operator(u)


def commutator_norm(a: Operator, b: Operator) -> float:
    """Max-entry magnitude of AB - BA."""
    if a.dim != b.dim:
        raise DimensionError("commutator of unequal dims")
    comm = a.entries @ b.entries - b.entries @ a.entries
    return float(np.max(np.abs(comm)))


def seeded_random(kind: Literal["state", "unitary", "hermitian"], dim: int, seed) -> StateVector | Operator:
    """Deterministic random state / Haar-like unitary / Hermitian operator."""
    if dim < 1:
        raise DimensionError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == "state":
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return StateVector(raw / np.linalg.norm(raw))
    if kind == "unitary":
        z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        # fix the phase ambiguity of QR so the distribution is Haar-like
        d = np.diag(r)
        q = q * (d / np.abs(d))
        return Operator(q)
    if kind == "hermitian":
        return random_hermitian(rng, dim)
    raise ValueError(f"unknown kind {_echo(kind)}, expected state, unitary or hermitian")


def random_hermitian(rng: np.random.Generator, dim: int) -> Operator:
    """Hermitian (M + M^dagger) / 2 of a complex Gaussian M drawn from ``rng``.

    The real parts of M are drawn before the imaginary parts; every seeded
    Hamiltonian's bits depend on that order.
    """
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator(0.5 * (m + m.conj().T))


def subseed(root: int, *path: int) -> int:
    """Deterministic child seed from a root seed and an integer path."""
    return int(np.random.SeedSequence([int(root), *[int(p) for p in path]]).generate_state(1)[0])
