"""Independent reference implementations used to check the library.

Nothing here imports library internals beyond plain data access; every
routine recomputes its quantity from first principles (index formulas,
explicit integration, dense matrix assembly, the full SVD) so agreement is
meaningful.
"""

import math
from dataclasses import dataclass

import numpy as np

from icqt.linalg import (
    HERMITICITY_TOL,
    NORM_TOL,
    DimensionError,
    HermiticityError,
    StateVector,
)

EPS = np.finfo(float).eps


def kron_entry_vector(a: np.ndarray, b: np.ndarray, i: int, j: int) -> complex:
    """(a (x) b)[i*len(b)+j] from the index formula."""
    return a[i] * b[j]


def kron_entry_matrix(a: np.ndarray, b: np.ndarray, i, j, k, l) -> complex:
    """(A (x) B)[(i,j),(k,l)] = A[i,k] * B[j,l]."""
    return a[i, k] * b[j, l]


def dense_kron(*factors: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]]) if factors[0].ndim == 2 else np.array([1.0 + 0j])
    for f in factors:
        out = np.kron(out, f)
    return out


def single_qubit_gate(arr: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    """out[.., i, ..] = m[i, 0] arr[.., 0, ..] + m[i, 1] arr[.., 1, ..] along one axis."""
    half = [arr.take(j, axis=axis) for j in (0, 1)]
    return np.stack([m[i, 0] * half[0] + m[i, 1] * half[1] for i in (0, 1)], axis=axis)


def reduced_density(psi: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Partial trace of |psi><psi| by explicit double loop."""
    d_l, d_r = dims
    m = psi.reshape(d_l, d_r)
    if keep == "left":
        return m @ m.conj().T
    return m.T @ m.conj()


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"density matrix must be square, got {arr.shape}")
        if np.max(np.abs(arr - arr.conj().T)) > HERMITICITY_TOL:
            raise HermiticityError("density matrix is not Hermitian")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"trace {tr!r} != 1")
        if float(np.min(np.linalg.eigvalsh(arr))) < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum."""
        return np.linalg.eigvalsh(self.entries)

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.entries))


def projector(psi: StateVector) -> DensityMatrix:
    """|psi><psi| of a state vector."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Trace out one side of a bipartite density matrix."""
    dim_l, dim_r = dims
    if dim_l * dim_r != rho.dim:
        raise DimensionError(f"{dims} does not factor dim {rho.dim}")
    blocks = rho.entries.reshape(dim_l, dim_r, dim_l, dim_r)
    if keep == "left":
        reduced = np.einsum("ikjk->ij", blocks)
    elif keep == "right":
        reduced = np.einsum("kikj->ij", blocks)
    else:
        raise ValueError(f"keep must be 'left' or 'right', got {keep!r}")
    # symmetrize away round-off so the DensityMatrix invariants hold exactly
    reduced = 0.5 * (reduced + reduced.conj().T)
    return DensityMatrix(reduced)


def eigenvalue_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy from the eigenvalues of a density matrix."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log(w)))


def full_svd_entropy(matrix: np.ndarray) -> float:
    """Entropy (nats) of the squared singular values of the full SVD of a matrix.

    The full SVD computes the singular vectors too, a different LAPACK path
    from a values-only SVD or the eigenvalues of a Gram matrix; each agrees
    with it within ``entropy_bound``.
    """
    p = np.linalg.svd(matrix, full_matrices=False)[1] ** 2
    p = p[p > 0]
    return float(max(0.0, -np.sum(p * np.log(p))))


def branch_entropies_loop(rows: np.ndarray, dims: tuple[int, int], empty_tol: float) -> np.ndarray:
    """S|A entropy of each row over its own norm, one full SVD per row.

    A row whose weight sum |x|^2 is at most ``empty_tol`` gets 0.
    """
    return np.array([full_svd_entropy(u.reshape(dims)) for u in unit_rows_loop(rows, empty_tol)])


def unit_rows_loop(rows: np.ndarray, empty_tol: float) -> np.ndarray:
    """Each row over its own ``np.linalg.norm``, one row at a time.

    A row whose weight sum |x|^2 is at most ``empty_tol`` stays all zeros.
    """
    units = np.zeros_like(rows)
    for r, row in enumerate(rows):
        if np.sum(np.abs(row) ** 2) > empty_tol:
            units[r] = row / np.linalg.norm(row)
    return units


def branch_spectra_loop(rows: np.ndarray, dims: tuple[int, int], empty_tol: float) -> np.ndarray:
    """Values-only Schmidt coefficients of each row of ``unit_rows_loop``, one SVD per row."""
    units = unit_rows_loop(rows, empty_tol)
    return np.array([np.linalg.svd(u.reshape(dims), compute_uv=False) for u in units])


def dual_born_loop(rows: np.ndarray, dims: tuple[int, int], empty_tol: float, degeneracy_tol: float):
    """(decision row, outcome rows, degenerate flags, empty flags), one branch at a time.

    Row r's weight is sum |x|^2; an empty row (weight at most ``empty_tol``)
    keeps a zero outcome row and no degeneracy.  Otherwise its outcome row is
    the squared coefficients of ``branch_spectra_loop`` padded to dims[0], and
    it is degenerate when two neighbouring coefficients above ``empty_tol``
    lie within ``degeneracy_tol``.
    """
    spectra = branch_spectra_loop(rows, dims, empty_tol)
    decision = np.array([np.sum(np.abs(row) ** 2) for row in rows])
    outcome = np.zeros((rows.shape[0], dims[0]))
    degenerate, empty = [], []
    for r, s in enumerate(spectra):
        empty.append(bool(decision[r] <= empty_tol))
        if empty[r]:
            degenerate.append(False)
            continue
        outcome[r, : s.size] = s**2
        nonzero = s[s > empty_tol]
        degenerate.append(bool(np.any(np.abs(np.diff(nonzero)) < degeneracy_tol)))
    return decision, outcome, tuple(degenerate), tuple(empty)


def singular_value_bound(shape: tuple[int, int]) -> float:
    """Largest gap between the singular values of two backward-stable SVDs of a unit state.

    Each SVD of an m x n matrix A is exact for some A + E with
    ||E||_2 <= max(m, n) * eps * ||A||_2, and singular values are perfectly
    conditioned (Weyl: |s_k(A + E) - s_k(A)| <= ||E||_2; Golub & Van Loan,
    Matrix Computations, section 8.6).  So the k-th values of the two SVDs
    differ by at most 2 * max(m, n) * eps * ||A||_2, and ||A||_2 <= 1 for
    the cut matrix of a unit state, whose Frobenius norm is 1.
    """
    return 2 * max(shape) * EPS


def squared_value_bound(shape: tuple[int, int]) -> float:
    """Gap between squared singular values (Born rows) of two SVDs of a unit state.

    With d = ``singular_value_bound`` and both values in [0, 1 + d],
    |a^2 - b^2| = |a - b| (a + b) <= d (2 + d); rounding the two squares adds
    at most eps <= d / 2.  In all that is at most 3 d.
    """
    return 3 * singular_value_bound(shape)


def gram_eigenvalue_bound(shape: tuple[int, int]) -> float:
    """Largest gap between an ``eigvalsh`` eigenvalue of the Gram matrix of a unit state's
    cut and the exact squared singular value.

    Let A be the k x n cut matrix with its smaller side first (k = min(shape),
    n = max(shape)), so ||A||_F = 1 and G = conj(A) A^T has the squared
    singular values as eigenvalues.  Each computed entry is a complex inner
    product of length n, off by at most gamma_{n+2} (|A| |A|^T)_ij with
    gamma_{n+2} <= (n + 2) eps (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.6, with unit roundoff eps / 2), so the Hermitian error F
    has ||F||_2 <= ||F||_F <= (n + 2) eps || |A| ||_F^2 = (n + 2) eps.
    ``eigvalsh`` is exact for G + F + E with ||E||_2 <= k eps ||G + F||_2,
    the SVD's backward error in ``singular_value_bound`` at dimension k, and
    ||G + F||_2 <= 1 + (n + 2) eps.  Eigenvalues of Hermitian matrices are
    perfectly conditioned (Weyl: |l_i(G + F + E) - l_i(G)| <= ||F + E||_2),
    so the gap is at most (n + 2) eps + k eps (1 + (n + 2) eps).
    """
    k, n = min(shape), max(shape)
    forming = (n + 2) * EPS
    return forming + k * EPS * (1 + forming)


def entropy_bound(shape: tuple[int, int]) -> float:
    """Gap between the entropies -sum p ln p of a unit state's cut from two spectra, each
    either an SVD's squared values or ``eigvalsh`` of the cut's Gram matrix.

    Each of the k = min(m, n) probabilities moves by at most
    e = ``squared_value_bound`` (two SVDs) or e = ``gram_eigenvalue_bound``
    plus one SVD's share of ``squared_value_bound`` (an eigenvalue against an
    SVD), so by at most their sum.  Two Gram spectra, such as the float64 and
    the complex128 ``eigvalsh`` of one real cut, differ by at most twice
    ``gram_eigenvalue_bound``, which is below that sum.  A negative
    eigenvalue counts as 0, which is nearer every value in [0, 1].
    |x ln x - y ln y| <= -e ln e whenever |x - y| <= e <= 1/e (the
    continuity step of Fannes' inequality), so the exact entropies differ
    by at most k (-e ln e).  Evaluating the sum in
    floating point costs each side at most (k + 1) eps H, with H <= ln k.
    """
    k = min(shape)
    e = squared_value_bound(shape) + gram_eigenvalue_bound(shape)
    return k * -e * np.log(e) + 2 * (k + 1) * EPS * np.log(max(k, 2))


def product_bound(n: int) -> float:
    """2-norm error of a computed product of an n x n unitary matrix V with a vector x, ||x||_2 <= 1.

    Each entry is a complex inner product of length n, off by at most
    gamma_{n+2} (|V| |x|)_i with gamma_{n+2} <= (n + 2) eps (Higham, Accuracy
    and Stability of Numerical Algorithms, 3.6, with unit roundoff eps / 2),
    whatever order BLAS sums in.  For unitary V, || |V| ||_2 <= ||V||_F = sqrt(n),
    so the error is at most (n + 2) sqrt(n) eps.  Applied column by column to
    a matrix X, the same bound holds in the Frobenius norm for ||X||_F <= 1.
    """
    return (n + 2) * math.sqrt(n) * EPS


def spectral_step_bound(n: int) -> float:
    """Largest 2-norm gap between two evaluations of exp(-i H t) x, ||x||_2 <= 1, from one
    eigendecomposition H = V diag(w) V^dagger of an n x n Hermitian H.

    The two evaluations are the matrix-free V (p * (V^dagger x)) and the formed
    propagator U = (V diag(p)) V^dagger times x, with the same phases
    p = exp(-i w t) (|p_j| = 1) and V unitary (``eigh`` returns V orthonormal
    to working precision; that departure is of second order here).  In exact
    arithmetic both are V diag(p) V^dagger x, so the gap is at most the sum
    of their errors.  With a = ``product_bound(n)`` and complex products
    off by at most sqrt(2) gamma_2 <= 2 eps (Higham 3.5):

    - matrix-free: V^dagger x costs a, the phases 2 eps, V a second a, so its
      error is at most (1 + a)^2 (1 + 2 eps) - 1;
    - formed: V diag(p) is off entrywise by 2 eps |V|, and its product with
      V^dagger by (n + 2) eps (1 + 2 eps) |V| |V^dagger|; with
      || |V| ||_2 <= sqrt(n) that puts ||U_computed - U||_2 at most
      f = n (2 eps + (n + 2) eps (1 + 2 eps)).  The computed U has
      Frobenius norm at most sqrt(n) (1 + f), so its product with x costs
      a (1 + f) more: in all (1 + f)(1 + a) - 1.
    """
    a = product_bound(n)
    matrix_free = (1 + a) ** 2 * (1 + 2 * EPS) - 1
    f = n * (2 * EPS + (n + 2) * EPS * (1 + 2 * EPS))
    formed = (1 + f) * (1 + a) - 1
    return matrix_free + formed


def chained_bound(*gaps: float) -> float:
    """Gap between two evaluations of a chain of unitary steps on a vector of norm <= 1.

    If step i of evaluation A is off by at most e_i ||input|| and of B by at
    most f_i ||input||, each evaluation is off from the exact chain by at most
    prod(1 + e_i) - 1 (induction: the exact steps keep norms, a computed input
    of norm <= prod_{j<i}(1 + e_j) adds e_i times that), so the two differ by
    at most prod(1 + e_i) + prod(1 + f_i) - 2 <= prod(1 + g_i) - 1 with
    g_i = e_i + f_i, the per-step gaps passed here.  Steps before the first
    one whose input or formula differs are left out: they give both the same bits.
    """
    return math.prod(1 + g for g in gaps) - 1


def rk4_propagator(h: np.ndarray, t: float, dt: float = 1e-4) -> np.ndarray:
    """Integrate dU/dt = -i H U from the identity with classic Runge-Kutta."""
    dim = h.shape[0]
    u = np.eye(dim, dtype=complex)
    steps = int(round(t / dt))

    def f(mat):
        return -1j * (h @ mat)

    for _ in range(steps):
        k1 = f(u)
        k2 = f(u + 0.5 * dt * k1)
        k3 = f(u + 0.5 * dt * k2)
        k4 = f(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def dense_programmed_matrix(branch_matrices) -> np.ndarray:
    """Block-diagonal matrix over the programming index, assembled directly."""
    d_p = len(branch_matrices)
    d_sa = branch_matrices[0].shape[0]
    full = np.zeros((d_p * d_sa, d_p * d_sa), dtype=complex)
    for r, block in enumerate(branch_matrices):
        full[r * d_sa : (r + 1) * d_sa, r * d_sa : (r + 1) * d_sa] = block
    return full


def pointer_unitary(basis: np.ndarray, d_a: int) -> np.ndarray:
    """Pointer-measurement unitary sum_j |b_j><b_j| (x) X^j on S x A, X|k> = |k+1 mod d_a>,
    one np.kron term per column b_j of ``basis``."""
    d_s = len(basis)
    shift = np.zeros((d_a, d_a), dtype=complex)
    shift[(np.arange(d_a) + 1) % d_a, np.arange(d_a)] = 1.0
    u = np.zeros((d_s * d_a, d_s * d_a), dtype=complex)
    power = np.eye(d_a, dtype=complex)
    for j in range(d_s):
        proj = np.outer(basis[:, j], basis[:, j].conj())
        u += np.kron(proj, power)
        power = shift @ power
    return u


def pointer_apply_bound(d_s: int, d_a: int) -> float:
    """2-norm gap between two evaluations of a pointer program on a unit state, d_a >= d_s:
    rotate, shift and rotate back, against the formed ``pointer_unitary`` of each branch.

    Exactly, U = sum_j |b_j><b_j| (x) X^j = (B (x) I) S (B^dagger (x) I), with S the
    shift of line j by j along A, an exact permutation.  Rotating into B^dagger and back
    into B are two unitary d_s x d_s products, each off by at most a = ``product_bound(d_s)``
    over a (d_s, d_a) row (column by column, in the Frobenius norm), so that evaluation
    is off by at most (1 + a)^2 - 1.  Formed: since d_a >= d_s the powers X^j, j < d_s,
    have disjoint supports, so each entry of U is one product b_j[s] conj(b_j[t]), off by
    at most 2 eps of its size (Higham 3.5), and ||F||_2 <= ||F||_F <= 2 eps ||U||_F =
    2 eps sqrt(n), n = d_s d_a; its product with the row costs ``product_bound(n)``, times
    1 + 2 eps for the entries' growth.  Rows of a unit state have squared norms summing
    to 1, so the same bounds hold over the whole state.
    """
    a = product_bound(d_s)
    n = d_s * d_a
    formed = 2 * EPS * math.sqrt(n) + product_bound(n) * (1 + 2 * EPS)
    return (1 + a) ** 2 - 1 + formed


def pointer_readout_bound(d_s: int, d_a: int) -> float:
    """Entry gap between two evaluations of a pointer branch's readout operator
    E_a = sum_j |p[(a - j) mod d_a]|^2 |b_j><b_j| (unitary B, unit probe p, d_a >= d_s).

    From the bases: M = B diag(w) with the weights w = |p|^2 taken first (2 eps relative,
    one more eps for M's products), then M B^dagger column by column: M has Frobenius
    norm at most 1 and each column of B^dagger norm 1, so a column of length d_s costs
    (d_s + 2) eps (Higham 3.6), and in all (d_s + 5) eps.  From the formed U: each
    column of K = (I (x) <a|) U (I (x) |p>) is U times the unit vector e_s (x) p with its
    rows selected (exact), off by at most d = 2 eps sqrt(n) + ``product_bound(n)``
    (1 + 2 eps), n = d_s d_a, as in ``pointer_apply_bound``; K is a contraction with
    columns of norm at most 1, so K^dagger K costs ``product_bound(d_s)`` per entry
    plus 2 d + d^2 from the columns' errors.
    """
    n = d_s * d_a
    d = 2 * EPS * math.sqrt(n) + product_bound(n) * (1 + 2 * EPS)
    return (d_s + 5) * EPS + product_bound(d_s) + 2 * d + d * d


def dense_trinary_hamiltonian(h_p: np.ndarray, blocks, basis: np.ndarray | None = None) -> np.ndarray:
    """H_P (x) I + sum_n |e_n><e_n| (x) B_n assembled without the library."""
    d_p = h_p.shape[0]
    d_sa = blocks[0].shape[0]
    if basis is None:
        basis = np.eye(d_p, dtype=complex)
    full = np.kron(h_p, np.eye(d_sa))
    for n in range(d_p):
        proj = np.outer(basis[:, n], basis[:, n].conj())
        full = full + np.kron(proj, blocks[n])
    return full


def dense_hamiltonian(h) -> np.ndarray:
    """The full-space matrix of a TrinaryHamiltonian, by ``dense_trinary_hamiltonian``."""
    blocks = [b.entries for b in h.blocks]
    return dense_trinary_hamiltonian(h.h_p.entries, blocks, h.programming_basis)


def assembly_bound(h_program: np.ndarray, blocks) -> float:
    """Largest entry gap between two assemblies of H_prog (x) I + sum_n |e_n><e_n| (x) B_n over
    a unitary basis W of d columns e_n: the library's one product of the projector stack
    with the block stack, and ``dense_trinary_hamiltonian``.

    With s = max|H_prog| + max_n max|B_n|: entry ((i, k), (j, l)) of the programmed part
    is an inner product of length d of the projector entries w_in conj(w_jn) with the
    b_n = B_n[k, l].  Each projector entry is one complex product, off by at most 2 eps
    of its size (Higham 3.5), and the inner product, as in ``product_bound``, by at most
    (d + 2) eps sum_n |w_in| |w_jn| |b_n|, and that sum is at most max|B_n| since the rows
    of W are unit vectors (Cauchy-Schwarz); adding H_prog costs eps s more.  The oracle
    forms each term by two complex products (4 eps) and adds the d terms to
    H_prog[i, j] delta_kl one at a time (d eps / 2 of the sum of their sizes, Higham 4.2).
    So each side is off by at most (d + 5) eps s to first order; (d + 6) covers the
    second-order terms, and the gap is at most twice that.
    """
    d = h_program.shape[0]
    s = float(np.max(np.abs(h_program))) + max(float(np.max(np.abs(b))) for b in blocks)
    per_side = product_bound(d) / math.sqrt(d) + 4 * EPS  # (d + 6) eps
    return 2 * per_side * s


def programmed_part(h) -> np.ndarray:
    """sum_n |e_n><e_n| (x) block_n of a TrinaryHamiltonian, by np.kron per term."""
    d_p = h.dims.d_p
    w = np.eye(d_p, dtype=complex) if h.programming_basis is None else h.programming_basis
    out = np.zeros((h.dims.total, h.dims.total), dtype=complex)
    for n in range(d_p):
        proj = np.outer(w[:, n], w[:, n].conj())
        out += np.kron(proj, h.blocks[n].entries)
    return out


def swapped_full_operator(h_sa, blocks_on_p, dims, sa_basis=None) -> np.ndarray:
    """I (x) h_sa + sum_m B_m (x) |f_m><f_m| in P x SA index order, by np.kron."""
    basis = np.eye(dims.d_sa, dtype=complex) if sa_basis is None else np.asarray(sa_basis)
    out = np.kron(np.eye(dims.d_p), h_sa.entries)
    for m in range(dims.d_sa):
        proj = np.outer(basis[:, m], basis[:, m].conj())
        out = out + np.kron(blocks_on_p[m].entries, proj)
    return out


def dense_commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry magnitude of AB - BA on the full space."""
    return float(np.max(np.abs(a @ b - b @ a)))


def dense_pmc_norm(h) -> float:
    """[programmed part, H_P (x) I] of a TrinaryHamiltonian, densely."""
    return dense_commutator_norm(programmed_part(h), np.kron(h.h_p.entries, np.eye(h.dims.d_sa)))


def every_block_commutator_norm(h_program: np.ndarray, blocks, basis: np.ndarray | None = None) -> float:
    """Max-entry norm of the commutator blocks h'[n, m] (B_n - B_m), h' = basis^dagger H basis,
    taking every (n, m): a whole row of blocks per n, zero couplings included.

    The same arithmetic per entry as a blockwise check that skips zero
    couplings, so the two norms agree bit for bit when the blocks are finite.
    """
    if basis is not None:
        h_program = basis.conj().T @ h_program @ basis
    stack = np.stack(blocks)
    return max(
        float(np.max(np.abs(h_program[n][:, None, None] * (stack[n] - stack))))
        for n in range(len(stack))
    )


def dense_block(block) -> np.ndarray:
    """The S x A matrix of a ProgrammedBlockStructure, by ``dense_trinary_hamiltonian``."""
    return dense_trinary_hamiltonian(
        block.h_s.entries, [g.entries for g in block.a_generators], block.s_basis
    )


def dense_sapmc_norm(block) -> float:
    """[block, H_S (x) I] of a ProgrammedBlockStructure, densely."""
    h_s_full = np.kron(block.h_s.entries, np.eye(block.d_a))
    return dense_commutator_norm(dense_block(block), h_s_full)


def dense_swapped_norm(h_sa, blocks_on_p, dims, sa_basis=None) -> float:
    """[sum_m B_m (x) |f_m><f_m|, I (x) h_sa] of the swapped roles, densely."""
    h_full = np.kron(np.eye(dims.d_p), h_sa.entries)
    programmed = swapped_full_operator(h_sa, blocks_on_p, dims, sa_basis) - h_full
    return dense_commutator_norm(programmed, h_full)


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def apply_programmed_loop(branch_matrices, rows: np.ndarray) -> np.ndarray:
    """Branch matrix r times amplitude row r, one product per branch."""
    return np.array([m @ row for m, row in zip(branch_matrices, rows)])


def factorized_apply_loop(h_program: np.ndarray, blocks, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) psi for H = H_prog (x) I + sum_n |n><n| (x) B_n, one block at a time.

    The computational conditioning basis only.  A diagonal H_prog evolves by
    per-component phases, any other by ``expm_hermitian``; then row n is
    multiplied by ``expm_hermitian(B_n, t)``.
    """
    if np.count_nonzero(h_program - np.diag(np.diag(h_program))) == 0:
        out = np.exp(-1j * np.real(np.diag(h_program)) * t)[:, None] * psi
    else:
        out = expm_hermitian(h_program, t) @ psi
    for n, block in enumerate(blocks):
        out[n] = expm_hermitian(block, t) @ out[n]
    return out


def born_probabilities(psi: np.ndarray, basis_columns: np.ndarray) -> np.ndarray:
    """|<b_j|psi>|^2 computed per column with explicit inner products."""
    return np.array(
        [abs(np.vdot(basis_columns[:, j], psi)) ** 2 for j in range(basis_columns.shape[1])]
    )


def operator_span_rank(operators, tol: float = 1e-8) -> int:
    """Rank of the linear span of matrices via their Gram matrix."""
    vecs = np.array([op.reshape(-1) for op in operators])
    gram = vecs @ vecs.conj().T
    return int(np.sum(np.linalg.svd(gram, compute_uv=False) > tol))


def readout_operators_loop(branch_matrix: np.ndarray, d_s: int, d_a: int, probe: np.ndarray) -> list:
    """K_a^dag K_a for each apparatus reading a, K_a = (I (x) <a|) U (I (x) |probe>), by np.kron."""
    lift = dense_kron(np.eye(d_s), probe.reshape(d_a, 1))
    ops = []
    for a in range(d_a):
        k = dense_kron(np.eye(d_s), np.eye(d_a)[a : a + 1]) @ branch_matrix @ lift
        ops.append(k.conj().T @ k)
    return ops


def pauli_projectors():
    """Rank-1 projectors of the three qubit Pauli eigenbases."""
    z0 = np.array([1, 0], dtype=complex)
    z1 = np.array([0, 1], dtype=complex)
    x0 = np.array([1, 1], dtype=complex) / np.sqrt(2)
    x1 = np.array([1, -1], dtype=complex) / np.sqrt(2)
    y0 = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    y1 = np.array([1, -1j], dtype=complex) / np.sqrt(2)
    return {
        "Z": [np.outer(v, v.conj()) for v in (z0, z1)],
        "X": [np.outer(v, v.conj()) for v in (x0, x1)],
        "Y": [np.outer(v, v.conj()) for v in (y0, y1)],
    }


def schedule_walk(segments, state, t, evolve):
    """State at absolute time t, replaying every segment from t = 0.

    ``segments`` holds (duration, hamiltonian) pairs evolved back to back and
    ``evolve(h, state, step)`` is one closed-form segment step.  t lies in the
    first segment whose end, the exact sum of the durations up to it, is at
    or past t; each earlier segment is stepped for its full duration and that
    one for the rest of t, clamped to [0, duration].
    """
    remaining = t
    current = state
    for k, (duration, h) in enumerate(segments):
        if math.fsum(d for d, _ in segments[: k + 1]) >= t:
            return evolve(h, current, min(max(remaining, 0.0), duration))
        current = evolve(h, current, duration)
        remaining -= duration
    raise ValueError(f"schedule is shorter than requested time {t}")
