"""Trinary (programming / system / apparatus) states and programmed unitaries.

A trinary state lives on P x S x A with composite index
``(p * d_s + s) * d_a + a``.  A programmed unitary is a family of d_P
unitary blocks on S x A, one per programming basis state; it is stored as
blocks and only densified on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    DimensionError,
    Operator,
    StateVector,
    branch_schmidt_coefficients,
    entanglement_entropy,
    is_unitary_matrix,
    shannon_entropy,
)

GRAM_RANK_TOL = 1e-8
EMPTY_BRANCH_TOL = 1e-14


class PointerCapacityError(ValueError):
    """Apparatus has fewer levels than the measured system needs."""


class BranchCountError(ValueError):
    """Number of program branches does not match the programming dimension."""


class EmptyBranchError(ValueError):
    """Requested branch carries (numerically) zero weight."""


@dataclass(frozen=True)
class TrinaryDims:
    """Dimension triple (d_s, d_a, d_p) with the validity predicates."""

    d_s: int
    d_a: int
    d_p: int

    def __post_init__(self):
        for name in ("d_s", "d_a", "d_p"):
            if getattr(self, name) < 1:
                raise DimensionError(f"{name} must be positive")

    @property
    def d_sa(self) -> int:
        return self.d_s * self.d_a

    @property
    def total(self) -> int:
        return self.d_p * self.d_s * self.d_a

    @property
    def measurability_valid(self) -> bool:
        """Programming side matches the programmed side: d_p = d_s*d_a, d_a = d_s."""
        return self.d_p == self.d_s * self.d_a and self.d_a == self.d_s

    @property
    def minimal_complete(self) -> bool:
        """Programming space can address a complete operator set: d_p >= d_s^2."""
        return self.d_p >= self.d_s * self.d_s


def _check_orthonormal(basis: np.ndarray, dim: int, what: str) -> np.ndarray:
    """``basis`` as an owned, read-only complex copy, checked to be dim x dim and unitary."""
    b = np.array(basis, dtype=complex)
    if b.shape != (dim, dim):
        raise DimensionError(f"{what} must be a {dim}x{dim} matrix of basis columns")
    if not is_unitary_matrix(b):
        raise ValueError(f"{what} columns are not orthonormal")
    b.setflags(write=False)
    return b


def standard_basis(name: str, dim: int) -> np.ndarray:
    """Named measurement basis as a matrix of columns.

    Z is the computational basis for any dim; X is the Fourier basis
    (the Hadamard basis at dim 2); Y exists for dim 2 only.
    """
    if name == "Z":
        return np.eye(dim, dtype=complex)
    if name == "X":
        j = np.arange(dim)
        b = np.exp(2j * np.pi * np.outer(j, j) / dim)
        quarters = 4 * (np.outer(j, j) % dim)  # the phase in quarter turns, times dim
        exact = quarters % dim == 0  # entries that are exactly +-1 or +-i
        b[exact] = np.array([1, 1j, -1, -1j])[quarters[exact] // dim]
        return b / np.sqrt(dim)
    if name == "Y":
        if dim != 2:
            raise ValueError("Y basis is only defined for dim 2")
        return np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
    raise ValueError(f"unknown basis name {name!r}")


def cyclic_shift(dim: int) -> Operator:
    """The pointer shift X with X|k> = |k+1 mod dim>."""
    x = np.zeros((dim, dim), dtype=complex)
    x[(np.arange(dim) + 1) % dim, np.arange(dim)] = 1.0
    return Operator(x)


def build_pointer_measurement(basis: np.ndarray, d_a: int) -> Operator:
    """Pointer-measurement unitary sum_j |b_j><b_j| (x) X^j on S x A.

    The apparatus realizes the momentum-shift pointer as a cyclic shift, so
    applying the result to |psi> (x) |0,A> leaves the apparatus pointing at
    the measured basis index.
    """
    d_s = len(basis)
    if d_a < d_s:
        raise PointerCapacityError(
            f"apparatus dim {d_a} < system dim {d_s}: not enough pointer positions"
        )
    b = _check_orthonormal(basis, d_s, "pointer basis")
    shift = cyclic_shift(d_a).entries
    u = np.zeros((d_s * d_a, d_s * d_a), dtype=complex)
    power = np.eye(d_a, dtype=complex)
    for j in range(d_s):
        proj = np.outer(b[:, j], b[:, j].conj())
        u += np.kron(proj, power)
        power = shift @ power
    return Operator(u)


@dataclass(frozen=True)
class ProgrammedUnitary:
    """Block family {(|r,P>, U_SA(r))}; one unitary per programming state."""

    dims: TrinaryDims
    branches: tuple[Operator, ...]

    def __post_init__(self):
        if len(self.branches) != self.dims.d_p:
            raise BranchCountError(
                f"got {len(self.branches)} branches for d_p = {self.dims.d_p}"
            )
        for r, u in enumerate(self.branches):
            if u.dim != self.dims.d_sa:
                raise DimensionError(f"branch {r} acts on dim {u.dim}, "
                                     f"expected {self.dims.d_sa}")
            if not u.is_unitary():
                raise ValueError(f"branch {r} is not unitary")

    def densify(self) -> Operator:
        """Full block-diagonal unitary on P x S x A (test/oracle use)."""
        d_p, d_sa = self.dims.d_p, self.dims.d_sa
        full = np.zeros((d_p, d_sa, d_p, d_sa), dtype=complex)
        full[np.arange(d_p), :, np.arange(d_p), :] = [u.entries for u in self.branches]
        return Operator(full.reshape(d_p * d_sa, d_p * d_sa))


def build_programmed_unitary(
    dims: TrinaryDims, branch_bases: Sequence[np.ndarray]
) -> ProgrammedUnitary:
    """Programmed unitary whose branch r pointer-measures branch_bases[r]."""
    if len(branch_bases) != dims.d_p:
        raise BranchCountError(
            f"need {dims.d_p} branch bases, got {len(branch_bases)}"
        )
    branches = tuple(build_pointer_measurement(basis, dims.d_a) for basis in branch_bases)
    return ProgrammedUnitary(dims=dims, branches=branches)


@dataclass(frozen=True)
class TrinaryState:
    """Pure state of P x S x A, held as its amplitudes only.

    Row r of ``as_matrix`` (over the programming basis) is g_r |psi_r,SA>,
    so the matrix is the trinary form sum_r g_r |r,P> (x) |psi_r,SA> and
    every report reads it alone.  The P|(SA) Schmidt form is
    ``schmidt_decompose(dense, (d_p, d_sa))``.
    """

    dims: TrinaryDims
    dense: StateVector

    def __post_init__(self):
        if self.dense.dim != self.dims.total:
            raise DimensionError(
                f"dense dim {self.dense.dim} != d_p*d_s*d_a = {self.dims.total}"
            )

    @staticmethod
    def from_product(
        dims: TrinaryDims, chi: StateVector, psi: StateVector, phi: StateVector
    ) -> TrinaryState:
        """Separable start |chi,P> (x) |psi,S> (x) |phi,A>."""
        if (chi.dim, psi.dim, phi.dim) != (dims.d_p, dims.d_s, dims.d_a):
            raise DimensionError("factor dims do not match TrinaryDims")
        amps = np.empty(dims.total, dtype=complex)
        _product_into(amps, chi, psi, phi)
        return TrinaryState.from_dense(dims, StateVector._owning(amps))

    @staticmethod
    def from_branches(
        dims: TrinaryDims, pairs: Sequence[tuple[complex, StateVector]]
    ) -> TrinaryState:
        """sum_r g_r |r,P> (x) |psi_r,SA> from the pairs (g_r, |psi_r,SA>)."""
        g = np.array([c for c, _ in pairs], dtype=complex)
        rows = g[:, None] * np.array([sa.amplitudes for _, sa in pairs])
        if rows.shape != (dims.d_p, dims.d_sa):
            raise DimensionError(
                f"branch pairs give shape {rows.shape}, expected ({dims.d_p}, {dims.d_sa})"
            )
        return TrinaryState.from_dense(dims, StateVector(rows.reshape(-1)))

    @staticmethod
    def from_dense(dims: TrinaryDims, dense: StateVector) -> TrinaryState:
        return TrinaryState(dims=dims, dense=dense)

    def as_matrix(self) -> np.ndarray:
        """Amplitudes as a (d_p, d_sa) matrix over the programming basis."""
        return self.dense.amplitudes.reshape(self.dims.d_p, self.dims.d_sa)

    def branch_weights(self) -> np.ndarray:
        """|g_r|^2 per programming basis state (rows of the dense state)."""
        return _weights(self.as_matrix())

    def branch_state(self, r: int) -> StateVector:
        """Normalized S x A state conditioned on programming index r."""
        row = self.as_matrix()[r : r + 1]  # a one-row stack keeps this O(d_sa)
        weight = _weights(row)
        if _empty(weight)[0]:
            raise EmptyBranchError(f"branch {r} carries no weight")
        return StateVector(_unit_rows(row, weight)[0])


def _product_into(out: np.ndarray, chi: StateVector, psi: StateVector, phi: StateVector) -> None:
    """Write the amplitudes of |chi> (x) |psi> (x) |phi> into ``out``, bit for bit
    ``np.kron(chi, np.kron(psi, phi))``: numpy's kron is this one broadcast product."""
    sa = np.kron(psi.amplitudes, phi.amplitudes)
    np.multiply(chi.amplitudes[:, None], sa, out=out.reshape(chi.dim, sa.size))


def _weights(rows: np.ndarray) -> np.ndarray:
    """|g_r|^2 of each row of a stack of amplitude rows."""
    return np.sum(np.abs(rows) ** 2, axis=1)


def _empty(weights: np.ndarray) -> np.ndarray:
    """icqt's one emptiness rule: a row is empty iff its ``_weights`` entry is at most
    EMPTY_BRANCH_TOL."""
    return weights <= EMPTY_BRANCH_TOL


def _row_norms(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The 2-norm of every row of a stack as a (k, 1) column, inf for an empty row.

    ``weights`` are the rows' ``_weights``.  The norm is ``np.linalg.norm(row)`` bit for
    bit: both are sqrt(re . re + im . im) from BLAS dot products, here batched over
    strided views of the rows.
    """
    re, im = rows.real, rows.imag
    norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0]
    norms[_empty(weights)] = np.inf
    return norms


def _unit_rows(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Every complex row of a stack over its own 2-norm (``_row_norms``); an empty row
    becomes zeros (over inf).  ``branch_state`` and every complex branch spectrum read it."""
    return rows / _row_norms(rows, weights)


def _real_unit_rows(rows: np.ndarray, weights: np.ndarray) -> np.ndarray | None:
    """The real part of ``_unit_rows(rows, weights)`` bit for bit, as float64, when every
    imaginary part of it is zero; else None.

    For the rows of a unit state (every norm at most 1 within NORM_TOL, so no nonzero
    imaginary part times 1 / c rounds to zero) those imaginary parts are all zero
    exactly when no nonempty row has a nonzero imaginary part (-0.0 is zero; an
    empty row becomes zeros).  numpy divides a complex entry by a real c as
    (re + im * 0.0) * (1 / c), not re / c, so the real rows are built in that
    order, and no complex quotient is formed.
    """
    re, im = rows.real, rows.imag
    if (np.any(im, axis=1) & ~_empty(weights)).any():
        return None
    unit = im * 0.0
    unit += re
    unit *= 1.0 / _row_norms(rows, weights)
    return unit


def branch_spectra(state: TrinaryState) -> np.ndarray:
    """S|A Schmidt coefficients of every row over its own norm, in one batched SVD.

    The rows are normalized as ``branch_state`` normalizes them; an empty one gets zeros.
    """
    return _branch_spectra(state, state.branch_weights())


def _branch_spectra(state: TrinaryState, weights: np.ndarray) -> np.ndarray:
    """``branch_spectra`` given the state's ``branch_weights``, so callers take them once.

    Real unit rows (``_real_unit_rows``) go to the float64 kernel as they are, so the
    stack is never formed in complex; otherwise the complex ``_unit_rows`` go.
    """
    dims = state.dims
    rows = state.as_matrix()
    unit = _real_unit_rows(rows, weights)
    if unit is None:
        unit = _unit_rows(rows, weights)
    return branch_schmidt_coefficients(unit, (dims.d_s, dims.d_a))


def branch_entropies(spectra: np.ndarray) -> np.ndarray:
    """S|A entropy (nats) of each branch from its row of ``branch_spectra``, in one pass."""
    return shannon_entropy(spectra * spectra)


def dual_entropies(state: TrinaryState) -> tuple[float, np.ndarray]:
    """P|(SA) entropy plus each nonempty branch's S|A entropy (0 when empty)."""
    dims = state.dims
    s_psa = entanglement_entropy(state.dense, (dims.d_p, dims.d_sa))
    return s_psa, branch_entropies(branch_spectra(state))


def apply_programmed(pu: ProgrammedUnitary, state: TrinaryState) -> TrinaryState:
    """Apply a programmed unitary block-wise (no full-space matrix is built)."""
    if pu.dims != state.dims:
        raise DimensionError("programmed unitary and state dims differ")
    stack = np.stack([u.entries for u in pu.branches])
    out = stack @ state.as_matrix()[..., None]  # one matrix-vector product per branch
    return TrinaryState.from_dense(state.dims, StateVector(out.reshape(-1)))


def pointer_readout_operators(pu: ProgrammedUnitary, probe_a: StateVector) -> np.ndarray:
    """Induced system measurement operators of every branch, as a (d_p, d_a, d_s, d_s) stack.

    Entry [r, a] is K^dag K with K = (I (x) <a|) U_r (I (x) |probe_a>), i.e.
    the probability operator for the pointer of branch r to land on ``a``
    when the apparatus starts in the probe state.  For a pointer measurement
    these are exactly the projectors onto the measured basis.
    """
    dims = pu.dims
    if probe_a.dim != dims.d_a:
        raise DimensionError("probe state must live on the apparatus")
    u = np.stack([b.entries for b in pu.branches])
    u = u.reshape(dims.d_p, dims.d_s, dims.d_a, dims.d_s, dims.d_a)
    # K_{r,a}[s_out, s_in] = sum_a_in U_r[s_out, a, s_in, a_in] probe[a_in]
    kraus = np.einsum("riasb,b->rias", u, probe_a.amplitudes)
    return np.einsum("rias,riat->rast", kraus.conj(), kraus)


@dataclass(frozen=True)
class CompletenessReport:
    """Outcome of the informational-completeness validation."""

    dims_ok: bool
    minimal_dims_ok: bool
    tomographic_rank: int
    complete: bool


def validate_informational_completeness(
    pu: ProgrammedUnitary, probe_a: StateVector | None = None
) -> CompletenessReport:
    """Check whether the program suffices to measure a complete operator set.

    The induced measurement operators E of every branch are taken in one
    batched pass, and the rank of the d_s^2 x d_s^2 frame operator
    F = sum_E vec(E) vec(E)^dag (the rank of their span) is compared against
    d_s^2.  Both dimension predicates are reported separately.
    """
    dims = pu.dims
    if probe_a is None:
        probe_a = StateVector.basis(dims.d_a, 0)
    ops = pointer_readout_operators(pu, probe_a).reshape(-1, dims.d_s * dims.d_s)
    frame = ops.T @ ops.conj()
    rank = int(np.sum(np.linalg.eigvalsh(frame) > GRAM_RANK_TOL))
    dims_ok = dims.measurability_valid
    return CompletenessReport(
        dims_ok=dims_ok,
        minimal_dims_ok=dims.minimal_complete,
        tomographic_rank=rank,
        complete=bool(dims_ok and rank >= dims.d_s * dims.d_s),
    )
