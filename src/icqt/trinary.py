"""Trinary (programming / system / apparatus) states and programmed unitaries.

A trinary state lives on P x S x A with composite index
``(p * d_s + s) * d_a + a``.  A programmed unitary is a family of d_P
pointer measurements on S x A, one per programming basis state; it is
stored as their branch bases, and no matrix of it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    DimensionError,
    StateVector,
    branch_schmidt_coefficients,
    entanglement_entropy,
    is_unitary_matrix,
    shannon_entropy,
)
from .serialize import _echo, _is_int

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
    """Dimension triple (d_s, d_a, d_p), each an integer (``_is_int``) >= 1 kept as its
    ``int`` so that ``total`` cannot wrap (else ``DimensionError``), with validity predicates."""

    d_s: int
    d_a: int
    d_p: int

    def __post_init__(self):
        for name in ("d_s", "d_a", "d_p"):
            d = getattr(self, name)
            if not _is_int(d) or d < 1:
                raise DimensionError(f"{name} must be an integer >= 1, got {_echo(d)}")
            object.__setattr__(self, name, int(d))

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
        raise DimensionError(f"{what} must be a {_echo(dim)}x{_echo(dim)} matrix of basis columns")
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
    raise ValueError(f"unknown basis name {_echo(name)}")


@dataclass(frozen=True)
class ProgrammedUnitary:
    """Pointer program {(|r,P>, U_r)}, held as its branch bases only.

    On programming state r it applies U_r = sum_j |b_j><b_j| (x) X^j, with b_j the
    columns of ``bases[r]`` and X|k> = |k+1 mod d_a> the pointer shift, so applying
    U_r to |psi> (x) |0,A> leaves the apparatus pointing at the measured basis index.
    ``bases`` becomes a read-only (d_p, d_s, d_s) stack of checked bases, and no
    matrix of U_r is built.
    """

    dims: TrinaryDims
    bases: np.ndarray

    def __post_init__(self):
        dims = self.dims
        if len(self.bases) != dims.d_p:
            raise BranchCountError(
                f"need {_echo(dims.d_p)} branch bases, got {len(self.bases)}"
            )
        if dims.d_a < dims.d_s:
            raise PointerCapacityError(
                f"apparatus dim {_echo(dims.d_a)} < system dim {_echo(dims.d_s)}: "
                "not enough pointer positions"
            )
        bases = np.stack([_check_orthonormal(b, dims.d_s, "pointer basis") for b in self.bases])
        bases.setflags(write=False)
        object.__setattr__(self, "bases", bases)


def build_programmed_unitary(
    dims: TrinaryDims, branch_bases: Sequence[np.ndarray]
) -> ProgrammedUnitary:
    """Programmed unitary whose branch r pointer-measures branch_bases[r]."""
    return ProgrammedUnitary(dims, branch_bases)


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
                f"dense dim {self.dense.dim} != d_p*d_s*d_a = {_echo(self.dims.total)}"
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
                f"branch pairs give shape {rows.shape}, expected {_echo((dims.d_p, dims.d_sa))}"
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
    ``np.kron(chi, np.kron(psi, phi))``: numpy's kron is this one broadcast product.

    A float64 ``out`` takes the product of the factors' real parts, which is the real
    part of the complex one bit for bit when every factor is real (a b - 0 0 = a b).
    """
    p, s, a = (v.amplitudes if np.iscomplexobj(out) else v.amplitudes.real for v in (chi, psi, phi))
    sa = np.kron(s, a)
    np.multiply(p[:, None], sa, out=out.reshape(p.size, sa.size))


def _weights(rows: np.ndarray) -> np.ndarray:
    """|g_r|^2 of each row of a stack of amplitude rows, complex or real; a real row's
    squares are the squares of its moduli bit for bit, without a modulus array."""
    moduli = np.abs(rows) if np.iscomplexobj(rows) else rows
    return np.sum(moduli * moduli, axis=1)


def _empty(weights: np.ndarray) -> np.ndarray:
    """icqt's one emptiness rule: a row is empty iff its ``_weights`` entry is at most
    EMPTY_BRANCH_TOL."""
    return weights <= EMPTY_BRANCH_TOL


def _row_norms(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The 2-norm of every row of a complex or real stack as a (k, 1) column, inf for an
    empty row.

    ``weights`` are the rows' ``_weights``.  The norm is ``np.linalg.norm(row)`` bit for
    bit: both are sqrt(re . re + im . im), or sqrt(x . x) for a real row, from BLAS dot
    products, here batched over the rows (strided views of a complex stack's parts).
    """
    if np.iscomplexobj(rows):
        re, im = rows.real, rows.imag
        squares = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    else:
        squares = rows[:, None, :] @ rows[:, :, None]
    norms = np.sqrt(squares)[:, 0]
    norms[_empty(weights)] = np.inf
    return norms


def _unit_rows(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Every row of a stack over its own 2-norm (``_row_norms``), in the stack's dtype; an
    empty row becomes zeros (over inf).  Complex rows are divided by the norm, as
    ``branch_state`` reads them; float64 rows are scaled by ``1 / norm``."""
    norms = _row_norms(rows, weights)
    return rows / norms if np.iscomplexobj(rows) else rows * (1.0 / norms)


def branch_spectra(state: TrinaryState) -> np.ndarray:
    """S|A Schmidt coefficients of every row over its own norm, in one batched SVD.

    The rows are normalized as ``branch_state`` normalizes them; an empty one gets zeros.
    """
    return _branch_spectra(state.dims, state.as_matrix(), state.branch_weights())


def _branch_spectra(dims: TrinaryDims, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``branch_spectra`` of the (d_p, d_sa) amplitude rows ``rows``, given their
    ``_weights``, so callers take them once.  The unit rows and the SVD keep the dtype
    of ``rows``, complex128 or float64."""
    return branch_schmidt_coefficients(_unit_rows(rows, weights), (dims.d_s, dims.d_a))


def branch_entropies(spectra: np.ndarray) -> np.ndarray:
    """S|A entropy (nats) of each branch from its row of ``branch_spectra``, in one pass."""
    return shannon_entropy(spectra * spectra)


def dual_entropies(state: TrinaryState) -> tuple[float, np.ndarray]:
    """P|(SA) entropy plus each nonempty branch's S|A entropy (0 when empty)."""
    dims = state.dims
    s_psa = entanglement_entropy(state.dense, (dims.d_p, dims.d_sa))
    return s_psa, branch_entropies(branch_spectra(state))


def _shift_index(dims: TrinaryDims) -> np.ndarray:
    """The (d_s, d_a) index (a - j) mod d_a: X^j moves apparatus entry (a - j) mod d_a to a."""
    return (np.arange(dims.d_a) - np.arange(dims.d_s)[:, None]) % dims.d_a


def apply_programmed(pu: ProgrammedUnitary, state: TrinaryState) -> TrinaryState:
    """Apply a programmed unitary in three batched moves over the (d_s, d_a) rows: rotate
    row r into its pointer frame (B_r^dagger), shift its line j by j along A with one
    gather, and rotate back (B_r).  O(d_p d_s^2 d_a) time; no matrix of U_r is built."""
    if pu.dims != state.dims:
        raise DimensionError("programmed unitary and state dims differ")
    dims = state.dims
    out = np.empty(dims.total, dtype=complex)
    rows = out.reshape(dims.d_p, dims.d_s, dims.d_a)  # the result's buffer holds the frames
    np.matmul(pu.bases.conj().swapaxes(1, 2), state.as_matrix().reshape(rows.shape), out=rows)
    np.matmul(pu.bases, rows[:, np.arange(dims.d_s)[:, None], _shift_index(dims)], out=rows)
    return TrinaryState.from_dense(dims, StateVector._owning(out))


def pointer_readout_operators(pu: ProgrammedUnitary, probe_a: StateVector) -> np.ndarray:
    """Induced system measurement operators of every branch, as a (d_p, d_a, d_s, d_s) stack.

    Entry [r, a] is K^dag K with K = (I (x) <a|) U_r (I (x) |probe_a>), i.e.
    the probability operator for the pointer of branch r to land on ``a``
    when the apparatus starts in the probe state.  For U_r = sum_j |b_j><b_j| (x) X^j
    it is sum_j |probe[(a - j) mod d_a]|^2 |b_j><b_j|, taken here from the bases:
    for a basis probe, exactly the projectors onto the measured basis.
    """
    dims = pu.dims
    if probe_a.dim != dims.d_a:
        raise DimensionError("probe state must live on the apparatus")
    weights = (np.abs(probe_a.amplitudes) ** 2)[_shift_index(dims).T]  # (d_a, d_s)
    b = pu.bases[:, None]
    return (b * weights[:, None, :]) @ b.conj().swapaxes(2, 3)


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
