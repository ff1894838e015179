"""Dual Born rule extraction.

Decision probabilities are the squared branch weights of a trinary state in
the programming basis (the diagonal of the reduced state on P); outcome
probabilities inside a branch are the squared Schmidt coefficients of the
branch state across the S|A cut.  Nothing here samples anything: the output
is exact probability tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import StateVector, schmidt_decompose
from .trinary import EMPTY_BRANCH_TOL, TrinaryState, branch_spectra

CLAMP_TOL = 1e-12
DEGENERACY_TOL = 1e-8


class EmptyBranchError(ValueError):
    """Requested branch carries (numerically) zero weight."""


def _clamp(p: np.ndarray) -> np.ndarray:
    if np.min(p) < -CLAMP_TOL:
        raise ValueError("probability below the round-off clamp window")
    return np.where(p < 0, 0.0, p)


def decision_probabilities(state: TrinaryState) -> np.ndarray:
    """Probability of each programmed operation: |g_r|^2 per programming state."""
    return _clamp(state.branch_weights())


@dataclass(frozen=True)
class OutcomeTable:
    """Per-branch outcome statistics.

    ``probabilities`` are descending squared Schmidt coefficients padded with
    zeros to d_s; column k of ``measured_basis`` (d_s x min(d_s, d_a)) is the
    S-side Schmidt vector of probability k.  ``degenerate`` flags repeated
    Schmidt values, in which case the basis is not unique and should not be
    read as a sharp observable.
    """

    probabilities: np.ndarray
    measured_basis: np.ndarray
    degenerate: bool


def _outcome_row(coefficients: np.ndarray, d_s: int) -> tuple[np.ndarray, bool]:
    """A branch's outcome probabilities, padded to d_s, and its degeneracy flag."""
    probs = _clamp(coefficients**2)
    padded = np.zeros(d_s)
    padded[: probs.size] = probs
    nonzero = coefficients[coefficients > EMPTY_BRANCH_TOL]
    return padded, bool(np.any(np.abs(np.diff(nonzero)) < DEGENERACY_TOL))


def outcome_probabilities(state: TrinaryState, branch: int) -> OutcomeTable:
    """Outcome distribution of the measurement carried by one branch."""
    row = state.as_matrix()[branch]
    if np.sum(np.abs(row) ** 2) <= EMPTY_BRANCH_TOL:
        raise EmptyBranchError(f"branch {branch} carries no weight")
    sa = state.branch_state(branch)
    sd = schmidt_decompose(sa, (state.dims.d_s, state.dims.d_a))
    probs, degenerate = _outcome_row(sd.coefficients, state.dims.d_s)
    return OutcomeTable(
        probabilities=probs,
        measured_basis=sd.u,
        degenerate=degenerate,
    )


def conventional_oracle(psi_s: StateVector, basis: np.ndarray) -> np.ndarray:
    """Textbook Born rule |<b_j|psi>|^2, the reference the dual rule must match."""
    b = np.asarray(basis, dtype=complex)
    if b.shape != (psi_s.dim, psi_s.dim):
        raise ValueError("basis must be a square matrix of columns on S")
    amps = b.conj().T @ psi_s.amplitudes
    return _clamp(np.abs(amps) ** 2)


@dataclass(frozen=True)
class DualBornReport:
    """Decision row plus one outcome row per branch.

    Branches with no weight get an all-zero outcome row and an ``empty``
    flag instead of an error, so a report exists for every state.
    """

    decision_probs: np.ndarray
    outcome_probs: np.ndarray  # shape (d_p, d_s)
    degenerate: tuple[bool, ...]
    empty: tuple[bool, ...]


def dual_born_report(state: TrinaryState) -> DualBornReport:
    """Assemble the full dual-probability report for a trinary state.

    Row r holds the probabilities of ``outcome_probabilities(state, r)``
    within the bound documented in ``linalg._singular_values`` (a
    values-only SVD against the full one), read from the amplitudes alone:
    every branch spectrum comes from one ``branch_spectra`` pass over the rows.
    """
    return _dual_born_report(state, branch_spectra(state))


def _dual_born_report(state: TrinaryState, spectra: np.ndarray) -> DualBornReport:
    """``dual_born_report`` from the Schmidt coefficients of every branch state."""
    d_p, d_s = state.dims.d_p, state.dims.d_s
    decision = decision_probabilities(state)
    empty = tuple(bool(w <= EMPTY_BRANCH_TOL) for w in decision)
    outcome = np.zeros((d_p, d_s))
    degenerate = [False] * d_p
    for r in range(d_p):
        if not empty[r]:
            outcome[r], degenerate[r] = _outcome_row(spectra[r], d_s)
    return DualBornReport(
        decision_probs=decision,
        outcome_probs=outcome,
        degenerate=tuple(degenerate),
        empty=empty,
    )
