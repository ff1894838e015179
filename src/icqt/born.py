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
from .trinary import (
    EMPTY_BRANCH_TOL,
    EmptyBranchError,
    TrinaryDims,
    TrinaryState,
    _branch_spectra,
    _check_orthonormal,
    _empty,
)

DEGENERACY_TOL = 1e-8


def decision_probabilities(state: TrinaryState) -> np.ndarray:
    """Probability of each programmed operation: |g_r|^2 per programming state."""
    return state.branch_weights()


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


def _outcome_rows(spectra: np.ndarray, d_s: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities (padded to d_s) and degeneracy flags of rows of coefficients.

    Coefficients descend, so a row is degenerate iff two neighbours lie within
    DEGENERACY_TOL and the smaller exceeds EMPTY_BRANCH_TOL; a zero row is not.
    """
    probs = np.zeros((len(spectra), d_s))
    probs[:, : spectra.shape[1]] = spectra**2
    close = np.abs(np.diff(spectra, axis=1)) < DEGENERACY_TOL
    return probs, np.any(close & (spectra[:, 1:] > EMPTY_BRANCH_TOL), axis=1)


def outcome_probabilities(state: TrinaryState, branch: int) -> OutcomeTable:
    """Outcome distribution of one branch; EmptyBranchError exactly for an empty one."""
    sa = state.branch_state(branch)
    sd = schmidt_decompose(sa, (state.dims.d_s, state.dims.d_a))
    probs, degenerate = _outcome_rows(sd.coefficients[None], state.dims.d_s)
    return OutcomeTable(probabilities=probs[0], measured_basis=sd.u, degenerate=bool(degenerate[0]))


def conventional_oracle(psi_s: StateVector, basis: np.ndarray) -> np.ndarray:
    """Textbook Born rule |<b_j|psi>|^2, the reference the dual rule must match.  ``basis``
    follows icqt's one basis rule (``_check_orthonormal``): a dim x dim matrix of
    orthonormal columns on S, else ``DimensionError`` or ``ValueError``."""
    b = _check_orthonormal(basis, psi_s.dim, "basis")
    return np.abs(b.conj().T @ psi_s.amplitudes) ** 2


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


def textbook_comparison(report: DualBornReport, psi_s: StateVector, bases: list) -> tuple[np.ndarray, float]:
    """The textbook rows of ``psi_s``, one per branch basis, and the report's distance from them.

    Row r is ``conventional_oracle(psi_s, bases[r])`` sorted descending, as the report's
    outcome rows are.  The distance is the largest entry gap over the nonempty branches
    (0.0 when every branch is empty): an empty branch has no outcome row to compare.
    """
    rows = np.array([np.sort(conventional_oracle(psi_s, b))[::-1] for b in bases])
    live = ~np.array(report.empty)
    return rows, float(np.max(np.abs(report.outcome_probs - rows)[live], initial=0.0))


def dual_born_report(state: TrinaryState) -> DualBornReport:
    """The full dual-probability report of a state, from one ``branch_spectra`` pass.

    Row r holds the probabilities of ``outcome_probabilities(state, r)`` within the bound
    documented in ``linalg._singular_values`` (a values-only SVD against the full one).
    """
    weights = state.branch_weights()
    spectra = _branch_spectra(state.dims, state.as_matrix(), weights)
    return _dual_born_report(state.dims, spectra, weights)


def _dual_born_report(
    dims: TrinaryDims, spectra: np.ndarray, weights: np.ndarray
) -> DualBornReport:
    """``dual_born_report`` from the dims, the Schmidt coefficients and the ``branch_weights``
    of every branch."""
    outcome, degenerate = _outcome_rows(spectra, dims.d_s)
    return DualBornReport(
        decision_probs=weights,
        outcome_probs=outcome,
        degenerate=tuple(bool(x) for x in degenerate),
        empty=tuple(bool(x) for x in _empty(weights)),
    )
