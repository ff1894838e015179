"""Seeded property battery over the whole library.

Each battery returns a PropertyResult with the worst measured deviation and
its threshold; the CLI ``suite`` subcommand serializes them and fails the
process if any battery fails.  All randomness is derived from one root seed
through fixed per-battery splits, so a given (scenario, seed) pair always
reproduces the same numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .born import decision_probabilities, dual_born_report, textbook_comparison
from .dynamics import (
    DensePropagator,
    _checked_propagator,
    check_pmc,
    entanglement_trajectory,
    evolve_full,
    evolve_programmed_block,
    random_block_structure,
    random_trinary_hamiltonian,
)
from .icqc import GateOp, IcqcConfig, apply_programmed_op, random_program, run, tomographic_program_n1
from .linalg import (
    StateVector,
    entanglement_entropy,
    hermitian_propagator,
    schmidt_decompose,
    seeded_random,
    shannon_entropy,
    subseed,
)
from .serialize import _echo, _is_int
from .trinary import (
    TrinaryDims,
    TrinaryState,
    apply_programmed,
    build_programmed_unitary,
    standard_basis,
)

FACTORIZATION_TOL = 1e-9
CONVERSE_MIN_DEVIATION = 1e-6
BORN_TOL = 1e-10
ENTROPY_TOL = 1e-9
SCHMIDT_TOL = 1e-10
CREATION_MIN = 1e-6

DEFAULT_DIMS = (TrinaryDims(2, 2, 4), TrinaryDims(3, 3, 9))
SQUARE_D = (2, 3)  # d of the (d, d) block and (d, d, d^2) Born batteries
EVOLUTION_TIMES = (0.1, 0.5, 1.0, 2.0)
# Each battery's case count in ``run_property_suite``, keyed by the keyword that overrides it
DEFAULT_COUNTS = {
    "factorization_cases": 50,  # per dims
    "converse_cases": 10,
    "block_cases": 50,  # per d of SQUARE_D
    "born_cases": 100,  # per d of SQUARE_D
    "creation_cases": 20,
    "shannon_cases": 100,
    "schmidt_roundtrips": 1000,
}


def _check_options(dims_list=DEFAULT_DIMS, **counts) -> None:
    """The option rule over ``run_property_suite``'s keywords: ``dims_list`` holds at least one
    dims, each with 2 <= d_p (at d_p = 1 no P|(SA) entanglement exists for the creation
    battery to find) and d_p <= d_s*d_a (the Shannon battery draws d_p orthonormal S x A
    states), and each count has a DEFAULT_COUNTS name and is an integer >= 1 (``_is_int``)."""
    if not dims_list:
        raise ValueError("dims_list must be a nonempty list of [d_s, d_a, d_p]")
    for i, d in enumerate(dims_list):
        if d.d_p < 2:
            raise ValueError(f"dims_list[{i}]: d_p {d.d_p} < 2: no P|(SA) entanglement to create")
        if d.d_p > d.d_sa:
            d_p, d_sa = _echo(d.d_p), _echo(d.d_sa)
            raise ValueError(f"dims_list[{i}]: d_p {d_p} > d_s*d_a {d_sa}: too few S x A states")
    unknown = sorted(set(counts) - set(DEFAULT_COUNTS))
    if unknown:
        raise TypeError(f"run_property_suite() got unknown counts {unknown}")
    for name, count in counts.items():
        if not _is_int(count) or count < 1:
            raise ValueError(f"{name} must be a positive integer")


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    worst: float
    threshold: float
    cases: int
    elapsed_s: float
    notes: str = ""


def _result(
    name: str, worst: float, threshold: float, cases: int, t0: float,
    passed: bool | None = None, notes: str = "",
) -> PropertyResult:
    """A battery's result, timed from its start ``t0``: it passes when ``worst <= threshold``
    unless the battery gives its own verdict ``passed``."""
    return PropertyResult(
        name=name,
        passed=worst <= threshold if passed is None else passed,
        worst=worst,
        threshold=threshold,
        cases=cases,
        elapsed_s=time.perf_counter() - t0,
        notes=notes,
    )


def _random_separable(dims: TrinaryDims, seed: int) -> TrinaryState:
    return TrinaryState.from_product(
        dims,
        seeded_random("state", dims.d_p, subseed(seed, 1)),
        seeded_random("state", dims.d_s, subseed(seed, 2)),
        seeded_random("state", dims.d_a, subseed(seed, 3)),
    )


def factorization_battery(
    seed: int, cases_per_dims: int, dims_list=DEFAULT_DIMS
) -> PropertyResult:
    """Factorized evolution must match the dense propagator when pmc holds."""
    t0 = time.perf_counter()
    worst = 0.0
    for d_idx, dims in enumerate(dims_list):
        for i in range(cases_per_dims):
            kind = "pmc" if i % 2 == 0 else "coupled"
            h = random_trinary_hamiltonian(dims, subseed(seed, 10, d_idx, i), kind=kind)
            fact = _checked_propagator(check_pmc(h), h)
            state = TrinaryState.from_dense(
                dims, seeded_random("state", dims.total, subseed(seed, 11, d_idx, i))
            )
            full = DensePropagator(h)
            for t in EVOLUTION_TIMES:
                a = full.evolve(state, t).dense.amplitudes
                b = fact.evolve(state, t).dense.amplitudes
                worst = max(worst, float(np.max(np.abs(a - b))))
    return _result("factorization", worst, FACTORIZATION_TOL, len(dims_list) * cases_per_dims, t0)


def converse_battery(seed: int, cases: int) -> PropertyResult:
    """With pmc violated, the unchecked factorized formula must visibly diverge."""
    t0 = time.perf_counter()
    dims = DEFAULT_DIMS[0]
    smallest = np.inf
    for i in range(cases):
        h = random_trinary_hamiltonian(dims, subseed(seed, 20, i), kind="violating")
        state = TrinaryState.from_dense(
            dims, seeded_random("state", dims.total, subseed(seed, 21, i))
        )
        a = evolve_full(h, state, 1.0).dense.amplitudes
        b = h.propagator().evolve(state, 1.0).dense.amplitudes
        smallest = min(smallest, float(np.max(np.abs(a - b))))
    return _result(
        "converse-probe", smallest, CONVERSE_MIN_DEVIATION, cases, t0,
        passed=smallest > CONVERSE_MIN_DEVIATION,
        notes="worst is the smallest forced-factorized deviation; it must exceed the threshold",
    )


def block_battery(seed: int, cases_per_dim: int) -> PropertyResult:
    """Second-level factorized block evolution vs the dense block exponential."""
    t0 = time.perf_counter()
    worst = 0.0
    for d in SQUARE_D:
        for i in range(cases_per_dim):
            kind = "sapmc" if i % 2 == 0 else "shared"
            block = random_block_structure(d, d, subseed(seed, 30, d, i), kind=kind)
            sa = seeded_random("state", d * d, subseed(seed, 31, d, i))
            t = 0.1 + 1.9 * (i / max(1, cases_per_dim - 1))
            got = evolve_programmed_block(block, sa, t).amplitudes
            want = hermitian_propagator(block.assemble(), t).apply(sa).amplitudes
            worst = max(worst, float(np.max(np.abs(got - want))))
    cases = len(SQUARE_D) * cases_per_dim
    return _result("block-factorization", worst, FACTORIZATION_TOL, cases, t0)


def _branch_basis_set(d: int, d_p: int, seed: int) -> list[np.ndarray]:
    """d_p measurement bases: Z, Fourier, Y at d=2, the rest seeded random."""
    bases = [standard_basis("Z", d), standard_basis("X", d)]
    if d == 2:
        bases.append(standard_basis("Y", d))
    k = 0
    while len(bases) < d_p:
        bases.append(seeded_random("unitary", d, subseed(seed, 40, k)).entries)
        k += 1
    return bases[:d_p]


def born_battery(seed: int, cases_per_dim: int) -> PropertyResult:
    """Branch-wise emergence of the textbook Born rule, plus decision weights."""
    t0 = time.perf_counter()
    worst = 0.0
    for d in SQUARE_D:
        dims = TrinaryDims(d, d, d * d)
        bases = _branch_basis_set(d, dims.d_p, subseed(seed, 41, d))
        pu = build_programmed_unitary(dims, bases)
        for i in range(cases_per_dim):
            psi = seeded_random("state", d, subseed(seed, 42, d, i))
            rng = np.random.default_rng(subseed(seed, 43, d, i))
            g = rng.normal(size=dims.d_p) + 1j * rng.normal(size=dims.d_p)
            chi = StateVector(g / np.linalg.norm(g))
            state = apply_programmed(
                pu,
                TrinaryState.from_product(dims, chi, psi, StateVector.basis(d, 0)),
            )
            report = dual_born_report(state)
            dec = report.decision_probs
            worst = max(worst, float(np.max(np.abs(dec - np.abs(chi.amplitudes) ** 2))))
            worst = max(worst, textbook_comparison(report, psi, bases)[1])
    return _result("born-emergence", worst, BORN_TOL, len(SQUARE_D) * cases_per_dim, t0)


def bounds_and_creation_battery(seed: int, cases: int, dims_list=DEFAULT_DIMS) -> PropertyResult:
    """Entropy bounds along trajectories plus entanglement creation at t=0.1; each
    trajectory's factorized walk must stay within FACTORIZATION_TOL of the dense one."""
    t0 = time.perf_counter()
    weakest_creation = np.inf
    worst_bound = 0.0
    deviations = []
    times = (0.0, 0.05, 0.1)
    for i in range(cases):
        dims = dims_list[i % len(dims_list)]
        h = random_trinary_hamiltonian(dims, subseed(seed, 50, i), kind="pmc")
        state = _random_separable(dims, subseed(seed, 51, i))
        traj = entanglement_trajectory([(np.inf, h)], state, times)
        worst_bound = max(
            worst_bound,
            float(np.max(traj.s_psa) - np.log(dims.d_p)),
            float(np.max(traj.s_sa_branches) - np.log(dims.d_s)),
            float(-np.min(traj.s_psa)),
            float(-np.min(traj.s_sa_branches)),
        )
        weakest_creation = min(weakest_creation, float(traj.s_psa[-1]))
        deviations.append(traj.max_deviation)
    passed = (
        weakest_creation > CREATION_MIN and worst_bound <= ENTROPY_TOL
        and all(d <= FACTORIZATION_TOL for d in deviations)
    )
    return _result(
        "bounds-and-creation", weakest_creation, CREATION_MIN, cases, t0, passed=passed,
        notes=f"worst is the smallest S_PSA(0.1); max bound excess {worst_bound:.3e}",
    )


def shannon_identity_battery(seed: int, cases: int, dims_list=DEFAULT_DIMS) -> PropertyResult:
    """Shannon entropy of the decision row equals the P|(SA) entanglement."""
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(cases):
        dims = dims_list[i % len(dims_list)]
        basis = seeded_random("unitary", dims.d_sa, subseed(seed, 60, i)).entries
        rng = np.random.default_rng(subseed(seed, 61, i))
        g = np.sort(np.abs(rng.normal(size=dims.d_p)))[::-1]
        g = g / np.linalg.norm(g)
        pairs = [(complex(g[r]), StateVector(basis[:, r])) for r in range(dims.d_p)]
        state = TrinaryState.from_branches(dims, pairs)
        lhs = shannon_entropy(decision_probabilities(state))
        rhs = entanglement_entropy(state.dense, (dims.d_p, dims.d_sa))
        worst = max(worst, abs(lhs - rhs))
    return _result("shannon-identity", worst, ENTROPY_TOL, cases, t0)


def schmidt_battery(seed: int, roundtrips: int) -> PropertyResult:
    """Decompose/reconstruct roundtrips and local-unitary entropy invariance."""
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(subseed(seed, 70))
    for i in range(roundtrips):
        d_l = int(rng.integers(2, 9))
        d_r = int(rng.integers(2, 9))
        psi = seeded_random("state", d_l * d_r, subseed(seed, 71, i))
        sd = schmidt_decompose(psi, (d_l, d_r))
        worst = max(
            worst, float(np.max(np.abs(sd.reconstruct().amplitudes - psi.amplitudes)))
        )
        if i % 10 == 0:
            u_l = seeded_random("unitary", d_l, subseed(seed, 72, i)).entries
            u_r = seeded_random("unitary", d_r, subseed(seed, 73, i)).entries
            # (U_l (x) U_r) psi is U_l M U_r^T on the (d_l, d_r) cut matrix M of psi
            rotated = StateVector((u_l @ psi.amplitudes.reshape(d_l, d_r) @ u_r.T).reshape(-1))
            drift = abs(
                entanglement_entropy(rotated, (d_l, d_r))
                - entanglement_entropy(psi, (d_l, d_r))
            )
            if drift > ENTROPY_TOL:
                worst = max(worst, drift)
    return _result("schmidt-roundtrip", worst, SCHMIDT_TOL, roundtrips, t0)


def icqc_battery(seed: int) -> PropertyResult:
    """Register law, n=1 circuits-vs-pointer-program equivalence, n=2 run health."""
    t0 = time.perf_counter()
    worst = 0.0
    # register law must reject bad sizes
    law_enforced = False
    try:
        IcqcConfig(n=1, program_table=tuple([()] * 4), n_a=2)
    except ValueError:
        law_enforced = True
    # n = 1: the tomographic circuits vs the Z, X, Y, Z pointer program
    config = IcqcConfig(n=1, program_table=tomographic_program_n1())
    state = TrinaryState.from_dense(config.dims, seeded_random("state", 16, subseed(seed, 80)))
    got = apply_programmed_op(state, config)
    bases = [standard_basis(b, 2) for b in ("Z", "X", "Y", "Z")]
    want = apply_programmed(build_programmed_unitary(config.dims, bases), state)
    worst = max(worst, float(np.max(np.abs(got.dense.amplitudes - want.dense.amplitudes))))
    # n = 2: full run with a seeded 16-branch circuit program
    program = random_program(2, 3, np.random.default_rng(subseed(seed, 81)))
    gates = (GateOp("H", (("S", 0),)), GateOp("CNOT", (("S", 0), ("A", 0))))
    report = run(IcqcConfig(n=2, gate_sequence=gates, program_table=program))
    live = ~np.array(report.born.empty)
    sums = [np.sum(report.born.decision_probs), *report.born.outcome_probs[live].sum(axis=1)]
    worst = max(worst, float(np.max(np.abs(np.array(sums) - 1.0))))
    return _result(
        "icqc-structure", worst, FACTORIZATION_TOL, 3, t0,
        passed=law_enforced and worst <= FACTORIZATION_TOL,
        notes="register law enforced" if law_enforced else "register law NOT enforced",
    )


def run_property_suite(seed: int, dims_list=DEFAULT_DIMS, **counts: int) -> list[PropertyResult]:
    """Every battery in report order; ``counts`` override entries of DEFAULT_COUNTS by name,
    after the option rule (``_check_options``) and before any battery runs."""
    _check_options(dims_list, **counts)
    c = {**DEFAULT_COUNTS, **counts}
    return [
        factorization_battery(seed, c["factorization_cases"], dims_list),
        converse_battery(seed, c["converse_cases"]),
        block_battery(seed, c["block_cases"]),
        born_battery(seed, c["born_cases"]),
        bounds_and_creation_battery(seed, c["creation_cases"], dims_list),
        shannon_identity_battery(seed, c["shannon_cases"], dims_list),
        schmidt_battery(seed, c["schmidt_roundtrips"]),
        icqc_battery(seed),
    ]
