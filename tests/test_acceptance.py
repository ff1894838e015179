"""Acceptance battery: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import time

import numpy as np

from icqt.icqc import GateOp, IcqcConfig, apply_programmed_op, run, tomographic_program_n1
from icqt.linalg import seeded_random
from icqt.suite import (
    block_battery,
    born_battery,
    bounds_and_creation_battery,
    converse_battery,
    factorization_battery,
    schmidt_battery,
    shannon_identity_battery,
)
from icqt.trinary import (
    TrinaryDims,
    TrinaryState,
    build_programmed_unitary,
    standard_basis,
    validate_informational_completeness,
)
from oracles import dense_kron, dense_programmed_matrix, pauli_projectors

SEED = 20260809

FACTORIZATION_TOL = 1e-9
CONVERSE_MIN = 1e-6
BORN_TOL = 1e-10
ENTROPY_TOL = 1e-9
SCHMIDT_TOL = 1e-10


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({detail})")


def test_criterion_1_factorization_theorem():
    result = factorization_battery(SEED, cases_per_dims=50)
    ok = result.passed and result.elapsed_s < 30.0
    report(
        1,
        "factorization theorem",
        ok,
        f"max deviation {result.worst:.3e} <= {FACTORIZATION_TOL:.0e}, "
        f"{result.cases} Hamiltonians x 4 times, {result.elapsed_s:.1f}s < 30s",
    )
    assert result.worst <= FACTORIZATION_TOL
    assert result.elapsed_s < 30.0
    assert result.cases >= 100  # 50 per dims, dims (2,2,4) and (3,3,9)


def test_criterion_2_converse_probe():
    result = converse_battery(SEED, cases=10)
    report(
        2,
        "converse probe",
        result.passed,
        f"smallest forced deviation {result.worst:.3e} > {CONVERSE_MIN:.0e} over {result.cases} cases",
    )
    assert result.cases >= 10
    assert result.worst > CONVERSE_MIN


def test_criterion_3_second_level_factorization():
    result = block_battery(SEED, cases_per_dim=50)
    report(
        3,
        "second-level factorization",
        result.passed,
        f"max deviation {result.worst:.3e} <= {FACTORIZATION_TOL:.0e} over {result.cases} blocks",
    )
    assert result.cases >= 100
    assert result.worst <= FACTORIZATION_TOL


def test_criterion_4_emergent_born_rule():
    result = born_battery(SEED, cases_per_dim=100)
    report(
        4,
        "emergent dual Born rule",
        result.passed,
        f"max deviation {result.worst:.3e} <= {BORN_TOL:.0e} over {result.cases} states (d = 2, 3)",
    )
    assert result.cases >= 200
    assert result.worst <= BORN_TOL


def test_criterion_5_completeness_validator():
    dims = TrinaryDims(2, 2, 4)
    zxyz = build_programmed_unitary(dims, [standard_basis(b, 2) for b in "ZXYZ"])
    rank_zxyz = validate_informational_completeness(zxyz).tomographic_rank
    allz = build_programmed_unitary(dims, [standard_basis("Z", 2)] * 4)
    rank_allz = validate_informational_completeness(allz).tomographic_rank
    bad = build_programmed_unitary(TrinaryDims(2, 2, 3), [standard_basis("Z", 2)] * 3)
    bad_report = validate_informational_completeness(bad)
    ok = rank_zxyz == 4 and rank_allz == 2 and not bad_report.dims_ok
    report(
        5,
        "informational-completeness validator",
        ok,
        f"ZXYZ rank {rank_zxyz} == 4, all-Z rank {rank_allz} == 2, dims (2,2,3) dims_ok {bad_report.dims_ok}",
    )
    assert rank_zxyz == 4
    assert rank_allz == 2
    assert not bad_report.dims_ok


def test_criterion_6_entanglement_bounds_and_creation():
    result = bounds_and_creation_battery(SEED, cases=20)
    report(
        6,
        "entanglement bounds and creation",
        result.passed,
        f"smallest S_PSA(0.1) {result.worst:.3e} > {CONVERSE_MIN:.0e}; {result.notes}",
    )
    assert result.cases >= 20
    assert result.passed


def test_criterion_7_shannon_entanglement_identity():
    result = shannon_identity_battery(SEED, cases=100)
    report(
        7,
        "Shannon-entanglement identity",
        result.passed,
        f"max |Shannon - S_PSA| {result.worst:.3e} <= {ENTROPY_TOL:.0e} over {result.cases} states",
    )
    assert result.cases >= 100
    assert result.worst <= ENTROPY_TOL


def test_criterion_8_icqc_structure():
    # register law
    law = False
    try:
        IcqcConfig(n=1, program_table=tuple([()] * 4), n_a=2)
    except ValueError:
        law = True
    # n = 1: the tomographic branch circuits vs the dense 16x16 block-diagonal
    # matrix of their pointer unitaries sum_j P_j (x) X^j, built here
    config = IcqcConfig(n=1, program_table=tomographic_program_n1())
    state = TrinaryState.from_dense(config.dims, seeded_random("state", 16, SEED))
    got = apply_programmed_op(state, config)
    shift_powers = (np.eye(2), np.array([[0, 1], [1, 0]]))
    pointers = [
        sum(dense_kron(p, x) for p, x in zip(pauli_projectors()[b], shift_powers)) for b in "ZXYZ"
    ]
    want = dense_programmed_matrix(pointers) @ state.dense.amplitudes
    dev = float(np.max(np.abs(got.dense.amplitudes - want)))
    # n = 2 full run under 10 s with normalized report rows
    rng = np.random.default_rng(SEED)
    program = []
    for _ in range(16):
        circ = [
            GateOp(
                "RY",
                ((("S", "A")[int(rng.integers(2))], int(rng.integers(2))),),
                angle=float(rng.uniform(0, np.pi)),
            )
            for _ in range(3)
        ]
        circ.append(GateOp("CNOT", (("S", 0), ("A", 1))))
        program.append(tuple(circ))
    gates = (GateOp("H", (("S", 0),)), GateOp("CNOT", (("S", 0), ("A", 0))))
    t0 = time.perf_counter()
    rep = run(IcqcConfig(n=2, gate_sequence=gates, program_table=tuple(program)))
    elapsed = time.perf_counter() - t0
    row_err = abs(float(rep.born.decision_probs.sum()) - 1.0)
    for r in range(16):
        if not rep.born.empty[r]:
            row_err = max(row_err, abs(float(rep.born.outcome_probs[r].sum()) - 1.0))
    ok = law and dev <= FACTORIZATION_TOL and elapsed < 10.0 and row_err <= FACTORIZATION_TOL
    report(
        8,
        "ICQC structural checks",
        ok,
        f"register law {law}, n=1 dense deviation {dev:.3e}, n=2 run {elapsed:.2f}s < 10s, "
        f"row error {row_err:.3e}",
    )
    assert law
    assert dev <= FACTORIZATION_TOL
    assert elapsed < 10.0
    assert row_err <= FACTORIZATION_TOL


def test_criterion_9_schmidt_machinery():
    result = schmidt_battery(SEED, roundtrips=1000)
    report(
        9,
        "Schmidt machinery",
        result.passed,
        f"max roundtrip residual {result.worst:.3e} <= {SCHMIDT_TOL:.0e} over {result.cases} cuts "
        f"(entropy invariance within {ENTROPY_TOL:.0e} included)",
    )
    assert result.cases >= 1000
    assert result.worst <= SCHMIDT_TOL
