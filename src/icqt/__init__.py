"""Desk-scale simulator and verifier for trinary (P-S-A) quantum systems."""

from .linalg import (
    DimensionError,
    HermiticityError,
    NormalizationError,
    Operator,
    SchmidtDecomposition,
    StateVector,
    commutator_norm,
    entanglement_entropy,
    hermitian_propagator,
    schmidt_decompose,
    seeded_random,
    shannon_entropy,
)
from .trinary import (
    BranchCountError,
    CompletenessReport,
    PointerCapacityError,
    ProgrammedUnitary,
    TrinaryDims,
    TrinaryState,
    apply_programmed,
    build_programmed_unitary,
    dual_entropies,
    standard_basis,
    validate_informational_completeness,
)
from .dynamics import (
    CommutatorCheck,
    EntanglementTrajectory,
    FactorizationPreconditionError,
    ProgrammedBlockStructure,
    ScheduleError,
    TrinaryHamiltonian,
    check_pmc,
    check_sapmc,
    entanglement_trajectory,
    evolve_factorized,
    evolve_full,
    evolve_programmed_block,
    evolve_swapped_factorized,
    random_block_structure,
    random_trinary_hamiltonian,
)
from .born import (
    DualBornReport,
    EmptyBranchError,
    OutcomeTable,
    conventional_oracle,
    decision_probabilities,
    dual_born_report,
    outcome_probabilities,
)
from .icqc import (
    CapacityError,
    GateOp,
    IcqcConfig,
    IcqcRunReport,
    apply_gates,
    apply_programmed_op,
    init_state,
    run,
    tomographic_program_n1,
)

__version__ = "0.1.0"
