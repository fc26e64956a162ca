"""Peer encouragement designs under partial interference: exact causal
estimands on finite populations, the randomized design protocol, sample
estimators, and Monte Carlo verification of the identification identities."""

from .design import DesignConfig, ExperimentData, design_prob_check, run_design
from .errors import (
    AllBlocksUndefined,
    ArityMismatch,
    EmptyArm,
    EmptyStratumInBlock,
    EnumerationTooLarge,
    ExclusionViolated,
    FlagMismatch,
    GenerationFailed,
    InvalidConfig,
    InvalidData,
    InvalidDesign,
    InvalidMechanism,
    MissingTableEntry,
    PeerEncError,
    ZeroEncouragementEffect,
    ZeroEncouragementEffectEstimate,
)
from .estimands import (
    BlockSummary,
    EstimandReport,
    IdentityReport,
    compute_estimand_report,
    ditt,
    et,
    ldt,
    lpt,
    pitt,
    theorem_1_check,
    theorem_2_check,
    theorem_3_check,
    ybar_block_itt,
    ybar_block_local,
    ybar_indiv_itt,
    ybar_indiv_local,
)
from .estimators import (
    EstimateReport,
    ditt_hat,
    estimate_report,
    estimator_battery,
    et_hat,
    ldt_hat,
    lpt0_hat,
    lpt_diff_hat,
    pitt_hat,
    yhat_block,
    yhat_pop,
)
from .mechanisms import (
    DEFAULT_ENUMERATION_CAP,
    Mechanism,
    enumerate_assignments,
    mech_prob,
    sample_assignment,
)
from .montecarlo import (
    McSummary,
    VerificationReport,
    exact_targets,
    replicate,
    replicate_values,
    verification_passes,
    verify_theorems,
)
from .population import (
    ComplianceType,
    DgpConfig,
    Individual,
    OutcomeConfig,
    Population,
    PotentialTreatment,
    StructuralOutcome,
    TableOutcome,
    build_population,
    classify,
    convert_to_tables,
    load_population,
    outcome,
    population_from_dict,
    population_to_dict,
    potential_treatment,
    save_population,
    validate,
)

__version__ = "0.1.0"
