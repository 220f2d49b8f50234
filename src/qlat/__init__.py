"""Finite-dimensional quantum property-lattice toolkit.

Validated Hermitian numerics, the projection lattice with its structural
laws, a projective measurement calculus with five independently checkable
compatibility criteria, state-relative property domains, a two-valuation
statement semantics, and seeded verification campaigns over all of it.
"""

from .numerics import (
    DEFAULT_POLICY,
    HermitianOperator,
    Ket,
    Projection,
    TolerancePolicy,
    commutator_norm,
    frobenius_distance,
    matrices_close,
    projection_onto_span,
    spectral_decompose,
)
from .lattice import (
    PropertyFamily,
    covering_holds,
    is_atom,
    join,
    leq,
    meet,
    orthocomplement,
    orthomodular_holds,
)
from .measurement import (
    CompatibilityVerdict,
    MeasurementOutcome,
    Observable,
    SeededRng,
    born_probability,
    commutes,
    compatibility_verdict,
    haar_random_ket,
    mc_trial_floor,
    measure,
    min_disagreement_probability,
    sequential_disagreements,
)
from .domains import (
    DomainReport,
    PureStateModel,
    certainty,
    compatible_domain,
    domain_report,
    domain_reports,
    objective_domain,
    objective_residuals,
    pivot_residuals,
    predictable_domain,
    splits_along_support,
    support_projection,
)
from .semantics import (
    And,
    CompletenessAudit,
    Elementary,
    Implies,
    Not,
    Or,
    Statement,
    TruthValue,
    atom_labels,
    completeness_audit,
    fold,
    format_statement,
    is_testable,
    kleene_truth,
    order_isomorphism_check,
    parse_statement,
    tarskian_truth,
    truth_table,
    verificationist_truth,
)
from .experiments import (
    EXPERIMENTS,
    CampaignReport,
    ExperimentConfig,
    generate_observable_pair,
    generate_property_family,
    reference_qubit_family,
    reference_qubit_model,
    reference_statements,
    run_experiment,
    verify_family,
)

__version__ = "0.1.0"
