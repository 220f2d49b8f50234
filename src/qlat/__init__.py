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
    identity_projection,
    is_projection,
    matrices_close,
    projection_onto_span,
    spectral_decompose,
    zero_projection,
)
from .lattice import (
    PropertyFamily,
    check_covering,
    check_orthomodular,
    is_atom,
    join,
    leq,
    meet,
    orthocomplement,
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
    interposition_invariant,
    joint_observable,
    mc_trial_floor,
    measure,
    min_disagreement_probability,
    nondisturbing,
    nondisturbing_mc,
    sequence_symmetric,
    sequential_disagreements,
)
from .domains import (
    DomainReport,
    PureStateModel,
    certainly_false_domain,
    certainly_true_domain,
    compatible_domain,
    domain_report,
    objective_domain,
    pivot_residual,
    predictable_domain,
    support_projection,
    verify_objective_equals_predictable,
    verify_predictable_equals_compatible,
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
    is_classical_contradiction,
    is_classical_tautology,
    is_testable,
    kleene_truth,
    order_isomorphism_check,
    parse_statement,
    tarskian_truth,
    verificationist_truth,
)
from .experiments import (
    EXPERIMENTS,
    CampaignReport,
    ExperimentConfig,
    generate_model,
    generate_observable_pair,
    generate_property_family,
    reference_qubit_family,
    reference_qubit_model,
    reference_statements,
    run_experiment,
    verify_family,
)

__version__ = "0.1.0"
