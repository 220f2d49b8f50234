"""Finite-dimensional quantum property-lattice toolkit.

Validated Hermitian numerics, the projection lattice with its structural
laws, a projective measurement calculus with five independently checkable
compatibility criteria, state-relative property domains, a two-valuation
statement semantics, and seeded verification campaigns over all of it.
"""

from .numerics import (
    DEFAULT_POLICY,
    Projection,
    TolerancePolicy,
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
    Observable,
    SeededRng,
    compatibility_verdict,
    haar_random_ket,
    sequential_disagreements,
)
from .domains import (
    PureStateModel,
    certainty,
    objective_residuals,
    splits_along_support,
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
    completeness_audit,
    fold,
    order_isomorphism_check,
    parse_statement,
)
from .experiments import (
    EXPERIMENTS,
    CampaignReport,
    ExperimentConfig,
    reference_qubit_family,
    reference_qubit_model,
    reference_statements,
    run_experiment,
    verify_family,
)

__version__ = "0.1.0"
