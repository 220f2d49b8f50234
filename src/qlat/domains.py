"""State-relative property domains over a finite family: certainly true,
certainly false, predictable, compatible, and objective subsets, plus the
verifiers that check the equalities connecting them by independent routes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import PropertyFamily, join, leq, meet, orthocomplement
from .measurement import Observable, criterion_holds, nondisturbing
from .numerics import (
    DEFAULT_POLICY,
    Ket,
    Projection,
    TolerancePolicy,
    commutator_norm,
    frobenius_distance,
    matrices_close,
)

__all__ = [
    "PureStateModel",
    "support_projection",
    "certainly_true_domain",
    "certainly_false_domain",
    "predictable_domain",
    "compatible_domain",
    "objective_domain",
    "pivot_residual",
    "verify_predictable_equals_compatible",
    "verify_objective_equals_predictable",
    "DomainReport",
    "domain_report",
]


def support_projection(state: Ket) -> Projection:
    """Rank-one projection onto the state; invariant under global phase."""
    return Projection.from_basis(state.amplitudes[:, None])


@dataclass(frozen=True, eq=False)
class PureStateModel:
    """Pure state together with its support, the unique atom that is
    certainly true exactly in this state."""

    state: Ket
    support: Projection

    def __post_init__(self) -> None:
        amplitudes = self.state.amplitudes
        if not matrices_close(self.support, np.outer(amplitudes, amplitudes.conj())):
            raise ValueError("support does not match the outer product of the state")

    @classmethod
    def from_ket(cls, state: Ket) -> "PureStateModel":
        return cls(state=state, support=support_projection(state))

    @cached_property
    def complement(self) -> Projection:
        """Orthocomplement of the support, built once per model."""
        return orthocomplement(self.support)


def certainly_true_domain(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> set[str]:
    """Members lying above the support; exactly those with probability 1."""
    return {
        label
        for label, member in family.pairs()
        if leq(model.support, member, pol)
    }


def certainly_false_domain(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> set[str]:
    """Members below the orthocomplement of the support; probability 0."""
    return {
        label
        for label, member in family.pairs()
        if leq(member, model.complement, pol)
    }


def predictable_domain(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> set[str]:
    """Union of the certainly true and certainly false domains."""
    return certainly_true_domain(model, family, pol) | certainly_false_domain(model, family, pol)


def compatible_domain(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> set[str]:
    """Members whose projection commutes with the support."""
    return {
        label
        for label, member in family.pairs()
        if criterion_holds("commutation", commutator_norm(member, model.support), family.dim, pol)
    }


def objective_domain(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> set[str]:
    """Members measurable, as yes/no observables, without disturbing a
    measurement of the support; computed through the exact non-disturbance
    criterion rather than through the lattice order."""
    support_observable = Observable.from_projection(model.support, pol)
    return {
        label
        for label, member in family.pairs()
        if nondisturbing(Observable.from_projection(member, pol), support_observable, pol)
    }


def pivot_residual(
    member: Projection, model: PureStateModel, pol: TolerancePolicy = DEFAULT_POLICY
) -> float:
    """Frobenius defect of (E ^ S) v (E ^ S_perp) against E itself, with S
    the model's support.

    Vanishes exactly when the member splits along the support, the algebraic
    signature of compatibility with it.
    """
    rebuilt = join(meet(member, model.support, pol), meet(member, model.complement, pol), pol)
    return frobenius_distance(rebuilt, member)


def verify_predictable_equals_compatible(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Check predictable == compatible as label sets, and that for every
    member the split identity holds exactly when the member commutes with
    the support."""
    predictable = predictable_domain(model, family, pol)
    compatible = compatible_domain(model, family, pol)
    return predictable == compatible and _splits_match(compatible, model, family, pol)


def _splits(residual: float, compatible: bool, pol: TolerancePolicy) -> bool:
    """The split rule on a member's pivot residual: a compatible member must
    split along the support, below op_tol, and any other member must miss it
    by more than 10 * op_tol, clear of the rounding band around op_tol."""
    return residual < pol.op_tol if compatible else residual > 10.0 * pol.op_tol


def _splits_match(
    compatible: set[str], model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy
) -> bool:
    """Each member splits along the support exactly when it is compatible."""
    return all(
        _splits(pivot_residual(member, model, pol), label in compatible, pol)
        for label, member in family.pairs()
    )


def verify_objective_equals_predictable(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Check objective == predictable as label sets.

    The two sides travel independent routes: the objective side runs the
    exact non-disturbance criterion on yes/no observables, the predictable
    side only uses the lattice order.
    """
    return objective_domain(model, family, pol) == predictable_domain(model, family, pol)


@dataclass(frozen=True, eq=False)
class DomainReport:
    """All five domains of one (state, family) instance plus the equality
    verdicts; certainly true and certainly false are disjoint by construction
    of the order, which is asserted when the report is built."""

    family: PropertyFamily
    certainly_true: frozenset[str]
    certainly_false: frozenset[str]
    predictable: frozenset[str]
    compatible: frozenset[str]
    objective: frozenset[str]
    predictable_equals_compatible: bool
    objective_equals_predictable: bool

    def to_json_dict(self) -> dict:
        return {
            "certainly_true": sorted(self.certainly_true),
            "certainly_false": sorted(self.certainly_false),
            "predictable": sorted(self.predictable),
            "compatible": sorted(self.compatible),
            "objective": sorted(self.objective),
            "predictable_equals_compatible": self.predictable_equals_compatible,
            "objective_equals_predictable": self.objective_equals_predictable,
        }


def domain_report(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> DomainReport:
    """Every domain computed once, with both equality verdicts read from them."""
    true_side = certainly_true_domain(model, family, pol)
    false_side = certainly_false_domain(model, family, pol)
    if true_side & false_side:
        raise ValueError(
            f"certainly true and certainly false overlap on {sorted(true_side & false_side)}"
        )
    predictable = true_side | false_side
    compatible = compatible_domain(model, family, pol)
    objective = objective_domain(model, family, pol)
    return DomainReport(
        family=family,
        certainly_true=frozenset(true_side),
        certainly_false=frozenset(false_side),
        predictable=frozenset(predictable),
        compatible=frozenset(compatible),
        objective=frozenset(objective),
        predictable_equals_compatible=(
            predictable == compatible and _splits_match(compatible, model, family, pol)
        ),
        objective_equals_predictable=objective == predictable,
    )
