"""State-relative property domains over a finite family: certainly true,
certainly false, predictable, compatible, and objective subsets, the split
rule on the members' pivot residuals, and one report that checks the
equalities connecting them by independent routes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import PropertyFamily, join, leq, meet
from .measurement import criterion_holds, leak_norms, yes_no_stack
from .numerics import (
    DEFAULT_POLICY,
    Ket,
    Projection,
    TolerancePolicy,
    _frobenius_norms,
    matrices_close,
)

__all__ = [
    "PureStateModel",
    "support_projection",
    "certainty",
    "predictable_domain",
    "compatible_domain",
    "objective_residuals",
    "objective_domain",
    "pivot_residuals",
    "splits_along_support",
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
        return Projection(np.eye(self.state.dim, dtype=np.complex128) - self.support.matrix)


def certainty(
    model: PureStateModel, members: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[np.ndarray, np.ndarray]:
    """The certainty rule over a (..., d, d) stack of projections: the masks
    of the members above the support (certainly true, probability 1) and of
    those below its orthocomplement (certainly false, probability 0)."""
    above = leq(model.support.matrix, members, pol)
    return above, leq(members, model.complement.matrix, pol)


def predictable_domain(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> set[str]:
    """Union of the certainly true and certainly false domains."""
    above, below = certainty(model, family.projection_stack, pol)
    return {label for label, holds in zip(family.labels, (above | below).tolist()) if holds}


def compatible_domain(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> set[str]:
    """Members whose projection commutes with the support: |ES - SE|_F over
    the family's stack, in the operand order of ``commutator_norm``."""
    members, support = family.projection_stack, model.support.matrix
    norms = _frobenius_norms(members @ support - support @ members)
    return {
        label
        for label, norm in zip(family.labels, norms.tolist())
        if criterion_holds("commutation", norm, family.dim, pol)
    }


def objective_residuals(model: PureStateModel, members: np.ndarray) -> np.ndarray:
    """The exact non-disturbance residual of each member of an (m, d, d)
    stack of projections, as a yes/no observable, against the yes/no
    observable of the support: the largest leak in either role, from one
    ``leak_norms`` call over the members' yes/no stacks."""
    forward, backward = leak_norms(yes_no_stack(members), yes_no_stack(model.support.matrix))
    return np.maximum(forward.max(axis=(-2, -1)), backward.max(axis=(-2, -1)))


def objective_domain(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> set[str]:
    """Members measurable, as yes/no observables, without disturbing a
    measurement of the support; computed through the exact non-disturbance
    criterion rather than through the lattice order."""
    residuals = objective_residuals(model, family.projection_stack)
    return {
        label
        for label, residual in zip(family.labels, residuals.tolist())
        if criterion_holds("nondisturbance", residual, family.dim, pol)
    }


def _pivot_defects(
    members: np.ndarray, model: PureStateModel, pol: TolerancePolicy
) -> np.ndarray:
    """Frobenius defect of (E ^ S) v (E ^ S_perp) against E for each
    member E of an (n, d, d) stack, with S the model's support. Both meets
    come from one ``meet`` against the (2, 1, d, d) stack [S, S_perp], so
    one ``eigh`` call over 2n matrices, and each keeps the bits of its own
    ``meet`` call; one ``join`` then rebuilds the members."""
    sides = np.stack([model.support.matrix, model.complement.matrix])[:, None]
    on_support, off_support = meet(members, sides, pol)
    return _frobenius_norms(join(on_support, off_support, pol) - members)


def pivot_residuals(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> dict[str, float]:
    """Every member's pivot residual, by label, from one stack over the
    family; it vanishes exactly when the member splits along the support."""
    defects = _pivot_defects(family.projection_stack, model, pol)
    return dict(zip(family.labels, defects.tolist()))


def splits_along_support(
    residuals: dict[str, float], compatible: set[str], pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """The split rule on the members' pivot residuals: a compatible member
    must split along the support, below op_tol, and any other member must
    miss it by more than 10 * op_tol, clear of the rounding band around
    op_tol."""
    return all(
        residual < pol.op_tol if label in compatible else residual > 10.0 * pol.op_tol
        for label, residual in residuals.items()
    )


@dataclass(frozen=True, eq=False)
class DomainReport:
    """All five domains of one (state, family) instance plus the equality
    verdicts; certainly true and certainly false are disjoint by construction
    of the order, which is asserted when the report is built."""

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
    """Every domain computed once, with both equality verdicts read from them;
    predictable = compatible also asks that each member split along the
    support exactly when it is compatible."""
    above, below = certainty(model, family.projection_stack, pol)
    true_side = {label for label, holds in zip(family.labels, above.tolist()) if holds}
    false_side = {label for label, holds in zip(family.labels, below.tolist()) if holds}
    if true_side & false_side:
        raise ValueError(
            f"certainly true and certainly false overlap on {sorted(true_side & false_side)}"
        )
    predictable = true_side | false_side
    compatible = compatible_domain(model, family, pol)
    objective = objective_domain(model, family, pol)
    return DomainReport(
        certainly_true=frozenset(true_side),
        certainly_false=frozenset(false_side),
        predictable=frozenset(predictable),
        compatible=frozenset(compatible),
        objective=frozenset(objective),
        predictable_equals_compatible=(
            predictable == compatible
            and splits_along_support(pivot_residuals(model, family, pol), compatible, pol)
        ),
        objective_equals_predictable=objective == predictable,
    )
