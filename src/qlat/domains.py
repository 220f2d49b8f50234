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
    _commutator_norms,
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
    "domain_reports",
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


def _sides(models) -> tuple[np.ndarray, np.ndarray]:
    """Support and complement of one model, two (d, d) matrices, or of K
    models, two (K, 1, d, d) stacks; against n members, (n,) or (K, n) results."""
    if isinstance(models, PureStateModel):
        return models.support.matrix, models.complement.matrix
    sides = np.stack([[model.support.matrix, model.complement.matrix] for model in models])
    return sides[:, None, 0], sides[:, None, 1]


def certainty(
    model: PureStateModel, members: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[np.ndarray, np.ndarray]:
    """The certainty rule over an (n, d, d) stack of projections: the masks
    of the members above the support (certainly true, probability 1) and of
    those below its orthocomplement (certainly false, probability 0); (K, n) for K models."""
    support, complement = _sides(model)
    return leq(support, members, pol), leq(members, complement, pol)


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
    norms = _commutator_norms(family.projection_stack, model.support.matrix)
    return {
        label
        for label, norm in zip(family.labels, norms.tolist())
        if criterion_holds("commutation", norm, family.dim, pol)
    }


def objective_residuals(model: PureStateModel, members: np.ndarray) -> np.ndarray:
    """The exact non-disturbance residual of each member of an (m, d, d)
    stack of projections, as a yes/no observable, against the yes/no
    observable of the support: the largest leak in either role, from one
    ``leak_norms`` call over the members' yes/no stacks; (K, m) of them for
    a sequence of K models."""
    forward, backward = leak_norms(yes_no_stack(members), yes_no_stack(_sides(model)[0]))
    return np.maximum(forward.max(axis=(-2, -1)), backward.max(axis=(-2, -1)))


def objective_domain(
    model: PureStateModel, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> set[str]:
    """Members measurable, as yes/no observables, without disturbing a
    measurement of the support; computed through the exact non-disturbance
    criterion rather than through the lattice order."""
    residuals = objective_residuals(model, family.projection_stack)
    undisturbed = criterion_holds("nondisturbance", residuals, family.dim, pol)
    return {label for label, holds in zip(family.labels, undisturbed.tolist()) if holds}


def _pivot_defects(
    members: np.ndarray, model: PureStateModel, pol: TolerancePolicy
) -> np.ndarray:
    """Frobenius defect of (E ^ S) v (E ^ S_perp) against E for each
    member E of an (n, d, d) stack and each support S of ``_sides``. Both
    meets come from one ``meet`` against the pair [S, S_perp], so one
    ``eigh`` call over 2n (or 2Kn) matrices; one ``join`` then rebuilds the
    members."""
    meets = meet(members[:, None], np.stack(_sides(model), axis=-3), pol)
    on_support, off_support = meets[..., 0, :, :], meets[..., 1, :, :]
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
    support exactly when it is compatible. One model's ``domain_reports``."""
    return domain_reports([model], family, pol)[0]


def domain_reports(
    models, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> list[DomainReport]:
    """The ``domain_report`` of each of a sequence of models, from one stacked
    pass: certainty, the commutators with the supports, the leak norms and
    the two pivot meets are each computed once over all K supports."""
    models, stack, labels = list(models), family.projection_stack, family.labels
    if not models:
        return []
    masks = (
        *certainty(models, stack, pol),
        criterion_holds("commutation", _commutator_norms(stack, _sides(models)[0]), family.dim, pol),
        criterion_holds("nondisturbance", objective_residuals(models, stack), family.dim, pol),
    )
    reports = []
    for defects, *rows in zip(_pivot_defects(stack, models, pol).tolist(), *(m.tolist() for m in masks)):
        true_side, false_side, compatible, objective = (
            {label for label, holds in zip(labels, row) if holds} for row in rows
        )
        if true_side & false_side:
            raise ValueError(
                f"certainly true and certainly false overlap on {sorted(true_side & false_side)}"
            )
        predictable = true_side | false_side
        splits = splits_along_support(dict(zip(labels, defects)), compatible, pol)
        reports.append(DomainReport(
            *map(frozenset, (true_side, false_side, predictable, compatible, objective)),
            predictable_equals_compatible=predictable == compatible and splits,
            objective_equals_predictable=objective == predictable,
        ))
    return reports
