"""State-relative property domains over a finite family: certainly true,
certainly false, predictable, compatible, and objective subsets, the split
rule on the members' pivot residuals, and the equalities connecting them,
each rule defined once over stacks of members and checked by independent
routes."""

from __future__ import annotations

from dataclasses import asdict, dataclass
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
    validated_projections,
)

__all__ = [
    "PureStateModel",
    "support_stacks",
    "certainty",
    "compatible_mask",
    "objective_residuals",
    "objective_mask",
    "splits_along_support",
    "DomainStacks",
    "DomainReport",
    "domain_reports",
]


@dataclass(frozen=True, eq=False)
class PureStateModel:
    """Pure state together with its support, the unique atom that is
    certainly true exactly in this state, and the support's orthocomplement.
    Both are built once per model, by the one-model case of ``_supports``,
    unless a ``support_stacks`` call over several models built them first."""

    state: Ket

    @cached_property
    def _projections(self) -> tuple[Projection, Projection]:
        (support,), (complement,) = _supports(self.state.amplitudes[None])
        return _projection(support), _projection(complement)

    @property
    def support(self) -> Projection:
        """Rank-one projection onto the state; invariant under global phase."""
        return self._projections[0]

    @property
    def complement(self) -> Projection:
        """Orthocomplement of the support."""
        return self._projections[1]


def _projection(matrix: np.ndarray) -> Projection:
    """A ``Projection`` holding a read-only matrix that is already validated,
    assembled without re-validating it."""
    projection = object.__new__(Projection)
    object.__setattr__(projection, "matrix", matrix)
    return projection


def _supports(kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The supports S = psi psi^H of a (K, d) stack of unit kets and their
    complements I - S, as two read-only (K, d, d) stacks from one
    ``validated_projections`` call each: bit for bit
    ``Projection.from_basis(ket[:, None])`` and ``Projection(eye - S)``."""
    columns = kets[..., None]
    supports = validated_projections(columns @ columns.conj().mT)
    complements = validated_projections(np.eye(kets.shape[-1], dtype=np.complex128) - supports)
    supports.setflags(write=False)
    complements.setflags(write=False)
    return supports, complements


def support_stacks(models) -> tuple[np.ndarray, np.ndarray]:
    """Support and complement of one model, two (d, d) matrices, or of K
    models, two (K, 1, d, d) stacks that broadcast against a (K, n, d, d)
    stack of members. The models that have not built theirs yet get them
    from one ``_supports`` call over their kets, and keep them."""
    if isinstance(models, PureStateModel):
        return models.support.matrix, models.complement.matrix
    fresh = list({id(model): model for model in models if "_projections" not in vars(model)}.values())
    if fresh:
        supports, complements = _supports(np.stack([model.state.amplitudes for model in fresh]))
        for model, support, complement in zip(fresh, supports, complements):
            vars(model)["_projections"] = _projection(support), _projection(complement)
    sides = np.stack([[model.support.matrix, model.complement.matrix] for model in models])
    return sides[:, None, 0], sides[:, None, 1]


def _labels_where(labels, mask) -> set[str]:
    """The labels whose entry of a boolean row holds."""
    return {label for label, holds in zip(labels, mask) if holds}


def certainty(
    model: PureStateModel, members: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[np.ndarray, np.ndarray]:
    """The certainty rule over an (n, d, d) stack of projections: the masks
    of the members above the support (certainly true, probability 1) and of
    those below its orthocomplement (certainly false, probability 0). For K
    models, (K, n) masks, of one (n, d, d) stack against every model or of
    a (K, n, d, d) stack whose family k goes with model k."""
    support, complement = support_stacks(model)
    return leq(support, members, pol), leq(members, complement, pol)


def compatible_mask(
    model: PureStateModel, members: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """The compatible rule, paired as in ``certainty``: the members that
    commute with the support, by |ES - SE|_F with the member E first."""
    norms = _commutator_norms(members, support_stacks(model)[0])
    return criterion_holds("commutation", norms, members.shape[-1], pol)


def objective_residuals(model: PureStateModel, members: np.ndarray) -> np.ndarray:
    """The exact non-disturbance residual of each member, as a yes/no
    observable, against the yes/no observable of the support, paired as in
    ``certainty``: the largest leak in either role, from one ``leak_norms``
    call over the members' yes/no stacks."""
    forward, backward = leak_norms(yes_no_stack(members), yes_no_stack(support_stacks(model)[0]))
    return np.maximum(forward.max(axis=(-2, -1)), backward.max(axis=(-2, -1)))


def objective_mask(
    model: PureStateModel, members: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """The objective rule, paired as in ``certainty``: the members whose
    ``objective_residuals`` pass the exact non-disturbance criterion."""
    residuals = objective_residuals(model, members)
    return criterion_holds("nondisturbance", residuals, members.shape[-1], pol)


def _pivot_defects(model: PureStateModel, members: np.ndarray, pol: TolerancePolicy) -> np.ndarray:
    """Frobenius defect of (E ^ S) v (E ^ S_perp) against E for each member
    E, paired with the supports S as in ``certainty``. Both meets come from
    one ``meet`` against the pair [S, S_perp], so one ``eigh`` call over 2n
    (or 2Kn) matrices; one ``join`` then rebuilds the members."""
    meets = meet(members[..., None, :, :], np.stack(support_stacks(model), axis=-3), pol)
    on_support, off_support = meets[..., 0, :, :], meets[..., 1, :, :]
    return _frobenius_norms(join(on_support, off_support, pol) - members)


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


class DomainStacks:
    """The domains and both equality verdicts of K models, one list entry per
    model, each against its own family or all against one. Each rule runs on
    first read, once per (K, n, d, d) stack of a member count or once over the
    one family's (n, d, d) stack."""

    def __init__(self, models, families, pol: TolerancePolicy = DEFAULT_POLICY):
        self.models, self.pol = list(models), pol
        if isinstance(families, PropertyFamily):
            self.labels = [families.labels] * len(self.models)
            stack = families.projection_stack
            self._stacks = [(range(len(self.models)), stack)] if self.models else []
            return
        if len(families) != len(self.models):
            raise ValueError(f"{len(self.models)} models against {len(families)} families")
        self.labels = [family.labels for family in families]
        sizes = [len(family) for family in families]
        groups = [[k for k, count in enumerate(sizes) if count == size] for size in dict.fromkeys(sizes)]
        self._stacks = [(ks, np.stack([families[k].projection_stack for k in ks])) for ks in groups]

    def _rows(self, rule, entry=_labels_where) -> list:
        """``entry(labels, row)`` per model, from ``rule`` once per stack."""
        rows = [None] * len(self.models)
        for ks, members in self._stacks:
            for k, row in zip(ks, rule([self.models[k] for k in ks], members, self.pol).tolist()):
                rows[k] = entry(self.labels[k], row)
        return rows

    @cached_property
    def certain(self) -> list[tuple[set[str], set[str]]]:
        """The certainly true and the certainly false labels."""
        return self._rows(
            lambda *args: np.stack(certainty(*args), axis=-2),
            lambda labels, sides: tuple(_labels_where(labels, side) for side in sides),
        )

    @cached_property
    def predictable(self) -> list[set[str]]:
        return [true | false for true, false in self.certain]

    @cached_property
    def compatible(self) -> list[set[str]]:
        return self._rows(compatible_mask)

    @cached_property
    def objective(self) -> list[set[str]]:
        return self._rows(objective_mask)

    @cached_property
    def pivot_residuals(self) -> list[dict[str, float]]:
        return self._rows(_pivot_defects, lambda labels, row: dict(zip(labels, row)))

    @cached_property
    def splits(self) -> list[bool]:
        pairs = zip(self.pivot_residuals, self.compatible)
        return [splits_along_support(residuals, compatible, self.pol) for residuals, compatible in pairs]

    @cached_property
    def predictable_equals_compatible(self) -> list[bool]:
        """Predictable = compatible, with the split rule."""
        triples = zip(self.predictable, self.compatible, self.splits)
        return [predictable == compatible and splits for predictable, compatible, splits in triples]

    @cached_property
    def objective_equals_predictable(self) -> list[bool]:
        pairs = zip(self.objective, self.predictable)
        return [objective == predictable for objective, predictable in pairs]


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
        """Every field in order, each domain as its sorted labels."""
        return {
            name: sorted(value) if isinstance(value, frozenset) else value
            for name, value in asdict(self).items()
        }


def domain_reports(
    models, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> list[DomainReport]:
    """Every domain and both verdicts of each of a sequence of models against
    one family, from one ``DomainStacks``: each rule runs once over the
    family's stack and all K supports."""
    domains = DomainStacks(models, family, pol)
    overlaps = [sorted(true & false) for true, false in domains.certain if true & false]
    if overlaps:
        raise ValueError(f"certainly true and certainly false overlap on {overlaps[0]}")
    return [
        DomainReport(*map(frozenset, (*sides, *domain_sets)), *verdicts)
        for sides, *domain_sets, verdicts in zip(
            domains.certain, domains.predictable, domains.compatible, domains.objective,
            zip(domains.predictable_equals_compatible, domains.objective_equals_predictable),
        )
    ]
