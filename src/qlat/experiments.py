"""Seeded verification campaigns: model generation, per-experiment runners,
and versioned JSON reports built for exact re-runs."""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .domains import (
    PureStateModel,
    compatible_domain,
    domain_reports,
    objective_domain,
    pivot_residuals,
    predictable_domain,
    splits_along_support,
    support_projection,
)
from .lattice import (
    PropertyFamily,
    covering_holds,
    de_morgan_gaps,
    family_laws,
    is_atom,
    join,
    leq,
    meet,
    orthomodular_holds,
)
from .measurement import (
    Observable,
    SeededRng,
    compatibility_verdict,
    commutes,
    haar_random_ket,
)
from .numerics import (
    DEFAULT_POLICY,
    HermitianOperator,
    Ket,
    Projection,
    TolerancePolicy,
    _frobenius_norms,
    _ranks,
    _span_basis,
    frobenius_distance,
    matrices_close,
    range_basis,
)
from .semantics import (
    And,
    Elementary,
    Implies,
    Or,
    Statement,
    completeness_audit,
    order_isomorphism_check,
)

__all__ = [
    "SCHEMA_VERSION",
    "EXPERIMENTS",
    "ExperimentConfig",
    "InstanceRecord",
    "CampaignReport",
    "random_hermitian",
    "random_unitary",
    "generate_observable_pair",
    "generate_property_family",
    "reference_qubit_family",
    "reference_qubit_model",
    "reference_statements",
    "run_experiment",
    "verify_family",
]

SCHEMA_VERSION = 2

# Generated spectra keep at least this gap between eigenvalues so that
# cluster boundaries never interact with the campaigns.
_SPECTRAL_GAP = 1e-3

# Share of generate_property_family's draws that try an oblique member.
_OBLIQUE_FRACTION = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    """One campaign: which verifier, at what size, from which seed."""

    experiment: str
    dim: int = 2
    instances: int = 100
    mc_trials: int = 256
    seed: int = 0
    commuting_fraction: float = 0.5
    tolerances: TolerancePolicy = field(default_factory=TolerancePolicy)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}"
            )
        for name in ("dim", "instances", "mc_trials", "seed", "commuting_fraction"):
            value = getattr(self, name)
            kind, noun = numbers.Integral, "an integer"
            if name == "commuting_fraction":
                kind, noun = numbers.Real, "a real number"
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {noun}, got {value!r}")
            # Numpy scalars become Python numbers, so the report serializes;
            # an integral fraction stays an int and keeps its report bytes.
            number = int(value) if isinstance(value, numbers.Integral) else float(value)
            object.__setattr__(self, name, number)
        if not 2 <= self.dim <= 8:
            raise ValueError(f"dim must be in [2, 8], got {self.dim!r}")
        if self.instances < 1:
            raise ValueError(f"instances must be positive, got {self.instances!r}")
        if self.mc_trials < 1:
            raise ValueError(f"mc_trials must be positive, got {self.mc_trials!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 0.0 <= self.commuting_fraction <= 1.0:
            raise ValueError(
                f"commuting_fraction must be in [0, 1], got {self.commuting_fraction!r}"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, document: dict) -> "ExperimentConfig":
        unknown = set(document) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config field {sorted(unknown)[0]!r}")
        if "experiment" not in document:
            raise ValueError("missing config field 'experiment'")
        kwargs = dict(document)
        tolerances = kwargs.pop("tolerances", None)
        if tolerances is not None:
            if not isinstance(tolerances, dict):
                raise ValueError("config field 'tolerances' must be an object")
            unknown = set(tolerances) - {f.name for f in fields(TolerancePolicy)}
            if unknown:
                raise ValueError(f"unknown tolerance field {sorted(unknown)[0]!r}")
            kwargs["tolerances"] = TolerancePolicy(**tolerances)
        return cls(**kwargs)


@dataclass(frozen=True)
class InstanceRecord:
    index: int
    experiment: str
    passed: bool
    residual: float
    detail: dict

    def to_json_dict(self) -> dict:
        document = {f.name: getattr(self, f.name) for f in fields(self)}
        document["pass"] = document.pop("passed")
        return document


@dataclass(frozen=True)
class CampaignReport:
    config: ExperimentConfig
    instances: tuple[InstanceRecord, ...]
    wall_time_s: float

    @property
    def pass_count(self) -> int:
        return sum(record.passed for record in self.instances)

    @property
    def fail_count(self) -> int:
        return len(self.instances) - self.pass_count

    @property
    def max_residual(self) -> float:
        return max((record.residual for record in self.instances), default=0.0)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_json_dict(),
            "instances": [record.to_json_dict() for record in self.instances],
            "aggregate": {
                "pass": self.pass_count,
                "fail": self.fail_count,
                "max_residual": self.max_residual,
                "wall_time_s": self.wall_time_s,
            },
        }


def random_hermitian(dim: int, gen: np.random.Generator) -> HermitianOperator:
    """Symmetrized matrix of independent standard Gaussian entries."""
    raw = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return HermitianOperator((raw + raw.conj().T) / 2.0)


def random_unitary(dim: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR factor of a Gaussian matrix."""
    raw = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    q, _ = np.linalg.qr(raw)
    return q


def _gapped_values(dim: int, gen: np.random.Generator) -> np.ndarray:
    while True:
        values = gen.standard_normal(dim)
        ordered = np.sort(values)
        if dim == 1 or float(np.min(np.diff(ordered))) > _SPECTRAL_GAP:
            return values


def _observable_in_basis(basis: np.ndarray, values: np.ndarray) -> Observable:
    order = np.argsort(values)
    dyads = [basis[:, i : i + 1] @ basis[:, i : i + 1].conj().T for i in order]
    matrix = (basis * values) @ basis.conj().T
    operator = HermitianOperator((matrix + matrix.conj().T) / 2.0)
    return Observable(operator, tuple(values[order]), dyads)


def _min_spectral_gap(observable: Observable) -> float:
    return float(np.diff(observable.eigenvalues).min(initial=np.inf))


def generate_observable_pair(
    dim: int,
    commuting: bool,
    gen: np.random.Generator,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> tuple[Observable, Observable]:
    """One observable pair, forced to commute or generically non-commuting.

    Commuting pairs sample two real spectra in one shared random eigenbasis.
    Non-commuting pairs are independent Gaussian Hermitians, redrawn in the
    measure-zero event that they commute or carry a nearly degenerate
    spectrum.
    """
    if commuting:
        basis = random_unitary(dim, gen)
        return (
            _observable_in_basis(basis, _gapped_values(dim, gen)),
            _observable_in_basis(basis, _gapped_values(dim, gen)),
        )
    for _ in range(100):
        first = Observable.from_operator(random_hermitian(dim, gen), pol)
        second = Observable.from_operator(random_hermitian(dim, gen), pol)
        if min(_min_spectral_gap(first), _min_spectral_gap(second)) <= _SPECTRAL_GAP:
            continue
        if not commutes(first, second, pol):
            return first, second
    raise RuntimeError("failed to draw a non-commuting pair in 100 attempts")


def _random_subspace_projection(
    dim: int, rank: int, gen: np.random.Generator
) -> Projection:
    return Projection.from_basis(random_unitary(dim, gen)[:, :rank])


def generate_property_family(
    dim: int,
    n_members: int,
    model: PureStateModel,
    gen: np.random.Generator,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> PropertyFamily:
    """Adversarial family around a state: members diagonal in a basis that
    contains the state axis (these commute with the support) mixed with
    Haar-random oblique subspaces (these generically do not). The support and
    its orthocomplement always open the family as E1 and E2.

    A candidate is its orthonormal columns, and its rank, never 0 or ``dim``,
    their count: a random unitary's first ``rank`` in [1, dim), or the
    ``_span_basis`` of a proper nonempty subset of the aligned basis. Its dyad
    is dropped when one check over the kept stack finds a member within
    op_tol, and ``PropertyFamily`` validates the kept dyads once.
    """
    if dim < 2 or dim != model.state.dim:
        raise ValueError(
            f"dim must be at least 2 and match the state's dimension {model.state.dim}, got {dim}"
        )
    psi = model.state.amplitudes
    padding = gen.standard_normal((dim, dim - 1)) + 1j * gen.standard_normal((dim, dim - 1))
    aligned_basis, _ = np.linalg.qr(np.column_stack([psi, padding]))

    kept = np.empty((max(n_members, 2), dim, dim), dtype=np.complex128)
    kept[0], kept[1] = model.support.matrix, model.complement.matrix
    count, attempts = 2, 0
    while count < n_members and attempts < 100 * n_members:
        attempts += 1
        if gen.random() < _OBLIQUE_FRACTION:
            rank = int(gen.integers(1, dim))
            columns = random_unitary(dim, gen)[:, :rank]
        else:
            mask = gen.random(dim) < 0.5
            if not mask.any() or mask.all():
                continue
            columns = _span_basis(aligned_basis[:, mask], pol)
        matrix = columns @ columns.conj().T
        if not (_frobenius_norms(kept[:count] - matrix) < pol.op_tol).any():
            kept[count] = matrix
            count += 1
    return PropertyFamily(((f"E{row + 1}", kept[row]) for row in range(count)), dim=dim, pol=pol)


def reference_qubit_family(pol: TolerancePolicy = DEFAULT_POLICY) -> PropertyFamily:
    """Two-level worked family: both basis atoms plus the superposed atom."""
    ground = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    excited = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    superposed = np.full((2, 2), 0.5, dtype=np.complex128)
    return PropertyFamily(
        [
            ("0", np.zeros((2, 2), dtype=np.complex128)),
            ("P0", ground),
            ("P1", excited),
            ("Pplus", superposed),
            ("I", np.eye(2, dtype=np.complex128)),
        ],
        dim=2,
        pol=pol,
    )


def reference_qubit_model() -> PureStateModel:
    return PureStateModel.from_ket(Ket.basis(2, 0))


def reference_statements() -> tuple[Statement, ...]:
    """Audit statements for the worked family: all elementary statements, a
    testable contradiction, a non-testable conjunction, and a non-testable
    classical tautology that the report must flag."""
    elementary = tuple(Elementary(label) for label in ("0", "P0", "P1", "Pplus", "I"))
    return elementary + (
        And(Elementary("P0"), Elementary("P1")),
        And(Elementary("P0"), Elementary("Pplus")),
        Implies(Elementary("Pplus"), Or(Elementary("Pplus"), Elementary("P0"))),
    )


def _numbered(experiment: str, rows) -> tuple[InstanceRecord, ...]:
    """Instance records from the (passed, residual, detail) rows that a
    runner yields, one per instance in index order."""
    return tuple(
        InstanceRecord(index, experiment, passed, residual, detail)
        for index, (passed, residual, detail) in enumerate(rows)
    )


def _run_compatibility_equivalence(cfg: ExperimentConfig):
    pol = cfg.tolerances
    base = SeededRng(cfg.seed)
    for index in range(cfg.instances):
        gen = base.substream(index, 0)
        commuting = gen.random() < cfg.commuting_fraction
        first, second = generate_observable_pair(cfg.dim, commuting, gen, pol)
        verdict = compatibility_verdict(
            first, second, pol, trials=cfg.mc_trials, rng=base.derive(index, 1)
        )
        passed = verdict.coincide and verdict.mc_consistent
        yield passed, 0.0 if passed else verdict.max_violation, {
            "commuting_intended": bool(commuting),
            "commutation": verdict.commutation,
            "nondisturbance": verdict.nondisturbance,
            "interposition": verdict.interposition,
            "sequence_symmetry": verdict.sequence_symmetry,
            "commeasurable": verdict.commeasurable,
            "coincide": verdict.coincide,
            "mc_trials": verdict.mc_trials,
            "mc_disagreements": verdict.mc_disagreements,
            "mc_floor": verdict.mc_floor,
            "mc_consistent": verdict.mc_consistent,
        }


def _domain_instance(cfg: ExperimentConfig, index: int) -> tuple[PureStateModel, PropertyFamily]:
    gen = SeededRng(cfg.seed).substream(index, 0)
    model = PureStateModel.from_ket(haar_random_ket(cfg.dim, gen))
    family = generate_property_family(cfg.dim, 10, model, gen, cfg.tolerances)
    return model, family


def _run_predictable_vs_compatible(cfg: ExperimentConfig):
    pol = cfg.tolerances
    for index in range(cfg.instances):
        model, family = _domain_instance(cfg, index)
        predictable = predictable_domain(model, family, pol)
        compatible = compatible_domain(model, family, pol)
        residuals = pivot_residuals(model, family, pol)
        split_ok = splits_along_support(residuals, compatible, pol)
        inside = [residual for label, residual in residuals.items() if label in compatible]
        outside = [residual for label, residual in residuals.items() if label not in compatible]
        yield predictable == compatible and split_ok, max(inside, default=0.0), {
            "predictable": sorted(predictable),
            "compatible": sorted(compatible),
            "split_identity_ok": split_ok,
            "min_noncompatible_residual": min(outside, default=None),
        }


def _run_objective_vs_predictable(cfg: ExperimentConfig):
    pol = cfg.tolerances
    for index in range(cfg.instances):
        model, family = _domain_instance(cfg, index)
        objective = objective_domain(model, family, pol)
        predictable = predictable_domain(model, family, pol)
        yield objective == predictable, 0.0, {
            "objective": sorted(objective),
            "predictable": sorted(predictable),
        }


def _nondistributivity_witness(pol: TolerancePolicy):
    """Row for the worked qubit triple, on which the distributive law
    strictly fails."""
    family = reference_qubit_family(pol)
    stack = family.projection_stack
    ground, excited, superposed = (stack[family.index(label)] for label in ("P0", "P1", "Pplus"))
    lhs = meet(superposed, join(ground, excited, pol), pol)
    rhs = join(meet(superposed, ground, pol), meet(superposed, excited, pol), pol)
    gap = frobenius_distance(lhs, rhs)
    rhs_zero = _ranks(rhs, pol.eig_gap) == 0
    passed = bool(matrices_close(lhs, superposed, pol) and rhs_zero and gap > 100.0 * pol.op_tol)
    return passed, 0.0 if passed else gap, {"check": "nondistributivity_witness", "gap": gap}


def _run_lattice_laws(cfg: ExperimentConfig):
    pol = cfg.tolerances
    base = SeededRng(cfg.seed)
    yield _nondistributivity_witness(pol)
    for index in range(1, cfg.instances + 1):
        gen = base.substream(index, 0)
        dim = cfg.dim
        p = _random_subspace_projection(dim, int(gen.integers(1, dim)), gen)
        q = _random_subspace_projection(dim, int(gen.integers(1, dim)), gen)
        ket = haar_random_ket(dim, gen)
        atom = support_projection(ket)
        comparable = join(p.matrix, _random_subspace_projection(dim, 1, gen).matrix, pol)
        orthomodular_ok = bool(orthomodular_holds(p.matrix, comparable, pol))
        gap = float(de_morgan_gaps(p.matrix, q.matrix, pol))
        covering_ok = bool(covering_holds(atom.matrix, p.matrix, pol))
        witness_atom = support_projection(Ket(range_basis(p)[:, 0])).matrix
        atomicity_ok = bool(is_atom(witness_atom, pol) and leq(witness_atom, p.matrix, pol))
        passed = orthomodular_ok and gap < pol.op_tol and covering_ok and atomicity_ok
        yield passed, gap, {
            "orthomodular": orthomodular_ok,
            "de_morgan_gap": gap,
            "covering": covering_ok,
            "atomicity": atomicity_ok,
        }


def _run_completeness_audit(cfg: ExperimentConfig):
    pol = cfg.tolerances
    family = reference_qubit_family(pol)
    model = reference_qubit_model()
    statements = reference_statements()
    for mode in ("standard", "sr"):
        audit = completeness_audit(model, family, statements, mode, pol)
        if mode == "standard":
            passed = (
                audit.verdict == "complete"
                and audit.meaningful == audit.predictable
                and len(audit.flagged) > 0
            )
        else:
            passed = audit.verdict == "incomplete" and audit.witness == "Pplus"
        yield passed, 0.0, audit.to_json_dict()


_RUNNERS = {
    "compatibility_equivalence": _run_compatibility_equivalence,
    "predictable_vs_compatible": _run_predictable_vs_compatible,
    "objective_vs_predictable": _run_objective_vs_predictable,
    "lattice_laws": _run_lattice_laws,
    "completeness_audit": _run_completeness_audit,
}

EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> CampaignReport:
    """Dispatch the configured campaign and return its report; re-runs
    with the same config differ at most in wall time."""
    start = time.perf_counter()
    records = _numbered(cfg.experiment, _RUNNERS[cfg.experiment](cfg))
    return CampaignReport(
        config=cfg, instances=records, wall_time_s=time.perf_counter() - start
    )


def verify_family(
    family: PropertyFamily, seed: int, states: int, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[InstanceRecord, ...]:
    """Check a given family: the order-entailment isomorphism, the lattice
    laws on every member pair, and both domain equalities on ``states``
    seeded Haar-random probe states plus every rank-one member's own state.
    Returns one record per check, in that order."""
    return _numbered("verify_family", _family_checks(family, SeededRng(seed), states, pol))


def _family_checks(family: PropertyFamily, rng: SeededRng, states: int, pol: TolerancePolicy):
    order_ok = order_isomorphism_check(family, pol, rng=rng.derive(0), samples=states)
    yield order_ok, 0.0, {"check": "order_isomorphism"}

    gaps, orthomodular = family_laws(family, pol)
    widest = float(gaps.max())
    laws_ok = bool((gaps < pol.op_tol).all() and orthomodular.all())
    yield laws_ok, widest, {"check": "lattice_laws", "max_de_morgan_gap": widest}

    gen = rng.substream(1)
    probes = [haar_random_ket(family.dim, gen) for _ in range(states)]
    stack = family.projection_stack
    probes += [Ket.normalized(range_basis(row)[:, 0]) for row in stack[is_atom(stack, pol)]]
    reports = domain_reports([PureStateModel.from_ket(probe) for probe in probes], family, pol)
    domain_ok = all(
        report.predictable_equals_compatible and report.objective_equals_predictable
        for report in reports
    )
    yield domain_ok, 0.0, {"check": "domain_equalities", "states": len(probes)}
