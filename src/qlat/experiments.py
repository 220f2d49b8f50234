"""Seeded verification campaigns: model generation, per-experiment runners,
and versioned JSON reports built for exact re-runs."""

from __future__ import annotations

import functools
import numbers
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .domains import DomainStacks, PureStateModel, support_stacks
from .lattice import (
    PropertyFamily,
    _checked_dim,
    _close_pairs,
    _families,
    _greedy_rows,
    _lower_triangle,
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
    _check_unit_rows,
    _compatibility_verdicts,
    _observables,
    compatibility_verdict,  # noqa: F401 (kept importable here; bench/tests traces it through this module)
    criterion_holds,
    haar_random_ket,
)
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _commutator_norms,
    _frobenius_norms,
    _leading_dyads,
    _range_kets,
    _ranks,
    _span_dyads,
    validated_projections,
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

# Share of _property_families' draws that try an oblique member.
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
        object.__setattr__(self, "dim", _checked_dim(self.dim))
        for name in ("instances", "mc_trials", "seed", "commuting_fraction"):
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


def _gaussian_matrix(dim: int, gen: np.random.Generator, columns: int | None = None) -> np.ndarray:
    """A dim x columns (default dim) matrix of independent complex Gaussian
    entries: the real parts, then the imaginary parts, from ``gen``."""
    shape = (dim, dim if columns is None else columns)
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def random_hermitian(dim: int, gen: np.random.Generator) -> np.ndarray:
    """Symmetrized matrix of independent standard Gaussian entries."""
    raw = _gaussian_matrix(dim, gen)
    return (raw + raw.conj().T) / 2.0


def _gapped_values(dim: int, gen: np.random.Generator) -> np.ndarray:
    while True:
        values = gen.standard_normal(dim)
        ordered = np.sort(values)
        if dim == 1 or float(np.min(np.diff(ordered))) > _SPECTRAL_GAP:
            return values


def _observable_pairs(dim: int, commuting, gens, pol: TolerancePolicy) -> list[tuple[Observable, ...]]:
    """One observable pair per flag, drawn from its own generator: forced to
    commute when the flag is set, generically non-commuting otherwise. The
    linear algebra of all pairs runs in stacked calls.

    Commuting pairs sample two real spectra in one shared random eigenbasis.
    Non-commuting pairs are independent Gaussian Hermitians, redrawn in the
    measure-zero event that they commute or carry a nearly degenerate
    spectrum.

    Each generator is read in the order of one pair's draws: for a commuting
    pair the shared basis's Gaussian matrix and then both gapped spectra, for
    a non-commuting one two Gaussian Hermitians per attempt. QR, ``eigh`` and
    the gap and commutation checks read no randomness, so each round draws
    one attempt of every pair still waiting; a rejected attempt is redrawn
    in the next round, up to 100 attempts. A commuting pair's observables are
    ``basis @ diag(values) @ basis^H``, whose eigenprojections are the dyads
    of the basis columns in ascending order of value.
    """
    pairs = [None] * len(gens)
    shared = [k for k, flag in enumerate(commuting) if flag]
    if shared:
        raws, values = [], []
        for k in shared:
            raws.append(_gaussian_matrix(dim, gens[k]))
            values += [_gapped_values(dim, gens[k]), _gapped_values(dim, gens[k])]
        bases, _ = np.linalg.qr(np.stack(raws))
        bases, values = np.repeat(bases, 2, axis=0), np.stack(values)
        order = np.argsort(values, axis=-1)
        columns = np.take_along_axis(bases, order[:, None], axis=-1).mT[..., None]
        matrices = (bases * values[:, None]) @ bases.conj().mT
        spectra = zip(np.take_along_axis(values, order, axis=-1), columns @ columns.conj().mT)
        observables = _observables((matrices + matrices.conj().mT) / 2.0, spectra)
        for k, first, second in zip(shared, observables[0::2], observables[1::2]):
            pairs[k] = first, second
    waiting = [k for k, flag in enumerate(commuting) if not flag]
    for _ in range(100):
        if not waiting:
            break
        matrices = np.stack([random_hermitian(dim, gens[k]) for k in waiting for _ in range(2)])
        observables = _observables(matrices, pol=pol)
        norms = _commutator_norms(matrices[0::2], matrices[1::2])
        commute = criterion_holds("commutation", norms, dim, pol).tolist()
        drawn, waiting = waiting, []
        for k, first, second, commutes in zip(drawn, observables[0::2], observables[1::2], commute):
            spectra = first.eigenvalues, second.eigenvalues
            gap = min((b - a for values in spectra for a, b in zip(values, values[1:])), default=np.inf)
            if commutes or gap <= _SPECTRAL_GAP:
                waiting.append(k)
            else:
                pairs[k] = first, second
    if waiting:
        raise RuntimeError("failed to draw a non-commuting pair in 100 attempts")
    return pairs


# Instances per block of stacked linear algebra in the lattice, domain and
# compatibility campaigns; bounds memory for large campaigns without
# changing any byte.
_INSTANCE_BLOCK = 32


def _property_families(
    n_members: int, models, gens, pol: TolerancePolicy
) -> list[PropertyFamily]:
    """One adversarial family of ``n_members`` members around each model of
    a sequence of same-dimension models, drawn from its own generator, the
    linear algebra of all of them in stacked calls.

    A family mixes members diagonal in a basis that contains the state axis
    (these commute with the support) with Haar-random oblique subspaces
    (these generically do not). The support and its orthocomplement always
    open the family as E1 and E2. A candidate is its orthonormal columns,
    and its rank, never 0 or the state's dimension d, their count: a random
    unitary's first ``rank`` in [1, d), or the column span of a proper
    nonempty subset of the aligned basis. Its dyad is dropped when it lies
    within op_tol of a member kept before it. The supports come from one
    stacked ``domains.support_stacks`` call, and the families from one
    ``lattice._families`` call per member count, straight on the kept rows,
    which validates them once.

    Each generator is read in the order of a one-family loop of draws: its
    aligned basis's padding, then per attempt an oblique-or-aligned uniform
    and that candidate's rank and Gaussian matrix or its subset mask. QR, SVD
    and the dedup distances read no randomness, so each round draws, per
    family, at most the attempts that such a loop would still certainly make:
    the members still missing, within the cap of 100 * n_members attempts.
    Then one QR call gives the oblique candidates of the round and one SVD
    call per column count the aligned ones, each written into the room that
    its family's missing members leave. Each family keeps its candidates
    greedily in draw order, by ``lattice._greedy_rows``, from one table per
    round of every active family's distances, each candidate's to its kept
    members and to the candidates drawn before it. Rounds repeat until every
    family is full or has made its attempts.
    """
    dim = models[0].state.size
    if dim < 2:
        raise ValueError(f"the state's dimension must be at least 2, got {dim}")
    states = np.stack([model.state for model in models])[..., None]
    padding = np.stack([_gaussian_matrix(dim, gen, dim - 1) for gen in gens])
    aligned_bases, _ = np.linalg.qr(np.concatenate([states, padding], axis=-1))

    width = max(n_members, 2)
    kept = np.zeros((len(models), width, dim, dim), dtype=np.complex128)
    flat, (later, earlier) = kept.reshape(-1, dim, dim), _lower_triangle(width)
    kept[:, :2] = np.concatenate(support_stacks(models), axis=1)
    counts, attempts, cap = [2] * len(models), [0] * len(models), 100 * n_members
    active = [k for k in range(len(models)) if counts[k] < n_members]
    while active:
        # Candidate j of family k goes to kept[k, counts[k] + j], in the room
        # that the members still missing leave; stops[row] ends the row's run.
        oblique, aligned, stops = [], {}, []
        for k in active:
            gen, slot = gens[k], counts[k]
            for _ in range(min(n_members - counts[k], cap - attempts[k])):
                attempts[k] += 1
                if gen.random() < _OBLIQUE_FRACTION:
                    rank = int(gen.integers(1, dim))
                    oblique.append(((k, slot), rank, _gaussian_matrix(dim, gen)))
                else:
                    mask = gen.random(dim) < 0.5
                    if not mask.any() or mask.all():
                        continue
                    columns = aligned_bases[k][:, mask]
                    aligned.setdefault(columns.shape[1], []).append(((k, slot), columns))
                slot += 1
            stops.append(slot)

        if oblique:
            slots, ranks, raws = zip(*oblique)
            unitaries, _ = np.linalg.qr(np.stack(raws))
            kept[tuple(zip(*slots))] = _leading_dyads(unitaries, ranks)
        for group in aligned.values():
            slots, columns = zip(*group)
            kept[tuple(zip(*slots))] = _span_dyads(np.stack(columns), pol)
        # One distance table for the round: each candidate against the kept
        # members and the earlier candidates of its family, which are the
        # pairs of rows counts[k] to stop - 1 in _lower_triangle(width).
        firsts = [counts[k] * (counts[k] - 1) // 2 for k in active]
        lasts = [stop * (stop - 1) // 2 for stop in stops]
        picks = np.concatenate([np.arange(first, last) for first, last in zip(firsts, lasts)])
        owners = np.repeat(np.array(active) * width, np.subtract(lasts, firsts))
        close = _close_pairs(flat, owners + later[picks], owners + earlier[picks], pol).tolist()
        position = 0
        for k, stop, first, last in zip(active, stops, firsts, lasts):
            rows = _greedy_rows(close[position : position + last - first], counts[k], stop)
            position += last - first
            kept[k, counts[k] : len(rows)] = kept[k, rows[counts[k] :]]
            counts[k] = len(rows)
        active = [k for k in active if counts[k] < n_members and attempts[k] < cap]
    families = [None] * len(models)
    for count in dict.fromkeys(counts):
        ks = [k for k in range(len(models)) if counts[k] == count]
        labels = [f"E{row + 1}" for row in range(count)]
        for k, family in zip(ks, _families([labels] * len(ks), kept[ks, :count], pol)):
            families[k] = family
    return families


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
    return PureStateModel(np.array([1.0, 0.0]))


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


# The verdict fields that a compatibility record's detail reports, in order.
_VERDICT_DETAIL = (
    "commutation", "nondisturbance", "interposition", "sequence_symmetry", "commeasurable",
    "coincide", "mc_trials", "mc_disagreements", "mc_floor", "mc_consistent",
)


def _run_compatibility_equivalence(cfg: ExperimentConfig):
    """Per block of instances, instance i draws from its substream ``(i, 0)``
    whether its pair commutes and then the pair, and its Monte Carlo runs
    read ``derive(i, 1)``; each block's pairs and verdicts are stacked."""
    pol = cfg.tolerances
    base = SeededRng(cfg.seed)
    for indices in _instance_blocks(cfg):
        gens = [base.substream(index, 0) for index in indices]
        commuting = [gen.random() < cfg.commuting_fraction for gen in gens]
        pairs = _observable_pairs(cfg.dim, commuting, gens, pol)
        verdicts = _compatibility_verdicts(pairs, pol, cfg.mc_trials, [base.derive(index, 1) for index in indices])
        for intended, verdict in zip(commuting, verdicts):
            passed = verdict.coincide and verdict.mc_consistent
            detail = {"commuting_intended": bool(intended)}
            detail.update((name, getattr(verdict, name)) for name in _VERDICT_DETAIL)
            yield passed, 0.0 if passed else verdict.max_violation, detail


def _instance_blocks(cfg: ExperimentConfig, first: int = 0):
    """The campaign's instance indices, from ``first``, in blocks of at most
    ``_INSTANCE_BLOCK``."""
    stop = first + cfg.instances
    for start in range(first, stop, _INSTANCE_BLOCK):
        yield range(start, min(start + _INSTANCE_BLOCK, stop))


def _domain_blocks(cfg: ExperimentConfig):
    """Per block, the ``DomainStacks`` of its instances: instance i's Haar
    state and then its 10-member family, drawn from its own substream
    ``(i, 0)``, with the family's linear algebra stacked over the block."""
    base = SeededRng(cfg.seed)
    for indices in _instance_blocks(cfg):
        gens = [base.substream(index, 0) for index in indices]
        models = [PureStateModel(haar_random_ket(cfg.dim, gen)) for gen in gens]
        yield DomainStacks(models, _property_families(10, models, gens, cfg.tolerances), cfg.tolerances)


def _run_predictable_vs_compatible(cfg: ExperimentConfig):
    for domains in _domain_blocks(cfg):
        for passed, predictable, compatible, residuals, split_ok in zip(
            domains.predictable_equals_compatible, domains.predictable, domains.compatible,
            domains.pivot_residuals, domains.splits,
        ):
            inside = [residual for label, residual in residuals.items() if label in compatible]
            outside = [residual for label, residual in residuals.items() if label not in compatible]
            yield passed, max(inside, default=0.0), {
                "predictable": sorted(predictable),
                "compatible": sorted(compatible),
                "split_identity_ok": split_ok,
                "min_noncompatible_residual": min(outside, default=None),
            }


def _run_objective_vs_predictable(cfg: ExperimentConfig):
    for domains in _domain_blocks(cfg):
        for passed, objective, predictable in zip(
            domains.objective_equals_predictable, domains.objective, domains.predictable
        ):
            yield passed, 0.0, {"objective": sorted(objective), "predictable": sorted(predictable)}


@functools.lru_cache(maxsize=16)
def _nondistributivity_witness(pol: TolerancePolicy):
    """Row for the worked qubit triple, on which the distributive law
    strictly fails; computed once per policy, so callers copy its detail."""
    family = reference_qubit_family(pol)
    stack = family.projection_stack
    ground, excited, superposed = (stack[family.index(label)] for label in ("P0", "P1", "Pplus"))
    lhs = meet(superposed, join(ground, excited, pol), pol)
    rhs = join(meet(superposed, ground, pol), meet(superposed, excited, pol), pol)
    gap = float(_frobenius_norms(lhs - rhs))
    rhs_zero = _ranks(rhs, pol.eig_gap) == 0
    passed = bool(_frobenius_norms(lhs - superposed) < pol.op_tol and rhs_zero and gap > 100.0 * pol.op_tol)
    return passed, 0.0 if passed else gap, {"check": "nondistributivity_witness", "gap": gap}


def _run_lattice_laws(cfg: ExperimentConfig):
    """The witness row, then instances 1 to ``instances``. Instance i draws,
    from its substream ``(i, 0)``: p's rank and Gaussian matrix, q's, a Haar
    atom, and the Gaussian matrix of a line r; p, q and r span the leading
    columns of their matrices' QR factors. Per block, each law is one
    stacked call: the orthomodular law on p <= p v r, the De Morgan gap of
    (p, q), covering of p by the atom, and atomicity through p's first range
    vector."""
    pol, dim = cfg.tolerances, cfg.dim
    base = SeededRng(cfg.seed)
    passed, residual, detail = _nondistributivity_witness(pol)
    yield passed, residual, dict(detail)
    for indices in _instance_blocks(cfg, first=1):
        ranks, raws, atom_kets = [], [], []
        for index in indices:
            gen = base.substream(index, 0)
            for _ in range(2):
                ranks.append(int(gen.integers(1, dim)))
                raws.append(_gaussian_matrix(dim, gen))
            atom_kets.append(haar_random_ket(dim, gen))
            ranks.append(1)
            raws.append(_gaussian_matrix(dim, gen))
        unitaries, _ = np.linalg.qr(np.stack(raws))
        subspaces = validated_projections(_leading_dyads(unitaries, ranks))
        p, q, line = subspaces[0::3], subspaces[1::3], subspaces[2::3]
        range_kets = _range_kets(p)
        _check_unit_rows(range_kets, pol.norm_tol)
        kets = np.stack([atom_kets, range_kets])[..., None]
        atoms, witnesses = validated_projections(kets @ kets.conj().mT)

        orthomodular = orthomodular_holds(p, join(p, line, pol), pol)
        gaps = de_morgan_gaps(p, q, pol)
        covering = covering_holds(atoms, p, pol)
        atomicity = is_atom(witnesses, pol) & leq(witnesses, p, pol)

        for orthomodular_ok, gap, covering_ok, atomicity_ok in zip(
            orthomodular.tolist(), gaps.tolist(), covering.tolist(), atomicity.tolist()
        ):
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
    probes += [ket / np.linalg.norm(ket) for ket in _range_kets(stack[is_atom(stack, pol)])]
    domains = DomainStacks([PureStateModel(probe) for probe in probes], family, pol)
    overlaps = [sorted(true & false) for true, false in domains.certain if true & false]
    if overlaps:
        raise ValueError(f"certainly true and certainly false overlap on {overlaps[0]}")
    domain_ok = all(domains.predictable_equals_compatible) and all(domains.objective_equals_predictable)
    yield domain_ok, 0.0, {"check": "domain_equalities", "states": len(probes)}
