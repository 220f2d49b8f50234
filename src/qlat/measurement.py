"""Projective measurement calculus and the five compatibility criteria.

Each criterion has an exact operator-level check; the non-disturbance
criterion additionally has an operational Monte Carlo check built on seeded,
reproducible measurement sequences, so the equivalence of all five can be
audited rather than assumed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .lattice import orthocomplement
from .numerics import (
    DEFAULT_POLICY,
    HermitianOperator,
    Ket,
    Projection,
    TolerancePolicy,
    _frobenius_norms,
    commutator_norm,
    spectral_stack,
    validated_projections,
)

__all__ = [
    "Observable",
    "MeasurementOutcome",
    "SeededRng",
    "CompatibilityVerdict",
    "haar_random_ket",
    "born_probability",
    "measure",
    "leak_norms",
    "yes_no_stack",
    "criterion_holds",
    "commutes",
    "sequential_disagreements",
    "min_disagreement_probability",
    "mc_trial_floor",
    "compatibility_verdict",
]

@dataclass(frozen=True)
class SeededRng:
    """Reproducible random source: an identical seed gives an identical
    stream, and derived substreams are independent of evaluation order.

    The stream of an address (seed, key) is PCG64 seeded by
    ``np.random.SeedSequence(seed, spawn_key=key)``; ``generator`` is the
    address with an empty key. The Monte Carlo engine reads two streams per
    pair: key (0,) for the Haar normals and key (1,) for the measurement
    uniforms.
    """

    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _uint64(self.seed, "seed must be a 64-bit unsigned integer"))

    def _sequence(self, key: tuple[int, ...]) -> np.random.SeedSequence:
        key = tuple(_uint64(element, "key elements must be 64-bit unsigned integers") for element in key)
        return np.random.SeedSequence(self.seed, spawn_key=key)

    def generator(self) -> np.random.Generator:
        return self.substream()

    def substream(self, *key: int) -> np.random.Generator:
        """Generator for the substream addressed by the given index path."""
        return np.random.Generator(np.random.PCG64(self._sequence(key)))

    def derive(self, *key: int) -> "SeededRng":
        """New independent seeded source addressed by the given index path."""
        return SeededRng(int(self._sequence(key).generate_state(1, np.uint64)[0]))


def _uint64(value, message: str) -> int:
    """The value as an int; ValueError with the message unless it is an
    integer, and not a bool, in [0, 2**64)."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and 0 <= int(value) < 2**64):
        raise ValueError(f"{message}, got {value!r}")
    return int(value)


def _generator_of(rng) -> np.random.Generator:
    if isinstance(rng, SeededRng):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected SeededRng or numpy Generator, got {type(rng).__name__}")


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with its clustered spectral resolution.

    ``eigenvalues`` ascend strictly; ``projection_stack[k]``, the projection
    of ``eigenvalues[k]``, is one read-only (k, d, d) stack, validated once,
    here, by ``validated_projections``. The projections are mutually
    orthogonal and sum to the identity (guaranteed by spectral_stack,
    re-checked in tests, not checked here).
    """

    operator: HermitianOperator
    eigenvalues: tuple[float, ...]
    projection_stack: np.ndarray

    def __post_init__(self) -> None:
        eigenvalues = tuple(float(value) for value in self.eigenvalues)
        if not eigenvalues:
            raise ValueError("spectrum must be nonempty")
        if any(b <= a for a, b in zip(eigenvalues, eigenvalues[1:])):
            raise ValueError(f"eigenvalues must be strictly ascending, got {list(eigenvalues)}")
        stack = np.asarray(self.projection_stack, dtype=np.complex128)
        expected = (len(eigenvalues), self.dim, self.dim)
        if stack.shape != expected:
            raise ValueError(f"projection stack has shape {stack.shape}, expected {expected}")
        stack = validated_projections(stack)
        stack.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "projection_stack", stack)

    @classmethod
    def from_operator(cls, operator, pol: TolerancePolicy = DEFAULT_POLICY) -> "Observable":
        if not isinstance(operator, HermitianOperator):
            operator = HermitianOperator(operator)
        return cls(operator, *spectral_stack(operator, pol))

    @classmethod
    def from_projection(cls, projection: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> "Observable":
        """The property as a yes/no observable with outcomes 0 and 1."""
        return cls.from_operator(HermitianOperator(projection.matrix), pol)

    @property
    def dim(self) -> int:
        return self.operator.dim


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    eigenvalue: float
    outcome_index: int
    probability: float
    post_state: Ket


def haar_random_ket(dim: int, rng) -> Ket:
    """Haar-distributed pure state: 2*dim independent Gaussians, normalized."""
    return Ket(_haar_states(dim, _generator_of(rng), (1,))[0])


def _haar_states(dim: int, gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Haar states of shape ``shape + (dim,)`` from one ``standard_normal``
    call of 2 * dim normals per state; the rows too short to normalize are
    then redrawn together, in row order, from the same stream."""
    states, kept = _haar_rows(gen.standard_normal((*shape, 2 * dim)))
    while not kept.all():
        short = ~kept
        redraw = gen.standard_normal((np.count_nonzero(short), 2 * dim))
        states[short], kept[short] = _haar_rows(redraw)
    return states


def _haar_rows(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one definition of the Haar state from a row of 2 * dim normals:
    dim real parts, then dim imaginary parts, divided by their norm. Returns
    the states of all rows along the last axis and whether each row's norm
    exceeds 1e-6; a row at or below it must be redrawn, and its state is
    meaningless."""
    dim = normals.shape[-1] // 2
    raw = normals[..., :dim] + 1j * normals[..., dim:]
    norms = _frobenius_norms(raw, 1)
    return raw / norms[..., None], norms > 1e-6


def born_probability(state: Ket, projection: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Probability of the yes outcome for the property in the given state."""
    if state.dim != projection.dim:
        raise ValueError(f"dimension mismatch: {state.dim} vs {projection.dim}")
    value = float(np.vdot(state.amplitudes, projection.matrix @ state.amplitudes).real)
    if value < -pol.prob_tol or value > 1.0 + pol.prob_tol:
        raise ValueError(f"probability {value!r} outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def measure(state: Ket, observable: Observable, rng, pol: TolerancePolicy = DEFAULT_POLICY) -> MeasurementOutcome:
    """One projective measurement: sample an outcome with Born weights and
    collapse onto the normalized projection of the state.

    Outcomes of zero probability are never sampled. ``rng`` may be a SeededRng
    (a fresh stream) or a numpy Generator (advances the caller's stream, which
    is what measurement sequences need).
    """
    if state.dim != observable.dim:
        raise ValueError(f"dimension mismatch: {state.dim} vs {observable.dim}")
    gen = _generator_of(rng)
    amplitudes = state.amplitudes
    stack = observable.projection_stack
    probabilities = np.einsum("i,kij,j->k", amplitudes.conj(), stack, amplitudes).real
    probabilities = np.clip(probabilities, 0.0, None)
    total = float(probabilities.sum())
    if abs(total - 1.0) > pol.prob_tol:
        raise ValueError(f"outcome probabilities sum to {total!r}, not 1")
    edges = np.cumsum(probabilities)
    index = int(np.searchsorted(edges, gen.random() * total, side="right"))
    if index >= probabilities.size:
        index = probabilities.size - 1
    if probabilities[index] <= 0.0:
        index = int(np.argmax(probabilities))
    collapsed = stack[index] @ amplitudes
    collapsed = collapsed / np.linalg.norm(collapsed)
    return MeasurementOutcome(
        eigenvalue=observable.eigenvalues[index],
        outcome_index=index,
        probability=float(min(probabilities[index], 1.0)),
        post_state=Ket(collapsed),
    )


def _check_pair(first: Observable, second: Observable) -> None:
    if first.dim != second.dim:
        raise ValueError(f"dimension mismatch: {first.dim} vs {second.dim}")


def _pair_stacks(first: Observable, second: Observable) -> tuple[np.ndarray, np.ndarray]:
    """The projection stacks as p[n, 1] and q[1, k], so that their products
    broadcast to (n, k, dim, dim), indexed by outcome pair."""
    _check_pair(first, second)
    return first.projection_stack[:, None], second.projection_stack[None]


def leak_norms(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one Frobenius leak, |(I - P_n) Q_k P_n|_F, of outcome stacks p,
    shape (..., n, d, d), and q, shape (..., k, d, d), whose leading batch
    axes broadcast, in both roles: ``forward[..., n, k]`` is that norm and
    ``backward[..., k, n]`` is |(I - Q_k) P_n Q_k|_F."""
    eye = np.eye(p.shape[-1], dtype=np.complex128)
    p, q = p[..., :, None, :, :], q[..., None, :, :, :]
    forward = _frobenius_norms((eye - p) @ q @ p)
    backward = _frobenius_norms((eye - q) @ p @ q)
    return forward, backward.swapaxes(-1, -2)


def yes_no_stack(projections: np.ndarray) -> np.ndarray:
    """Outcome stacks of the yes/no observables of a (..., d, d) stack of
    projections E, shape (..., 2, d, d): outcome 0 is I - E, validated by
    ``validated_projections``, and outcome 1 is E itself. These are the
    outcome projections that ``Observable.from_projection`` recomputes
    through ``eigh``, except that E = 0 and E = I keep a zero outcome, which
    leaks nothing."""
    return np.stack([orthocomplement(projections), projections], axis=-3)


def _sandwich_defects(first: Observable, second: Observable) -> tuple[float, float]:
    """From the leak norms over every outcome pair (n, k), in both roles of
    the two observables: the largest norm, and the larger of the two sums of
    squared norms divided by the dimension. Each sum runs over Python floats
    in (outer, inner) outcome order, whatever numpy's order."""
    _check_pair(first, second)
    forward, backward = leak_norms(first.projection_stack, second.projection_stack)
    worst = max(float(forward.max()), float(backward.max()))
    rate = max(sum(norm**2 for norm in norms.ravel().tolist()) for norms in (forward, backward))
    return worst, rate / first.dim


def nondisturbance_residual(first: Observable, second: Observable) -> float:
    """Largest leakage of any eigenspace of either observable under a
    measurement of the other; zero exactly when sequential measurements in
    either order leave each other's results intact."""
    return _sandwich_defects(first, second)[0]


def interposition_residual(first: Observable, second: Observable) -> float:
    """Largest |Q_k - sum_n P_n Q_k P_n|_F or |P_n - sum_k Q_k P_n Q_k|_F:
    how far an interposed nonselective measurement moves an outcome projection."""
    p, q = _pair_stacks(first, second)
    moved = np.concatenate([q[0] - (p @ q @ p).sum(axis=0), p[:, 0] - (q @ p @ q).sum(axis=1)])
    return float(_frobenius_norms(moved, 2).max())


def sequence_symmetry_residual(first: Observable, second: Observable) -> float:
    """Largest |P_n Q_k P_n - Q_k P_n Q_k|_F over every outcome pair (n, k)."""
    p, q = _pair_stacks(first, second)
    return float(_frobenius_norms(p @ q @ p - q @ p @ q, 2).max())


# Threshold of each exact criterion decided by an operator residual, in
# units of op_tol: True where it scales with the dimension. Every verdict on
# these criteria, here and in the domains and the semantics, is taken by
# criterion_holds from this table.
_DIM_SCALED = {
    "commutation": True,
    "nondisturbance": False,
    "interposition": True,
    "sequence_symmetry": False,
}


def criterion_holds(
    criterion: str, residual: float, dim: int, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Verdict of one exact criterion from its residual, or their mask from an
    array: below op_tol, times the dimension for commutation and interposition."""
    return residual < pol.op_tol * (dim if _DIM_SCALED[criterion] else 1)


def commutes(first: Observable, second: Observable, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Commutation criterion on the representing operators."""
    residual = commutator_norm(first.operator, second.operator)
    return criterion_holds("commutation", residual, first.dim, pol)


def _joint_of(first: Observable, second: Observable) -> Observable:
    """Commeasurability witness of a commuting pair: its eigenprojections are
    the nonzero products P_n Q_k, and its eigenvalue n * K + k (K outcomes of
    the second) encodes the outcome pair, so one measurement gives both."""
    products = first.projection_stack[:, None] @ second.projection_stack[None]
    kept = np.trace(products, axis1=-2, axis2=-1).real >= 0.5
    values = np.flatnonzero(kept).astype(float)
    matrix = np.einsum("k,kij->ij", values, products[kept])
    operator = HermitianOperator((matrix + matrix.conj().T) / 2.0)
    return Observable(operator, tuple(values), products[kept])


# Trials per block of array work in sequential_disagreements; bounds memory
# for large trial counts without changing any count.
_MC_BLOCK = 4096


def sequential_disagreements(
    first: Observable,
    second: Observable,
    trials: int,
    rng: SeededRng,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> tuple[int, int]:
    """Simulated first-second-first and second-first-second measurement runs
    on Haar-random states; returns the per-order disagreement counts.

    The trials of a pair read two streams of ``rng``: ``substream(0)`` for
    the Haar normals and ``substream(1)`` for the measurement uniforms. Both
    are read in trial-major order, trial by trial and within a trial first
    the forward order and then the backward one: 2 * dim normals for the
    order's Haar state and three uniforms for its three measurements. A loop
    of ``haar_random_ket`` and three single-shot ``measure`` calls per order
    reads both streams in that same order, and the counts do not depend on
    the block size. (The one exception is a Haar draw too short to
    normalize, below 1e-24 likely per state, which is redrawn after the
    normals of its block.) The measurements of a whole block of trials run
    at once.
    """
    _check_pair(first, second)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    normals, uniforms = rng.substream(0), rng.substream(1)
    opening, last = _padded_stacks(first, second)
    interposed = opening[::-1]
    counts = np.zeros(2, dtype=np.int64)
    for start in range(0, trials, _MC_BLOCK):
        block = min(_MC_BLOCK, trials - start)
        states, draws = _draw_block(normals, uniforms, block, first.dim)
        _check_unit_rows(states, pol.norm_tol)
        opened, states = _measure_rows(states, opening, last, draws[..., 0], pol)
        _, states = _measure_rows(states, interposed, last[::-1], draws[..., 1], pol)
        closed, _ = _measure_rows(states, opening, last, draws[..., 2], pol)
        counts += np.count_nonzero(closed != opened, axis=1)
    return int(counts[0]), int(counts[1])


def _draw_block(
    normals: np.random.Generator, uniforms: np.random.Generator, trials: int, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of the next ``trials`` trials, taken in trial-major order
    and returned order-major: Haar states, shape (2, trials, dim), and
    measurement uniforms, shape (2, trials, 3)."""
    states = _haar_states(dim, normals, (trials, 2))
    draws = uniforms.random((trials, 2, 3))
    return states.swapaxes(0, 1), draws.swapaxes(0, 1)


def _padded_stacks(first: Observable, second: Observable) -> tuple[np.ndarray, np.ndarray]:
    """The projection stacks of both observables, padded with zero
    projections to a common outcome count, and the last real outcome index
    of each. A padded outcome has probability zero and is never chosen."""
    counts = len(first.eigenvalues), len(second.eigenvalues)
    stacks = np.zeros((2, max(counts), first.dim, first.dim), dtype=np.complex128)
    stacks[0, : counts[0]] = first.projection_stack
    stacks[1, : counts[1]] = second.projection_stack
    return stacks, np.array(counts) - 1


def _measure_rows(
    states: np.ndarray,
    stacks: np.ndarray,
    last: np.ndarray,
    uniforms: np.ndarray,
    pol: TolerancePolicy,
) -> tuple[np.ndarray, np.ndarray]:
    """``measure`` applied to every state ``states[o, t]`` with the
    projection stack ``stacks[o]`` (outcomes past ``last[o]`` are zero
    padding) and the uniform draw ``uniforms[o, t]``: the outcome indices
    and the collapsed, normalized post-states.

    Applies the guards of ``measure`` and ``Ket`` to every state and raises
    their messages for the first offending one.
    """
    # projected[o, k, t] is stacks[o, k] applied to states[o, t].
    projected = states[:, None] @ stacks.swapaxes(-1, -2)
    probabilities = np.einsum("oti,okti->otk", states.conj(), projected).real
    probabilities = np.maximum(probabilities, 0.0)
    totals = probabilities.sum(axis=-1)
    _check_near_one(totals, pol.prob_tol, "outcome probabilities sum to {!r}, not 1")
    # Inverse CDF: the count of edges <= u * total equals
    # searchsorted(edges, u * total, side="right").
    edges = np.cumsum(probabilities, axis=-1)
    index = (edges <= (uniforms * totals)[..., None]).sum(axis=-1)
    order = np.arange(len(stacks))[:, None]
    trial = np.arange(index.shape[1])
    beyond = index > last[:, None]
    if beyond.any():
        # Only an index pushed past the last outcome by rounding is clamped,
        # and only a clamped index can land on a zero-probability outcome:
        # any other chosen outcome lies strictly above the previous edge.
        index = np.where(beyond, last[:, None], index)
        empty = beyond & (probabilities[order, trial, index] <= 0.0)
        index[empty] = probabilities[empty].argmax(axis=-1)
    collapsed = projected[order, index, trial]
    collapsed /= np.sqrt(_squared_norms(collapsed))[..., None]
    _check_unit_rows(collapsed, pol.norm_tol)
    return index, collapsed


def _squared_norms(states: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", states.conj(), states).real


def _check_unit_rows(states: np.ndarray, tol: float) -> None:
    """The ``Ket`` normalization guard on every state along the last axis."""
    _check_near_one(
        _squared_norms(states),
        tol,
        "state vector is not normalized: squared norm is {!r}",
    )


def _check_near_one(values: np.ndarray, tol: float, message: str) -> None:
    deviation = np.abs(values - 1.0)
    if not deviation.max() <= tol:
        raise ValueError(message.format(float(values[~(deviation <= tol)][0])))


def min_disagreement_probability(first: Observable, second: Observable) -> float:
    """Exact disagreement rate of the worse measurement order over
    Haar-random initial states.

    For one first-second-first run the disagreement probability of a state
    psi is sum over (n, p) of |(I - P_n) Q_p P_n psi|^2, whose Haar average
    is the squared-Frobenius sum divided by the dimension: the exact rate of
    that order. The value is the larger of the two orders' rates. A trial
    runs both orders on independent states, so the value is also a lower
    bound on the probability that a trial disagrees in either order.
    """
    return _sandwich_defects(first, second)[1]


def mc_trial_floor(first: Observable, second: Observable) -> int:
    """Trials needed so that a pair violating exact non-disturbance passes a
    zero-disagreement Monte Carlo run with probability below e**-50."""
    return _trial_floor(min_disagreement_probability(first, second))


def _trial_floor(rate: float) -> int:
    if rate <= 0.0:
        return 2**62
    return min(2**62, math.ceil(50.0 / rate))


@dataclass(frozen=True, eq=False)
class CompatibilityVerdict:
    """Per-pair record of the five compatibility criteria plus evidence.

    ``coincide`` states that the five exact verdicts agree; ``mc_consistent``
    states that the operational run matches the exact non-disturbance verdict
    (zero disagreements when it holds, at least one when it fails and the
    trial count reaches the analytic floor).
    """

    commutation: bool
    nondisturbance: bool
    mc_trials: int
    mc_disagreements: int
    mc_floor: int
    interposition: bool
    sequence_symmetry: bool
    commeasurable: bool
    joint: Observable | None
    max_violation: float
    coincide: bool
    mc_consistent: bool


def compatibility_verdict(
    first: Observable,
    second: Observable,
    pol: TolerancePolicy = DEFAULT_POLICY,
    trials: int = 1000,
    rng: SeededRng | None = None,
) -> CompatibilityVerdict:
    """Evaluate all five compatibility criteria on one observable pair.

    The four residuals are computed independently of each other, and the
    joint observable is built whenever commutation holds; the agreement of
    the five verdicts is the quantity under audit here, not an assumption.
    """
    if rng is None:
        rng = SeededRng(0)
    dim = first.dim

    # The sandwich products give both the non-disturbance residual and the
    # analytic MC floor.
    leakage, disagreement_rate = _sandwich_defects(first, second)
    residuals = {
        "commutation": commutator_norm(first.operator, second.operator),
        "nondisturbance": leakage,
        "interposition": interposition_residual(first, second),
        "sequence_symmetry": sequence_symmetry_residual(first, second),
    }
    holds = {
        criterion: criterion_holds(criterion, value, dim, pol)
        for criterion, value in residuals.items()
    }
    joint = _joint_of(first, second) if holds["commutation"] else None
    commeasurable = joint is not None

    # The MC pass rule: no disagreement when exact non-disturbance holds,
    # otherwise at least one once the trials reach the analytic floor.
    count = sum(sequential_disagreements(first, second, trials, rng, pol))
    floor = 0 if holds["nondisturbance"] else _trial_floor(disagreement_rate)
    mc_consistent = count == 0 if holds["nondisturbance"] else (count > 0 or trials < floor)

    verdicts = (*holds.values(), commeasurable)
    violations = [residuals[criterion] for criterion, held in holds.items() if not held]
    if not commeasurable:
        violations.append(residuals["commutation"])
    return CompatibilityVerdict(
        commutation=holds["commutation"],
        nondisturbance=holds["nondisturbance"],
        mc_trials=trials,
        mc_disagreements=count,
        mc_floor=floor,
        interposition=holds["interposition"],
        sequence_symmetry=holds["sequence_symmetry"],
        commeasurable=commeasurable,
        joint=joint,
        max_violation=max(violations, default=0.0),
        coincide=len(set(verdicts)) == 1,
        mc_consistent=mc_consistent,
    )
