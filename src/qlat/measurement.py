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
    TolerancePolicy,
    _frobenius_norms,
    _commutator_norms,
    _spectral_stacks,
    validated_projections,
)

__all__ = [
    "Observable",
    "SeededRng",
    "CompatibilityVerdict",
    "haar_random_ket",
    "leak_norms",
    "yes_no_stack",
    "criterion_holds",
    "sequential_disagreements",
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
    of ``eigenvalues[k]``, is one read-only (k, d, d) stack, validated once
    by ``validated_projections``: here, or in one call over the stacks of
    many observables built together. The projections are mutually
    orthogonal and sum to the identity (guaranteed by _spectral_stacks,
    re-checked in tests, not checked here).
    """

    operator: HermitianOperator
    eigenvalues: tuple[float, ...]
    projection_stack: np.ndarray

    def __post_init__(self) -> None:
        (checked,) = _observables([self.operator], [(self.eigenvalues, self.projection_stack)])
        object.__setattr__(self, "eigenvalues", checked.eigenvalues)
        object.__setattr__(self, "projection_stack", checked.projection_stack)

    @classmethod
    def from_operator(cls, operator, pol: TolerancePolicy = DEFAULT_POLICY) -> "Observable":
        if not isinstance(operator, HermitianOperator):
            operator = HermitianOperator(operator)
        return _observables([operator], _spectral_stacks(operator.matrix[None], pol))[0]

    @property
    def dim(self) -> int:
        return self.operator.dim


def _observables(operators, spectra) -> list[Observable]:
    """An ``Observable`` of each operator and its (eigenvalues, projection
    stack), with the constructor's checks: the eigenvalues as strictly
    ascending floats, and the stacks validated and made read-only by one
    ``validated_projections`` call over all of them."""
    checked = []
    for operator, (eigenvalues, stack) in zip(operators, spectra):
        eigenvalues = tuple(float(value) for value in eigenvalues)
        if not eigenvalues:
            raise ValueError("spectrum must be nonempty")
        if any(b <= a for a, b in zip(eigenvalues, eigenvalues[1:])):
            raise ValueError(f"eigenvalues must be strictly ascending, got {list(eigenvalues)}")
        stack = np.asarray(stack, dtype=np.complex128)
        expected = (len(eigenvalues), operator.dim, operator.dim)
        if stack.shape != expected:
            raise ValueError(f"projection stack has shape {stack.shape}, expected {expected}")
        checked.append((operator, eigenvalues, stack))
    validated = validated_projections(np.concatenate([stack for *_, stack in checked]))
    validated.setflags(write=False)
    bounds = np.cumsum([len(eigenvalues) for _, eigenvalues, _ in checked])[:-1]
    observables = []
    for (operator, eigenvalues, _), stack in zip(checked, np.split(validated, bounds)):
        observable = object.__new__(Observable)
        fields = {"operator": operator, "eigenvalues": eigenvalues, "projection_stack": stack}
        for name, value in fields.items():
            object.__setattr__(observable, name, value)
        observables.append(observable)
    return observables


def haar_random_ket(dim: int, rng) -> Ket:
    """Haar-distributed pure state: 2*dim independent Gaussians, normalized."""
    return Ket(_haar_states(dim, _generator_of(rng), (1,))[0])


def _haar_states(dim: int, gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Haar states of shape ``shape + (dim,)`` from one ``standard_normal``
    call of 2 * dim normals per state; the rows too short to normalize are
    then redrawn together, in row order, from the same stream. A ``dim``
    below 1 raises ValueError before the stream is read: its rows would be
    empty, never long enough to normalize."""
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
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
    outcome projections that ``Observable.from_operator`` recomputes from E
    through ``eigh``, except that E = 0 and E = I keep a zero outcome, which
    leaks nothing."""
    return np.stack([orthocomplement(projections), projections], axis=-3)


def _sandwich_defects(first: Observable, second: Observable) -> tuple[float, float]:
    """From the leak norms over every outcome pair (n, k), in both roles of
    the two observables: the largest norm, which is the non-disturbance
    residual, and the larger of the two sums of squared norms divided by the
    dimension, which is the exact disagreement rate of the worse measurement
    order over Haar-random initial states. Each sum runs over Python floats
    in (outer, inner) outcome order, whatever numpy's order.

    For one first-second-first run the disagreement probability of a state
    psi is sum over (n, k) of |(I - P_n) Q_k P_n psi|^2, whose Haar average
    is the squared-Frobenius sum divided by the dimension: the exact rate of
    that order. A trial runs both orders on independent states, so the rate
    is also a lower bound on the probability that a trial disagrees in
    either order."""
    _check_pair(first, second)
    forward, backward = leak_norms(first.projection_stack, second.projection_stack)
    worst = max(float(forward.max()), float(backward.max()))
    rate = max(sum(norm**2 for norm in norms.ravel().tolist()) for norms in (forward, backward))
    return worst, rate / first.dim


def _sandwich_residuals(first: Observable, second: Observable) -> tuple[float, float]:
    """The interposition and the sequence-symmetry residuals, from one stack
    each of the products P_n Q_k P_n and Q_k P_n Q_k over every outcome pair
    (n, k). Interposition is the largest |Q_k - sum_n P_n Q_k P_n|_F or
    |P_n - sum_k Q_k P_n Q_k|_F, how far an interposed nonselective
    measurement moves an outcome projection; sequence symmetry is the
    largest |P_n Q_k P_n - Q_k P_n Q_k|_F."""
    p, q = _pair_stacks(first, second)
    pqp, qpq = p @ q @ p, q @ p @ q
    moved = np.concatenate([q[0] - pqp.sum(axis=0), p[:, 0] - qpq.sum(axis=1)])
    return float(_frobenius_norms(moved, 2).max()), float(_frobenius_norms(pqp - qpq, 2).max())


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


def _joints(stacks: np.ndarray, counts) -> list[Observable]:
    """Commeasurability witness of each commuting pair of ``_padded_stacks``'
    ``stacks[:, j]``, whose second observable has ``counts[j]`` outcomes: its
    eigenprojections are the nonzero products P_n Q_k, and its eigenvalue
    n * K + k (K outcomes of the second) encodes the outcome pair, so one
    measurement gives both. Only the kept products are validated."""
    products = stacks[0][:, :, None] @ stacks[1][:, None]
    kept = np.trace(products, axis1=-2, axis2=-1).real >= 0.5
    operators, spectra = [], []
    for pair_products, pair_kept, count in zip(products, kept, counts):
        outer, inner = np.nonzero(pair_kept)
        values = (outer * count + inner).astype(float)
        stack = pair_products[pair_kept]
        matrix = np.einsum("k,kij->ij", values, stack)
        operators.append(HermitianOperator((matrix + matrix.conj().T) / 2.0))
        spectra.append((values, stack))
    return _observables(operators, spectra) if operators else []


# Pair-trials per pass of array work in the Monte Carlo engine; bounds memory
# without changing any count. At d = 8 a pass of 1,024 peaks at about 5 MB;
# passes of 4,096 (about 16 MB) ran slower at 256 trials per pair.
_MC_BLOCK = 1024


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
    of ``haar_random_ket`` and three single-shot measurements per order (the
    tests' reference route) reads both streams in that same order, and the
    counts do not depend on the block size. (The one exception is a Haar draw too short to
    normalize, below 1e-24 likely per state, which is redrawn after the
    normals of its block.) The measurements of a whole block of trials run
    at once. The one-pair case of ``_disagreement_counts``.
    """
    _check_pair(first, second)
    return tuple(_disagreement_counts(*_padded_stacks([(first, second)]), trials, [rng], pol)[0].tolist())


def _disagreement_counts(
    stacks: np.ndarray, last: np.ndarray, trials: int, rngs, pol: TolerancePolicy
) -> np.ndarray:
    """``sequential_disagreements`` of every pair of ``_padded_stacks``, pair
    j with ``rngs[j]``: the (pairs, 2) forward and backward counts. Each pair
    reads its own streams in blocks of at most ``_MC_BLOCK`` trials, as one
    pair alone does, and one pass measures the blocks of as many pairs as fit
    in ``_MC_BLOCK`` pair-trials."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    streams = [(rng.substream(0), rng.substream(1)) for rng in rngs]
    span = min(trials, _MC_BLOCK)
    group = max(1, _MC_BLOCK // span)
    counts = np.zeros((len(streams), 2), dtype=np.int64)
    for low in range(0, len(streams), group):
        pairs = slice(low, low + group)
        opening, ends = stacks[:, pairs], last[:, pairs]
        for start in range(0, trials, span):
            block = min(span, trials - start)
            drawn = [_draw_block(*pair_streams, block, stacks.shape[-1]) for pair_streams in streams[pairs]]
            states, draws = (np.stack(parts, axis=1) for parts in zip(*drawn))
            _check_unit_rows(states, pol.norm_tol)
            opened, states = _measure_rows(states, opening, ends, draws[..., 0], pol)
            _, states = _measure_rows(states, opening[::-1], ends[::-1], draws[..., 1], pol)
            closed, _ = _measure_rows(states, opening, ends, draws[..., 2], pol)
            counts[pairs] += np.count_nonzero(closed != opened, axis=-1).T
    return counts


def _draw_block(
    normals: np.random.Generator, uniforms: np.random.Generator, trials: int, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of the next ``trials`` trials, taken in trial-major order
    and returned order-major: Haar states, shape (2, trials, dim), and
    measurement uniforms, shape (2, trials, 3)."""
    states = _haar_states(dim, normals, (trials, 2))
    draws = uniforms.random((trials, 2, 3))
    return states.swapaxes(0, 1), draws.swapaxes(0, 1)


def _padded_stacks(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The projection stacks of same-dimension observable pairs, padded with
    zero projections to one outcome count, shape (2, pairs, outcomes, d, d):
    ``[0, j]`` is pair j's first observable and ``[1, j]`` its second; and
    the last real outcome index of each, shape (2, pairs). A padded outcome
    has probability zero and is never chosen, and its products are zero."""
    counts = np.array([[len(observable.eigenvalues) for observable in side] for side in zip(*pairs)])
    dim = pairs[0][0].dim
    stacks = np.zeros((2, len(pairs), counts.max(), dim, dim), dtype=np.complex128)
    for j, pair in enumerate(pairs):
        for side, observable in enumerate(pair):
            stacks[side, j, : counts[side, j]] = observable.projection_stack
    return stacks, counts - 1


def _measure_rows(
    states: np.ndarray,
    stacks: np.ndarray,
    last: np.ndarray,
    uniforms: np.ndarray,
    pol: TolerancePolicy,
) -> tuple[np.ndarray, np.ndarray]:
    """One projective measurement of every state ``states[..., t, :]`` with
    the projection stack ``stacks[...]`` (outcomes past ``last[...]`` are
    zero padding) and the uniform draw ``uniforms[..., t]``: the outcome
    indices, sampled with Born weights by the inverse CDF, and the
    post-states, collapsed onto the chosen projection and normalized.
    Outcomes of zero probability are never chosen.

    Raises, for the first offending state, ValueError when its outcome
    probabilities do not sum to 1 within prob_tol, or when it or its
    post-state fails the ``Ket`` normalization guard.
    """
    # projected[..., k, t, :] is stacks[..., k] applied to states[..., t, :].
    projected = states[..., None, :, :] @ stacks.mT
    probabilities = np.einsum("...ti,...kti->...tk", states.conj(), projected).real
    probabilities = np.maximum(probabilities, 0.0)
    totals = probabilities.sum(axis=-1)
    _check_near_one(totals, pol.prob_tol, "outcome probabilities sum to {!r}, not 1")
    # Inverse CDF: the count of edges <= u * total equals
    # searchsorted(edges, u * total, side="right").
    edges = np.cumsum(probabilities, axis=-1)
    index = (edges <= (uniforms * totals)[..., None]).sum(axis=-1)
    beyond = index > last[..., None]
    if beyond.any():
        # Only an index pushed past the last outcome by rounding is clamped,
        # and only a clamped index can land on a zero-probability outcome:
        # any other chosen outcome lies strictly above the previous edge.
        index = np.where(beyond, last[..., None], index)
        chosen = np.take_along_axis(probabilities, index[..., None], axis=-1)[..., 0]
        empty = beyond & (chosen <= 0.0)
        index[empty] = probabilities[empty].argmax(axis=-1)
    collapsed = np.take_along_axis(projected, index[..., None, :, None], axis=-3)[..., 0, :, :]
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


def _trial_floor(rate: float) -> int:
    """Trials needed so that a pair violating exact non-disturbance, with the
    given exact disagreement rate, passes a zero-disagreement Monte Carlo run
    with probability below e**-50."""
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

    The four residuals come from three independent routes: the commutator,
    the (I - P)QP leaks, and one stack each of the PQP and QPQ products,
    which give both the interposition and the sequence-symmetry residual.
    The joint observable is built whenever commutation holds; the agreement
    of the five verdicts is the quantity under audit here, not an assumption.
    The one-pair case of ``_compatibility_verdicts``.
    """
    _check_pair(first, second)
    rngs = [SeededRng(0) if rng is None else rng]
    return _compatibility_verdicts([(first, second)], pol, trials, rngs)[0]


def _compatibility_verdicts(pairs, pol: TolerancePolicy, trials: int, rngs) -> list[CompatibilityVerdict]:
    """``compatibility_verdict`` of each pair of same-dimension observables,
    pair j with ``rngs[j]``. The commutators, the joints and the Monte Carlo
    runs of all pairs are stacked calls; the leak norms of ``_sandwich_defects``
    and the products of ``_sandwich_residuals`` are taken per pair."""
    dim = pairs[0][0].dim
    stacks, last = _padded_stacks(pairs)
    firsts, seconds = (np.stack([observable.operator.matrix for observable in side]) for side in zip(*pairs))
    commutators = _commutator_norms(firsts, seconds)
    commuting = criterion_holds("commutation", commutators, dim, pol)
    joints = iter(_joints(stacks[:, commuting], last[1, commuting] + 1))
    counts = _disagreement_counts(stacks, last, trials, rngs, pol).sum(axis=1).tolist()

    results = []
    for (first, second), commutator, count in zip(pairs, commutators.tolist(), counts):
        # The sandwich products give both the non-disturbance residual and
        # the analytic MC floor.
        leakage, disagreement_rate = _sandwich_defects(first, second)
        interposition, symmetry = _sandwich_residuals(first, second)
        residuals = {
            "commutation": commutator,
            "nondisturbance": leakage,
            "interposition": interposition,
            "sequence_symmetry": symmetry,
        }
        holds = {
            criterion: criterion_holds(criterion, value, dim, pol)
            for criterion, value in residuals.items()
        }
        joint = next(joints) if holds["commutation"] else None
        commeasurable = joint is not None
        # The MC pass rule: no disagreement when exact non-disturbance holds,
        # otherwise at least one once the trials reach the analytic floor.
        floor = 0 if holds["nondisturbance"] else _trial_floor(disagreement_rate)
        mc_consistent = count == 0 if holds["nondisturbance"] else (count > 0 or trials < floor)

        verdicts = (*holds.values(), commeasurable)
        violations = [residuals[criterion] for criterion, held in holds.items() if not held]
        if not commeasurable:
            violations.append(residuals["commutation"])
        results.append(
            CompatibilityVerdict(
                **holds,
                mc_trials=trials,
                mc_disagreements=count,
                mc_floor=floor,
                commeasurable=commeasurable,
                joint=joint,
                max_violation=max(violations, default=0.0),
                coincide=len(set(verdicts)) == 1,
                mc_consistent=mc_consistent,
            )
        )
    return results
