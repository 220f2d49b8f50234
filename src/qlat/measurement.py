"""Projective measurement calculus and the five compatibility criteria.

Each criterion has an exact operator-level check; the non-disturbance
criterion additionally has an operational Monte Carlo check built on seeded,
reproducible measurement sequences, so the equivalence of all five can be
audited rather than assumed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import (
    DEFAULT_POLICY,
    HermitianOperator,
    Ket,
    Projection,
    TolerancePolicy,
    commutator_norm,
    spectral_decompose,
)

__all__ = [
    "Observable",
    "MeasurementOutcome",
    "SeededRng",
    "CompatibilityVerdict",
    "haar_random_ket",
    "born_probability",
    "measure",
    "criterion_holds",
    "commutes",
    "nondisturbing",
    "sequential_disagreements",
    "nondisturbing_mc",
    "interposition_invariant",
    "sequence_symmetric",
    "joint_observable",
    "min_disagreement_probability",
    "mc_trial_floor",
    "compatibility_verdict",
]

_KNOWN_ALGORITHMS = ("pcg64",)

# The hash of numpy.random.SeedSequence, which turns the entropy words of an
# address (seed, key) into the seed words of its PCG64 stream. The seed's
# 32-bit words, zero-padded to the pool size, are hashed into a pool of four
# words and mixed across it; each 32-bit word of the key is then hashed and
# mixed into every pool word, and the pool is hashed into eight output words,
# two per uint64 seed word. The same functions run on Python ints and on
# uint64 arrays: every product is reduced modulo 2**32.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# The seed's part takes the first 16 hashes: one per pool word, then one per
# ordered pair of distinct pool words.
_SEED_HASHES = _POOL_SIZE * _POOL_SIZE
_MAX_KEY_WORDS = 16


def _hash_chain(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) constants of ``count`` successive hashes: each
    hash multiplies by the next power of ``mult`` times ``init``."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return list(zip(chain, chain[1:]))


_ENTROPY_CHAIN = _hash_chain(0x43B0D7E5, 0x931E8875, _SEED_HASHES + _POOL_SIZE * _MAX_KEY_WORDS)
_KEY_CHAIN = _ENTROPY_CHAIN[_SEED_HASHES:]
_OUTPUT_CHAIN = _hash_chain(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)
# Below this many addresses, hashing each on Python ints is faster than the
# fixed cost of the array operations.
_ARRAY_HASH_MIN = 4


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _key_words(key) -> list[int]:
    """The 32-bit words of a key: each element's little-endian words, at
    least one per element."""
    words = []
    for element in key:
        element = int(element)
        if not 0 <= element < 2**64:
            raise ValueError(f"key elements must be 64-bit unsigned integers, got {element!r}")
        words.append(element & _MASK32)
        if element > _MASK32:
            words.append(element >> 32)
    return words


def _check_key_length(words: int) -> None:
    if words > _MAX_KEY_WORDS:
        raise ValueError(f"keys hold at most {_MAX_KEY_WORDS} 32-bit words, got {words}")


@functools.lru_cache(maxsize=256)
def _seed_pool(seed: int) -> tuple[int, ...]:
    """The pool of a seed, before any key word is mixed in."""
    words = [seed & _MASK32, seed >> 32] if seed > _MASK32 else [seed]
    words += [0] * (_POOL_SIZE - len(words))
    chain = iter(_ENTROPY_CHAIN)
    pool = [_hashmix(word, *next(chain)) for word in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(chain)))
    return tuple(pool)


def _address_words(pool: tuple[int, ...], key_words: list[int]) -> list[int]:
    """The four seed words of one address, on Python ints."""
    _check_key_length(len(key_words))
    pool = list(pool)
    chain = iter(_KEY_CHAIN)
    for word in key_words:
        for i in range(_POOL_SIZE):
            pool[i] = _mix(pool[i], _hashmix(word, *next(chain)))
    out = [_hashmix(pool[i % _POOL_SIZE], *constants) for i, constants in enumerate(_OUTPUT_CHAIN)]
    return [low | high << 32 for low, high in zip(out[::2], out[1::2])]


def _block_words(pool: tuple[int, ...], key_words: np.ndarray) -> np.ndarray:
    """The seed words of many addresses, shape (addresses, 4), on uint64
    arrays; row r of ``key_words`` holds the key words of address r."""
    count = key_words.shape[1]
    _check_key_length(count)
    key_chain, output_chain = _array_chains(count)
    hashed = _hashmix(key_words[:, :, None], key_chain[..., 0], key_chain[..., 1])
    rows = np.full((len(key_words), _POOL_SIZE), pool, dtype=np.uint64)
    for column in range(count):
        rows = _mix(rows, hashed[:, column])
    out = _hashmix(np.tile(rows, 2), output_chain[:, 0], output_chain[:, 1])
    return out[:, ::2] | out[:, 1::2] << 32


@functools.lru_cache(maxsize=None)
def _array_chains(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants of ``count`` key words, shape (count, 4, 2), and
    of the output words, shape (8, 2), as uint64 arrays."""
    key_chain = np.array(_KEY_CHAIN[: _POOL_SIZE * count], dtype=np.uint64)
    return key_chain.reshape(count, _POOL_SIZE, 2), np.array(_OUTPUT_CHAIN, dtype=np.uint64)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Precomputed PCG64 seed words, handed to numpy's own PCG64 seeding."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only the four uint64 seed words of PCG64 are held")
        return self.words


def _stream(words: np.ndarray) -> np.random.Generator:
    """The generator of one substream from its seed words."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


@dataclass(frozen=True)
class SeededRng:
    """Reproducible random source: identical seed and algorithm give an
    identical stream, and derived substreams are independent of evaluation
    order.

    The stream of an address (seed, key) is PCG64 seeded as by
    ``np.random.SeedSequence(seed, spawn_key=key)``; the seed words of many
    addresses are computed together by ``stream_words``.
    """

    seed: int
    algorithm: str = "pcg64"

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.algorithm not in _KNOWN_ALGORITHMS:
            raise ValueError(
                f"unknown rng algorithm {self.algorithm!r}, expected one of {_KNOWN_ALGORITHMS}"
            )

    def stream_words(self, keys) -> np.ndarray:
        """PCG64 seed words, shape (addresses, 4) uint64, of the substreams
        addressed by ``keys`` (one index path per address, of nonnegative
        integers below 2**64): row r equals
        ``np.random.SeedSequence(seed, spawn_key=keys[r]).generate_state(4, np.uint64)``.
        """
        pool = _seed_pool(int(self.seed))
        if len(keys) >= _ARRAY_HASH_MIN:
            array = np.asarray(keys)
            if (
                array.ndim == 2
                and array.dtype.kind in "iu"
                and 0 <= array.min(initial=0)
                and array.max(initial=0) <= _MASK32
            ):
                return _block_words(pool, array.astype(np.uint64))
        # A handful of addresses, or keys with elements of 2**32 or more
        # (two words each), are hashed one address at a time.
        words = [_address_words(pool, _key_words(key)) for key in keys]
        return np.array(words, dtype=np.uint64).reshape(len(keys), _POOL_SIZE)

    def generator(self) -> np.random.Generator:
        return _stream(self.stream_words([()])[0])

    def substream(self, *key: int) -> np.random.Generator:
        """Generator for the substream addressed by the given index path."""
        return _stream(self.stream_words([key])[0])

    def derive(self, *key: int) -> "SeededRng":
        """New independent seeded source addressed by the given index path."""
        return SeededRng(int(self.stream_words([key])[0, 0]), self.algorithm)


def _generator_of(rng) -> np.random.Generator:
    if isinstance(rng, SeededRng):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected SeededRng or numpy Generator, got {type(rng).__name__}")


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with its clustered spectral resolution.

    The spectrum lists (eigenvalue, eigenprojection) pairs with strictly
    ascending eigenvalues; the projections are mutually orthogonal and sum to
    the identity (guaranteed by spectral_decompose, re-checked in tests).
    """

    operator: HermitianOperator
    spectrum: tuple[tuple[float, Projection], ...]

    def __post_init__(self) -> None:
        spectrum = tuple((float(value), projection) for value, projection in self.spectrum)
        if not spectrum:
            raise ValueError("spectrum must be nonempty")
        dim = self.operator.dim
        for _, projection in spectrum:
            if projection.dim != dim:
                raise ValueError("spectral projection dimension mismatch")
        values = [value for value, _ in spectrum]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"eigenvalues must be strictly ascending, got {values}")
        object.__setattr__(self, "spectrum", spectrum)

    @classmethod
    def from_operator(cls, operator, pol: TolerancePolicy = DEFAULT_POLICY) -> "Observable":
        if not isinstance(operator, HermitianOperator):
            operator = HermitianOperator(operator)
        return cls(operator, tuple(spectral_decompose(operator, pol)))

    @classmethod
    def from_projection(cls, projection: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> "Observable":
        """The property as a yes/no observable with outcomes 0 and 1."""
        return cls.from_operator(HermitianOperator(projection.matrix), pol)

    @property
    def dim(self) -> int:
        return self.operator.dim

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(value for value, _ in self.spectrum)

    @cached_property
    def projection_stack(self) -> np.ndarray:
        stack = np.stack([projection.matrix for _, projection in self.spectrum])
        stack.setflags(write=False)
        return stack


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    eigenvalue: float
    outcome_index: int
    probability: float
    post_state: Ket


def haar_random_ket(dim: int, rng) -> Ket:
    """Haar-distributed pure state: 2*dim independent Gaussians, normalized."""
    return Ket(_haar_amplitudes(dim, _generator_of(rng)))


def _haar_amplitudes(dim: int, gen: np.random.Generator) -> np.ndarray:
    """The Haar draw of one state: 2 * dim normals, redrawn while the vector
    is too short to normalize."""
    while True:
        amplitudes, kept = _haar_rows(gen.standard_normal(2 * dim))
        if kept:
            return amplitudes


def _haar_rows(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one definition of the Haar state from a row of 2 * dim normals:
    dim real parts, then dim imaginary parts, divided by their norm. Returns
    the states of all rows along the last axis and whether each row's norm
    exceeds 1e-6; a row at or below it must be redrawn, and its state is
    meaningless.

    The norm is sqrt(re.re + im.im) from one dot product per row, as
    ``np.linalg.norm`` computes it for a single complex vector; summing the
    squares in another order moves the last bit of some rows.
    """
    dim = normals.shape[-1] // 2
    raw = normals[..., :dim] + 1j * normals[..., dim:]
    norms = np.sqrt(np.vecdot(raw.real, raw.real) + np.vecdot(raw.imag, raw.imag))
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
        eigenvalue=observable.spectrum[index][0],
        outcome_index=index,
        probability=float(min(probabilities[index], 1.0)),
        post_state=Ket(collapsed),
    )


def _check_pair(first: Observable, second: Observable) -> None:
    if first.dim != second.dim:
        raise ValueError(f"dimension mismatch: {first.dim} vs {second.dim}")


def _sandwich_defects(first: Observable, second: Observable) -> tuple[float, float]:
    """From the norms |(I - P_n) Q_p P_n|_F over every (n, p), in both roles
    of the two observables: the largest norm, and the larger of the two
    sums of squared norms divided by the dimension."""
    _check_pair(first, second)
    eye = np.eye(first.dim, dtype=np.complex128)
    worst = 0.0
    rates = []
    for outer, inner in ((first, second), (second, first)):
        norms = [
            float(np.linalg.norm((eye - p.matrix) @ q.matrix @ p.matrix))
            for _, p in outer.spectrum
            for _, q in inner.spectrum
        ]
        worst = max(worst, *norms)
        rates.append(sum(norm**2 for norm in norms) / first.dim)
    return worst, max(rates)


def nondisturbance_residual(first: Observable, second: Observable) -> float:
    """Largest leakage of any eigenspace of either observable under a
    measurement of the other; zero exactly when sequential measurements in
    either order leave each other's results intact."""
    return _sandwich_defects(first, second)[0]


def interposition_residual(first: Observable, second: Observable) -> float:
    worst = 0.0
    for outer, inner in ((first, second), (second, first)):
        for _, q in inner.spectrum:
            mixed = sum(
                p.matrix @ q.matrix @ p.matrix for _, p in outer.spectrum
            )
            worst = max(worst, float(np.linalg.norm(q.matrix - mixed)))
    return worst


def sequence_symmetry_residual(first: Observable, second: Observable) -> float:
    worst = 0.0
    for _, p in first.spectrum:
        for _, q in second.spectrum:
            forward = p.matrix @ q.matrix @ p.matrix
            backward = q.matrix @ p.matrix @ q.matrix
            worst = max(worst, float(np.linalg.norm(forward - backward)))
    return worst


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
    """Verdict of one exact criterion from its residual: the residual must
    stay below op_tol, times the dimension for commutation and interposition."""
    return residual < pol.op_tol * (dim if _DIM_SCALED[criterion] else 1)


def commutes(first: Observable, second: Observable, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Commutation criterion on the representing operators."""
    _check_pair(first, second)
    residual = commutator_norm(first.operator, second.operator)
    return criterion_holds("commutation", residual, first.dim, pol)


def nondisturbing(first: Observable, second: Observable, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Exact non-disturbance criterion, imposed in both measurement orders."""
    return criterion_holds("nondisturbance", nondisturbance_residual(first, second), first.dim, pol)


def interposition_invariant(
    first: Observable, second: Observable, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """True iff a nonselective measurement of either observable, interposed,
    leaves every outcome projection of the other unchanged."""
    _check_pair(first, second)
    return criterion_holds("interposition", interposition_residual(first, second), first.dim, pol)


def sequence_symmetric(
    first: Observable, second: Observable, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """True iff 'outcome b then c' and 'outcome c then b' are equally likely
    for every outcome pair and every state; operator equality of the two
    sandwich products is equivalent to equality of the quadratic forms."""
    _check_pair(first, second)
    return criterion_holds(
        "sequence_symmetry", sequence_symmetry_residual(first, second), first.dim, pol
    )


def joint_observable(
    first: Observable, second: Observable, pol: TolerancePolicy = DEFAULT_POLICY
) -> Observable | None:
    """Commeasurability witness.

    For a commuting pair, returns an observable whose eigenprojections are
    the nonzero products P_n Q_p and whose eigenvalue n * K + p (K the number
    of second-observable outcomes) injectively encodes the outcome pair, so a
    single measurement determines a value for both observables. Returns None
    for non-commuting pairs.
    """
    if not commutes(first, second, pol):
        return None
    return _joint_of(first, second)


def _joint_of(first: Observable, second: Observable) -> Observable:
    k = len(second.spectrum)
    entries: list[tuple[float, Projection]] = []
    for n, (_, p) in enumerate(first.spectrum):
        for q_index, (_, q) in enumerate(second.spectrum):
            product = p.matrix @ q.matrix
            if float(np.trace(product).real) < 0.5:
                continue
            entries.append((float(n * k + q_index), Projection(product)))
    operator = sum(value * projection.matrix for value, projection in entries)
    return Observable(HermitianOperator(operator), tuple(entries))


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

    Each trial draws from its own substream of (seed, trial index), so the
    totals do not depend on execution order and are reproducible per seed.
    A trial draws, for each order in turn, a Haar state and the uniforms of
    its three measurements, in the order that single-shot ``measure`` calls
    on the same substream would; the measurements of both orders then run
    on a whole block of trials at once.
    """
    _check_pair(first, second)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    opening, last = _padded_stacks(first, second)
    interposed = opening[::-1]
    counts = np.zeros(2, dtype=np.int64)
    for start in range(0, trials, _MC_BLOCK):
        states, uniforms = _draw_block(rng, start, min(trials, start + _MC_BLOCK), first.dim)
        _check_unit_rows(states)
        opened, states = _measure_rows(states, opening, last, uniforms[..., 0], pol)
        _, states = _measure_rows(states, interposed, last[::-1], uniforms[..., 1], pol)
        closed, _ = _measure_rows(states, opening, last, uniforms[..., 2], pol)
        counts += np.count_nonzero(closed != opened, axis=1)
    return int(counts[0]), int(counts[1])


def _draw_block(rng: SeededRng, start: int, stop: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of trials start..stop-1, each on its own substream: Haar
    states, shape (2, trials, dim), and measurement uniforms, shape
    (2, trials, 3), of both orders, equal to what ``_haar_amplitudes`` and
    ``random(3)`` calls give on the trial's substream.

    The seed words of all the block's substreams come from one
    ``stream_words`` call, and each trial's draws go straight into the
    block arrays; the states are normalized afterwards, all at once.
    """
    words = rng.stream_words(np.arange(start, stop)[:, None])
    normals = np.empty((2, stop - start, 2 * dim))
    uniforms = np.empty((2, stop - start, 3))
    for row, trial_words in enumerate(words):
        gen = _stream(trial_words)
        for order in range(2):
            gen.standard_normal(out=normals[order, row])
            gen.random(out=uniforms[order, row])
    states, kept = _haar_rows(normals)
    if not kept.all():
        # A Haar draw too short to normalize is redrawn, which moves every
        # later draw of its trial: such a trial is drawn again one state at
        # a time.
        for row in np.flatnonzero(~kept.all(axis=0)):
            gen = _stream(words[row])
            for order in range(2):
                states[order, row] = _haar_amplitudes(dim, gen)
                uniforms[order, row] = gen.random(3)
    return states, uniforms


def _padded_stacks(first: Observable, second: Observable) -> tuple[np.ndarray, np.ndarray]:
    """The projection stacks of both observables, padded with zero
    projections to a common outcome count, and the last real outcome index
    of each. A padded outcome has probability zero and is never chosen."""
    outcomes = max(len(first.spectrum), len(second.spectrum))
    stacks = np.zeros((2, outcomes, first.dim, first.dim), dtype=np.complex128)
    stacks[0, : len(first.spectrum)] = first.projection_stack
    stacks[1, : len(second.spectrum)] = second.projection_stack
    return stacks, np.array([len(first.spectrum) - 1, len(second.spectrum) - 1])


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
    _check_unit_rows(collapsed)
    return index, collapsed


def _squared_norms(states: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", states.conj(), states).real


def _check_unit_rows(states: np.ndarray) -> None:
    """The ``Ket`` normalization guard on every state along the last axis."""
    _check_near_one(
        _squared_norms(states),
        DEFAULT_POLICY.norm_tol,
        "state vector is not normalized: squared norm is {!r}",
    )


def _check_near_one(values: np.ndarray, tol: float, message: str) -> None:
    deviation = np.abs(values - 1.0)
    if deviation.max() > tol:
        raise ValueError(message.format(float(values[deviation > tol][0])))


def nondisturbing_mc(
    first: Observable,
    second: Observable,
    trials: int,
    rng: SeededRng,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> tuple[bool, int]:
    """Operational non-disturbance check: (no disagreement seen, total count)."""
    forward, backward = sequential_disagreements(first, second, trials, rng, pol)
    count = forward + backward
    return count == 0, count


def min_disagreement_probability(first: Observable, second: Observable) -> float:
    """Analytic lower bound on the per-trial disagreement probability over
    Haar-random initial states.

    For one first-second-first run the disagreement probability of a state
    psi is sum over (n, p) of |(I - P_n) Q_p P_n psi|^2, whose Haar average
    is the squared-Frobenius sum divided by the dimension. A trial runs both
    orders on independent states, so the larger of the two averages bounds
    the per-trial disagreement probability from below.
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
    mc_passed: bool
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
    _check_pair(first, second)
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

    mc_passed, count = nondisturbing_mc(first, second, trials, rng, pol)
    if holds["nondisturbance"]:
        floor = 0
        mc_consistent = mc_passed
    else:
        floor = _trial_floor(disagreement_rate)
        mc_consistent = count > 0 or trials < floor

    verdicts = (*holds.values(), commeasurable)
    violations = [residuals[criterion] for criterion, held in holds.items() if not held]
    if not commeasurable:
        violations.append(residuals["commutation"])
    return CompatibilityVerdict(
        commutation=holds["commutation"],
        nondisturbance=holds["nondisturbance"],
        mc_passed=mc_passed,
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
