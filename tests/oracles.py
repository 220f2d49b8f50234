"""Single-object routes that the tests compare the stacked code against: one
projective measurement of one state, the Born probability of one property,
and the total classical valuation of one statement. No campaign or command
runs them; each is written out one object at a time, independently of the
array code in ``qlat`` that it checks."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from qlat import DEFAULT_POLICY, Ket, Observable, Projection, Statement, TolerancePolicy, fold
from qlat.measurement import _generator_of


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    eigenvalue: float
    outcome_index: int
    probability: float
    post_state: Ket


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


def tarskian_truth(statement: Statement, assignment: Mapping[str, bool]) -> bool:
    """Total classical valuation under an explicit possession assignment.

    Every statement receives a definite truth value, whether or not anything
    could verify it; implication is material. Every label must be resolved
    by the assignment, wherever it occurs.
    """

    def possessed(label: str) -> bool:
        if label not in assignment:
            raise ValueError(f"unresolved label {label!r}")
        return bool(assignment[label])

    return fold(statement, possessed, operator.not_, operator.and_, operator.or_)
