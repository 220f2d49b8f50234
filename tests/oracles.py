"""Single-object routes that the tests compare the stacked code against: the
Frobenius distance of two matrices and the closeness it decides, one
projective measurement of one state, the Born probability of one property,
the interposition and sequence-symmetry residuals of one pair, each from its
own sandwich products, the total classical valuation of one statement, and
one fold per statement of its canonical text, its labels, its strong-Kleene
value and its classical truth table. No campaign or command runs them; each
is written out one object at a time, independently of the array code in
``qlat`` that it checks."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from qlat import DEFAULT_POLICY, Observable, Statement, TolerancePolicy, TruthValue, fold
from qlat.measurement import _generator_of, _pair_stacks, _unit_state
from qlat.numerics import _frobenius_norms
from qlat.semantics import _MAX_TABLE_ATOMS


def frobenius_distance(left, right) -> float:
    """|left - right|_F of two (d, d) matrices; a ``Projection`` counts as its
    ``matrix``."""
    a, b = (np.asarray(getattr(side, "matrix", side), dtype=np.complex128) for side in (left, right))
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(_frobenius_norms(a - b))


def matrices_close(left, right, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """The operator equality of the package: Frobenius distance below op_tol."""
    return frobenius_distance(left, right) < pol.op_tol


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    eigenvalue: float
    outcome_index: int
    probability: float
    post_state: np.ndarray


def born_probability(state: np.ndarray, projection: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Probability of the yes outcome for the property, a (d, d) projection
    matrix, in the given state, a unit vector of d amplitudes."""
    if state.size != projection.shape[0]:
        raise ValueError(f"dimension mismatch: {state.size} vs {projection.shape[0]}")
    value = float(np.vdot(state, projection @ state).real)
    if value < -pol.prob_tol or value > 1.0 + pol.prob_tol:
        raise ValueError(f"probability {value!r} outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def measure(state: np.ndarray, observable: Observable, rng, pol: TolerancePolicy = DEFAULT_POLICY) -> MeasurementOutcome:
    """One projective measurement: sample an outcome with Born weights and
    collapse onto the normalized projection of the state.

    Outcomes of zero probability are never sampled. ``rng`` may be a SeededRng
    (a fresh stream) or a numpy Generator (advances the caller's stream, which
    is what measurement sequences need).
    """
    if state.size != observable.dim:
        raise ValueError(f"dimension mismatch: {state.size} vs {observable.dim}")
    gen = _generator_of(rng)
    amplitudes = state
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
        post_state=_unit_state(collapsed),
    )


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


def format_statement(statement: Statement) -> str:
    """Canonical prefix text; inverse of parse_statement."""

    def connective(name):
        return lambda left, right: f"({name} {left} {right})"

    return fold(
        statement, str, "(not {})".format, connective("and"), connective("or"), connective("implies")
    )


def atom_labels(statement: Statement) -> set[str]:
    return fold(statement, lambda label: {label}, lambda labels: labels, set.union, set.union)


# Strong Kleene (Kleene 1952, section 64): conjunction and disjunction are the
# minimum and the maximum on FALSE < UNDEFINED < TRUE, negation reverses that
# order, and implication is material, fold's default.
_KLEENE_ORDER = (TruthValue.FALSE, TruthValue.UNDEFINED, TruthValue.TRUE)
_kleene_and = partial(min, key=_KLEENE_ORDER.index)
_kleene_or = partial(max, key=_KLEENE_ORDER.index)
_kleene_not = dict(zip(_KLEENE_ORDER, reversed(_KLEENE_ORDER))).__getitem__


def kleene_value(statement: Statement, values: Mapping[str, TruthValue]) -> TruthValue:
    """Strong-Kleene value of the statement from the values of its labels."""
    return fold(statement, values.__getitem__, _kleene_not, _kleene_and, _kleene_or)


def truth_table(statement: Statement) -> tuple[int, int]:
    """The statement's classical truth table as a bitset, and the all-true
    table, from one fold: bit r is the value under assignment r, in which
    label i (in sorted order) holds when bit i of r is set. Negation is the
    XOR against the all-true table; implication is material. A tautology's
    table is the all-true one and a contradiction's is 0; more than 16 atoms
    raise ValueError."""
    labels = sorted(atom_labels(statement))
    if len(labels) > _MAX_TABLE_ATOMS:
        raise ValueError(f"too many atoms for a truth table: {len(labels)}")
    full = (1 << (1 << len(labels))) - 1
    columns = {}
    for bit, label in enumerate(labels):
        run = 1 << bit  # the label's rows alternate runs of `run` unset and `run` set
        columns[label] = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
    negation = partial(operator.xor, full)
    return fold(statement, columns.__getitem__, negation, operator.and_, operator.or_), full
