"""Observative statements over a property family: a prefix-text parser, a
total classical valuation, a three-valued verificationist valuation with its
testability filter, and the completeness audit contrasting the two."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from typing import Mapping

from .domains import PureStateModel
from .lattice import PropertyFamily, join, leq, meet, orthocomplement
from .measurement import (
    Observable,
    SeededRng,
    _generator_of,
    born_probability,
    criterion_holds,
    haar_random_ket,
    nondisturbing,
)
from .numerics import DEFAULT_POLICY, Ket, Projection, TolerancePolicy, commutator_norm, range_basis

__all__ = [
    "Statement",
    "Elementary",
    "Not",
    "And",
    "Or",
    "Implies",
    "TruthValue",
    "parse_statement",
    "fold",
    "format_statement",
    "atom_labels",
    "tarskian_truth",
    "is_testable",
    "verificationist_truth",
    "kleene_truth",
    "is_classical_tautology",
    "is_classical_contradiction",
    "order_isomorphism_check",
    "StatementRecord",
    "CompletenessAudit",
    "completeness_audit",
]


class Statement:
    """Base class for statements; instances are immutable AST nodes with
    structural equality and hashing."""

    __slots__ = ()


@dataclass(frozen=True)
class Elementary(Statement):
    label: str


@dataclass(frozen=True)
class Not(Statement):
    operand: Statement


@dataclass(frozen=True)
class And(Statement):
    left: Statement
    right: Statement


@dataclass(frozen=True)
class Or(Statement):
    left: Statement
    right: Statement


@dataclass(frozen=True)
class Implies(Statement):
    left: Statement
    right: Statement


class TruthValue(Enum):
    TRUE = "true"
    FALSE = "false"
    UNDEFINED = "undefined"

    @classmethod
    def from_bool(cls, value: bool) -> "TruthValue":
        return cls.TRUE if value else cls.FALSE


_BINARY = {"and": And, "or": Or, "implies": Implies}


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_statement(text: str) -> Statement:
    """Parse prefix notation, e.g. ``(and E1 (not E2))``.

    Grammar: stmt := label | (not stmt) | (and stmt stmt) | (or stmt stmt)
    | (implies stmt stmt). Labels are bare symbols without parentheses or
    whitespace.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty statement")
    statement, position = _parse(tokens, 0)
    if position != len(tokens):
        raise ValueError(f"trailing tokens after statement: {tokens[position:]}")
    return statement


def _parse(tokens: list[str], position: int) -> tuple[Statement, int]:
    if position >= len(tokens):
        raise ValueError("unexpected end of statement")
    token = tokens[position]
    if token == ")":
        raise ValueError(f"unexpected ')' at token {position}")
    if token != "(":
        return Elementary(token), position + 1
    if position + 1 >= len(tokens):
        raise ValueError("unexpected end after '('")
    head = tokens[position + 1]
    if head == "not":
        operand, after = _parse(tokens, position + 2)
        return Not(operand), _expect_close(tokens, after)
    if head in _BINARY:
        left, after_left = _parse(tokens, position + 2)
        right, after_right = _parse(tokens, after_left)
        return _BINARY[head](left, right), _expect_close(tokens, after_right)
    raise ValueError(f"unknown connective {head!r}")


def _expect_close(tokens: list[str], position: int) -> int:
    if position >= len(tokens) or tokens[position] != ")":
        raise ValueError(f"expected ')' at token {position}")
    return position + 1


def fold(statement: Statement, elementary, negation, conjunction, disjunction, implication=None):
    """Bottom-up fold over the statement tree.

    ``elementary`` maps a label to a value; ``negation``, ``conjunction``,
    ``disjunction`` and ``implication`` combine the values of the operands,
    both of which are always computed, left before right. Implication
    defaults to the material reading, ``disjunction(negation(left), right)``.
    Raises TypeError on a node that is not a statement.
    """
    if implication is None:
        implication = partial(_material, negation, disjunction)
    binary = {And: conjunction, Or: disjunction, Implies: implication}
    return _walk(statement, (elementary, negation, binary))


def _material(negation, disjunction, left, right):
    return disjunction(negation(left), right)


# A module function, not a closure in fold: a closure that calls itself is a
# reference cycle, garbage that only the cyclic collector frees.
def _walk(node, algebra):
    elementary, negation, binary = algebra
    if isinstance(node, Elementary):
        return elementary(node.label)
    if isinstance(node, Not):
        return negation(_walk(node.operand, algebra))
    combine = binary.get(type(node))
    if combine is None:
        raise TypeError(f"not a statement: {node!r}")
    return combine(_walk(node.left, algebra), _walk(node.right, algebra))


def format_statement(statement: Statement) -> str:
    """Canonical prefix text; inverse of parse_statement."""

    def connective(name):
        return lambda left, right: f"({name} {left} {right})"

    return fold(
        statement, str, "(not {})".format, connective("and"), connective("or"), connective("implies")
    )


def atom_labels(statement: Statement) -> set[str]:
    return fold(statement, lambda label: {label}, lambda labels: labels, set.union, set.union)


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


def is_testable(
    statement: Statement, family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> Projection | None:
    """Elementary equivalent of the statement, or None when no single yes/no
    measurement can verify it.

    A compound is accepted exactly when its constituent properties pairwise
    commute; its connective tree is then evaluated inside the Boolean
    subalgebra they generate (not -> orthocomplement, and -> meet, or ->
    join, implication materially). Elementary statements are always testable
    and return their own projection.
    """
    labels = sorted(atom_labels(statement))
    projections = {label: family.get(label) for label in labels}
    for a, b in itertools.combinations(labels, 2):
        residual = commutator_norm(projections[a], projections[b])
        if not criterion_holds("commutation", residual, family.dim, pol):
            return None
    return fold(
        statement,
        projections.__getitem__,
        orthocomplement,
        partial(meet, pol=pol),
        partial(join, pol=pol),
    )


def _membership(
    projection: Projection | None, model: PureStateModel, pol: TolerancePolicy
) -> TruthValue:
    """Certainty value of a property in the model; UNDEFINED also when there
    is no property, as for a statement without an elementary equivalent."""
    if projection is not None:
        if leq(model.support, projection, pol):
            return TruthValue.TRUE
        if leq(projection, model.complement, pol):
            return TruthValue.FALSE
    return TruthValue.UNDEFINED


def verificationist_truth(
    statement: Statement,
    model: PureStateModel,
    family: PropertyFamily,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> TruthValue:
    """Three-valued valuation: a statement has a truth value only when it is
    testable and its elementary equivalent is certain in the given state.

    Non-testable compounds are UNDEFINED regardless of how their parts
    evaluate; testability, not componentwise definedness, is the criterion.
    The strong-Kleene reading lives in kleene_truth for reporting.
    """
    return _membership(is_testable(statement, family, pol), model, pol)


def _kleene_not(value: TruthValue) -> TruthValue:
    if value is TruthValue.UNDEFINED:
        return value
    return TruthValue.from_bool(value is TruthValue.FALSE)


def _kleene_and(a: TruthValue, b: TruthValue) -> TruthValue:
    if TruthValue.FALSE in (a, b):
        return TruthValue.FALSE
    if TruthValue.UNDEFINED in (a, b):
        return TruthValue.UNDEFINED
    return TruthValue.TRUE


def _kleene_or(a: TruthValue, b: TruthValue) -> TruthValue:
    # De Morgan dual of the conjunction table, which holds in strong Kleene logic.
    return _kleene_not(_kleene_and(_kleene_not(a), _kleene_not(b)))


def kleene_truth(
    statement: Statement,
    model: PureStateModel,
    family: PropertyFamily,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> TruthValue:
    """Strong-Kleene propagation of elementary certainty values; reported
    alongside the verificationist value but never driving audits."""
    return fold(
        statement,
        lambda label: _membership(family.get(label), model, pol),
        _kleene_not,
        _kleene_and,
        _kleene_or,
    )


_MAX_TABLE_ATOMS = 16


def _truth_table(statement: Statement):
    labels = sorted(atom_labels(statement))
    if len(labels) > _MAX_TABLE_ATOMS:
        raise ValueError(f"too many atoms for a truth table: {len(labels)}")
    for bits in itertools.product((False, True), repeat=len(labels)):
        yield tarskian_truth(statement, dict(zip(labels, bits)))


def is_classical_tautology(statement: Statement) -> bool:
    return all(_truth_table(statement))


def is_classical_contradiction(statement: Statement) -> bool:
    return not any(_truth_table(statement))


def order_isomorphism_check(
    family: PropertyFamily,
    pol: TolerancePolicy = DEFAULT_POLICY,
    rng=None,
    samples: int = 50,
) -> bool:
    """Check that the lattice order coincides with certainty entailment.

    For every ordered member pair (E, E'): leq(E, E') must hold exactly when
    every test state certain of E is also certain of E'. Test states are the
    range basis vectors of every member (which decide the question exactly)
    plus Haar-random states for extra falsification pressure.
    """
    if rng is None:
        rng = SeededRng(0)
    gen = _generator_of(rng)

    states = []
    for _, member in family.pairs():
        states.extend(Ket.normalized(vector) for vector in range_basis(member).T)
    for _ in range(samples):
        states.append(haar_random_ket(family.dim, gen))

    certain = 1.0 - pol.prob_tol
    members = [member for _, member in family.pairs()]
    # Indices of the test states certain of each member.
    certain_of = [
        {
            index
            for index, state in enumerate(states)
            if born_probability(state, member, pol) >= certain
        }
        for member in members
    ]
    for first, certain_first in zip(members, certain_of):
        for second, certain_second in zip(members, certain_of):
            if leq(first, second, pol) != (certain_first <= certain_second):
                return False
    return True


@dataclass(frozen=True, eq=False)
class StatementRecord:
    """Per-statement audit row.

    ``meaningful`` carries the mode's criterion (support non-disturbance in
    standard mode, everything in realist mode) while ``predictable`` always
    travels the lattice-order route, so their comparison is a genuine
    two-route check. ``flagged`` marks classical tautologies or
    contradictions that the testability filter rejects.
    """

    statement: Statement
    text: str
    testable: bool
    verificationist: TruthValue
    kleene: TruthValue
    meaningful: bool
    predictable: bool
    flagged: bool

    def to_json_dict(self) -> dict:
        """Every field but the parsed statement; truth values by name."""
        document = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "statement"}
        document.update(verificationist=self.verificationist.value, kleene=self.kleene.value)
        return document


@dataclass(frozen=True, eq=False)
class CompletenessAudit:
    mode: str
    records: tuple[StatementRecord, ...]
    meaningful: frozenset[str]
    predictable: frozenset[str]
    verdict: str
    witness: str | None
    flagged: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "verdict": self.verdict,
            "witness": self.witness,
            "meaningful": sorted(self.meaningful),
            "predictable": sorted(self.predictable),
            "flagged": list(self.flagged),
            "statements": [record.to_json_dict() for record in self.records],
        }


_MODES = ("standard", "sr")


def completeness_audit(
    model: PureStateModel,
    family: PropertyFamily,
    statements,
    mode: str,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CompletenessAudit:
    """Audit whether every meaningful statement is predictable.

    Standard mode takes a statement to be meaningful when its elementary
    equivalent can be measured without disturbing the support measurement
    (the verificationist criterion, evaluated on the measurement side). The
    realist mode ('sr') takes every statement to be meaningful. In both
    modes predictability is decided by the lattice order alone, so standard
    mode re-derives, rather than assumes, the equality of the two sides. The
    verdict is complete exactly when meaningful statements are all
    predictable; otherwise the first counterexample is returned as witness.
    """
    mode_key = mode.lower()
    if mode_key not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    realist = mode_key == "sr"
    support_observable = None if realist else Observable.from_projection(model.support, pol)

    records: list[StatementRecord] = []
    for statement in statements:
        equivalent = is_testable(statement, family, pol)
        testable = equivalent is not None
        objective = not realist and testable and nondisturbing(
            Observable.from_projection(equivalent, pol), support_observable, pol
        )
        verdict_value = _membership(equivalent, model, pol)
        flagged = not testable and (
            is_classical_tautology(statement) or is_classical_contradiction(statement)
        )
        records.append(
            StatementRecord(
                statement=statement,
                text=format_statement(statement),
                testable=testable,
                verificationist=verdict_value,
                kleene=kleene_truth(statement, model, family, pol),
                meaningful=realist or objective,
                predictable=verdict_value is not TruthValue.UNDEFINED,
                flagged=flagged,
            )
        )

    meaningful = frozenset(record.text for record in records if record.meaningful)
    predictable_set = frozenset(record.text for record in records if record.predictable)
    complete = meaningful <= predictable_set
    witness = next(
        (record.text for record in records if record.meaningful and not record.predictable),
        None,
    )
    return CompletenessAudit(
        mode=mode_key,
        records=tuple(records),
        meaningful=meaningful,
        predictable=predictable_set,
        verdict="complete" if complete else "incomplete",
        witness=witness,
        flagged=tuple(record.text for record in records if record.flagged),
    )
