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

import numpy as np

from .domains import PureStateModel, certainty, objective_residuals
from .lattice import PropertyFamily, join, leq, meet, orthocomplement
from .measurement import SeededRng, _generator_of, _haar_states, criterion_holds
from .numerics import DEFAULT_POLICY, TolerancePolicy, _commutator_norms

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
    "truth_table",
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


_BINARY = {"and": And, "or": Or, "implies": Implies}


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_statement(text: str) -> Statement:
    """Parse prefix notation, e.g. ``(and E1 (not E2))``.

    Grammar: stmt := label | (not stmt) | (and stmt stmt) | (or stmt stmt)
    | (implies stmt stmt). Labels are bare symbols without parentheses or
    whitespace. Connectives nest at most 256 deep; deeper text raises
    ValueError.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty statement")
    statement, position = _parse(tokens, 0)
    if position != len(tokens):
        raise ValueError(f"trailing tokens after statement: {tokens[position:]}")
    return statement


# Deepest connective nesting that parse_statement and fold accept: both recurse
# once per level, well under Python's default limit of 1000.
_MAX_DEPTH = 256
_TOO_DEEP = f"statement nests connectives deeper than {_MAX_DEPTH} levels"


def _parse(tokens: list[str], position: int, depth: int = 0) -> tuple[Statement, int]:
    if position >= len(tokens):
        raise ValueError("unexpected end of statement")
    token = tokens[position]
    if token == ")":
        raise ValueError(f"unexpected ')' at token {position}")
    if token != "(":
        return Elementary(token), position + 1
    if depth == _MAX_DEPTH:
        raise ValueError(_TOO_DEEP)
    if position + 1 >= len(tokens):
        raise ValueError("unexpected end after '('")
    head = tokens[position + 1]
    if head == "not":
        operand, after = _parse(tokens, position + 2, depth + 1)
        return Not(operand), _expect_close(tokens, after)
    if head in _BINARY:
        left, after_left = _parse(tokens, position + 2, depth + 1)
        right, after_right = _parse(tokens, after_left, depth + 1)
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
    Raises TypeError on a node that is not a statement, and ValueError on a
    tree that nests connectives deeper than parse_statement accepts (256).
    """
    if implication is None:
        implication = partial(_material, negation, disjunction)
    binary = {And: conjunction, Or: disjunction, Implies: implication}
    return _walk(statement, (elementary, negation, binary), 0)


def _material(negation, disjunction, left, right):
    return disjunction(negation(left), right)


# A module function, not a closure in fold: a closure that calls itself is a
# reference cycle, garbage that only the cyclic collector frees.
# ``depth`` counts the connectives above the node. Some node has more than 256
# above it exactly when connectives nest deeper than the parser's limit.
def _walk(node, algebra, depth):
    if depth > _MAX_DEPTH:
        raise ValueError(_TOO_DEEP)
    elementary, negation, binary = algebra
    if isinstance(node, Elementary):
        return elementary(node.label)
    if isinstance(node, Not):
        return negation(_walk(node.operand, algebra, depth + 1))
    combine = binary.get(type(node))
    if combine is None:
        raise TypeError(f"not a statement: {node!r}")
    return combine(_walk(node.left, algebra, depth + 1), _walk(node.right, algebra, depth + 1))


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
) -> np.ndarray | None:
    """Elementary equivalent of the statement, a validated (d, d) projection
    matrix, or None when no single yes/no measurement can verify it; the
    one-statement case of ``_equivalents``, the audit's stacked pass.

    A compound is accepted exactly when its constituent properties pairwise
    commute; its connective tree is then evaluated inside the Boolean
    subalgebra they generate (not -> orthocomplement, and -> meet, or ->
    join, implication materially). An elementary statement is always
    testable and returns its own row of the family's projection stack."""
    return _equivalents([statement], family, pol)[0]


def _equivalents(statements, family: PropertyFamily, pol: TolerancePolicy) -> list:
    """``is_testable`` of each statement, from one stacked pass. One (n, n)
    table of the members' pairwise commutator norms decides testability,
    once a statement's labels resolve in sorted order. The testable trees
    are then evaluated bottom up, identical subterms sharing one key, with
    one orthocomplement, meet and join call per height across statements."""
    stack = family.projection_stack
    norms = _commutator_norms(stack[:, None], stack[None])
    commute = criterion_holds("commutation", norms, family.dim, pol).tolist()
    # Row k sits under key k, and a connective node under (kind, *operand keys).
    values, heights = dict(enumerate(stack)), dict.fromkeys(range(len(stack)), 0)
    levels: dict[tuple, list] = {}  # (height, kind): the keys of those nodes

    def node(kind, *operands):
        key = (kind, *operands)
        if key not in heights:
            heights[key] = 1 + max(heights[operand] for operand in operands)
            levels.setdefault((heights[key], kind), []).append(key)
        return key

    connectives = [partial(node, kind) for kind in ("not", "and", "or")]
    roots = []
    for statement in statements:
        rows = [family.index(label) for label in sorted(atom_labels(statement))]
        testable = all(commute[a][b] for a, b in itertools.combinations(rows, 2))
        roots.append(fold(statement, family.index, *connectives) if testable else None)
    operations = {"not": orthocomplement, "and": partial(meet, pol=pol), "or": partial(join, pol=pol)}
    for (_, kind), keys in sorted(levels.items()):
        _, *columns = zip(*keys)  # the first column holds the kind
        stacks = (np.stack([values[operand] for operand in column]) for column in columns)
        values.update(zip(keys, operations[kind](*stacks)))
    return [None if root is None else values[root] for root in roots]


def _certainty_values(
    model: PureStateModel, members: np.ndarray, pol: TolerancePolicy
) -> list[TruthValue]:
    """Certainty value of each member of an (m, d, d) stack of projections:
    TRUE above the support, else FALSE below its orthocomplement, else
    UNDEFINED."""
    above, below = certainty(model, members, pol)
    return [
        TruthValue.TRUE if true else TruthValue.FALSE if false else TruthValue.UNDEFINED
        for true, false in zip(above.tolist(), below.tolist())
    ]


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
    equivalent = is_testable(statement, family, pol)
    if equivalent is None:
        return TruthValue.UNDEFINED
    return _certainty_values(model, equivalent[None], pol)[0]


# Strong Kleene (Kleene 1952, section 64): conjunction and disjunction are the
# minimum and the maximum on FALSE < UNDEFINED < TRUE, negation reverses that
# order, and implication is material, fold's default.
_KLEENE_ORDER = (TruthValue.FALSE, TruthValue.UNDEFINED, TruthValue.TRUE)
_kleene_and = partial(min, key=_KLEENE_ORDER.index)
_kleene_or = partial(max, key=_KLEENE_ORDER.index)
_kleene_not = dict(zip(_KLEENE_ORDER, reversed(_KLEENE_ORDER))).__getitem__


def _kleene(statement: Statement, values: Mapping[str, TruthValue]) -> TruthValue:
    """Strong-Kleene value of the statement from the values of its labels."""
    return fold(statement, values.__getitem__, _kleene_not, _kleene_and, _kleene_or)


def kleene_truth(
    statement: Statement,
    model: PureStateModel,
    family: PropertyFamily,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> TruthValue:
    """Strong-Kleene propagation of elementary certainty values; reported
    alongside the verificationist value but never driving audits."""
    labels = sorted(atom_labels(statement))
    members = family.projection_stack[[family.index(label) for label in labels]]
    return _kleene(statement, dict(zip(labels, _certainty_values(model, members, pol))))


_MAX_TABLE_ATOMS = 16


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


def order_isomorphism_check(
    family: PropertyFamily,
    pol: TolerancePolicy = DEFAULT_POLICY,
    rng=None,
    samples: int = 50,
) -> bool:
    """Check that the lattice order coincides with certainty entailment.

    For every ordered member pair (E, E'): E <= E' must hold exactly when
    every test state certain of E is also certain of E'. Test states are the
    range basis vectors of every member (which decide the question exactly)
    plus Haar-random states for extra falsification pressure.
    """
    if rng is None:
        rng = SeededRng(0)
    stack = family.projection_stack
    eigenvalues, eigenvectors = np.linalg.eigh(stack)
    haar = _haar_states(family.dim, _generator_of(rng), (samples,))
    states = np.concatenate([eigenvectors.mT[eigenvalues > 0.5], haar])
    certain = _certain_in(stack, states, pol)
    # entailed[a, b]: no test state is certain of member a but not of member b.
    entailed = ~(certain[:, None] & ~certain[None]).any(axis=-1)
    order = leq(stack[:, None], stack[None], pol)
    return bool((order == entailed).all())


def _certain_in(members: np.ndarray, states: np.ndarray, pol: TolerancePolicy) -> np.ndarray:
    """The (m, s) mask of the members of an (m, d, d) stack that are certain,
    with Born probability at least 1 - prob_tol, in each of s states. A
    probability outside [0, 1] beyond prob_tol raises ValueError, as
    ``born_probability`` does."""
    probabilities = np.einsum("si,mij,sj->ms", states.conj(), members, states).real
    outside = (probabilities < -pol.prob_tol) | (probabilities > 1.0 + pol.prob_tol)
    if outside.any():
        raise ValueError(
            f"probability {float(probabilities[outside][0])!r} outside [0, 1] beyond tolerance"
        )
    return probabilities >= 1.0 - pol.prob_tol


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
    statements = tuple(statements)
    equivalents = _equivalents(statements, family, pol)
    label_values = dict(zip(family.labels, _certainty_values(model, family.projection_stack, pol)))
    values = [TruthValue.UNDEFINED] * len(statements)
    meaningful = [realist] * len(statements)
    # One stack of the testable equivalents serves certainty and, in standard
    # mode, the non-disturbance criterion against the support.
    tested = [index for index, equivalent in enumerate(equivalents) if equivalent is not None]
    members = np.reshape([equivalents[index] for index in tested], (-1, family.dim, family.dim))
    for index, value in zip(tested, _certainty_values(model, members, pol)):
        values[index] = value
    if not realist:
        for index, residual in zip(tested, objective_residuals(model, members).tolist()):
            meaningful[index] = criterion_holds("nondisturbance", residual, family.dim, pol)
    # An untestable statement is flagged when it is a classical tautology or
    # contradiction: its truth table is all true (full) or all false (0).
    flagged = [False] * len(statements)
    for index, equivalent in enumerate(equivalents):
        if equivalent is None:
            table, full = truth_table(statements[index])
            flagged[index] = table in (0, full)
    records = [
        StatementRecord(
            statement=statement,
            text=format_statement(statement),
            testable=equivalent is not None,
            verificationist=value,
            kleene=_kleene(statement, label_values),
            meaningful=objective,
            predictable=value is not TruthValue.UNDEFINED,
            flagged=constant,
        )
        for statement, equivalent, value, objective, constant in zip(
            statements, equivalents, values, meaningful, flagged
        )
    ]
    witness = next(
        (record.text for record in records if record.meaningful and not record.predictable),
        None,
    )
    return CompletenessAudit(
        mode=mode_key,
        records=tuple(records),
        meaningful=frozenset(record.text for record in records if record.meaningful),
        predictable=frozenset(record.text for record in records if record.predictable),
        verdict="complete" if witness is None else "incomplete",
        witness=witness,
        flagged=tuple(record.text for record in records if record.flagged),
    )
