"""Observative statements over a property family: a prefix-text parser, one
compiled table of an audit's statements, read by a total classical
valuation, a three-valued verificationist valuation with its testability
filter, and the completeness audit contrasting the two."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial

import numpy as np

from .domains import PureStateModel, certainty, objective_mask
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


def _compile(statements) -> tuple[list[tuple[str, tuple]], list[int]]:
    """The statements' node table and the row of each statement.

    Row r of the table is a (kind, operands) pair: kind is one of "atom",
    "not", "and", "or" and "implies", operands the atom's label or the rows
    of the connective's operands, each below r. One fold per statement
    hash-conses each node under its kind and its operands' rows, so
    identical subterms share one row across statements. The fold's depth
    ValueError and non-statement TypeError propagate."""
    rows: dict[tuple[str, tuple], int] = {}

    def row(kind, *operands):
        return rows.setdefault((kind, operands), len(rows))

    kinds = [partial(row, kind) for kind in ("atom", "not", "and", "or", "implies")]
    roots = [fold(statement, *kinds) for statement in statements]
    return list(rows), roots


def _evaluate(
    nodes, rows, elementary, negation, conjunction, disjunction, implication=None
) -> dict:
    """Each of ``rows`` (ascending, and holding every operand row of each
    connective row among them) mapped to its value under the algebra, read
    as by ``fold``: ``elementary`` maps a label, the connectives combine
    their operands' values, and implication defaults to the material
    reading."""
    if implication is None:
        implication = partial(_material, negation, disjunction)
    binary = {"and": conjunction, "or": disjunction, "implies": implication}
    values = {}
    for row in rows:
        kind, operands = nodes[row]
        if kind == "atom":
            values[row] = elementary(*operands)
        elif kind == "not":
            values[row] = negation(values[operands[0]])
        else:
            left, right = operands
            values[row] = binary[kind](values[left], values[right])
    return values


def _below(nodes, roots) -> list[int]:
    """The rows that the given roots reach, themselves included, ascending."""
    seen, pending = set(), list(roots)
    while pending:
        row = pending.pop()
        if row not in seen:
            seen.add(row)
            kind, operands = nodes[row]
            if kind != "atom":
                pending += operands
    return sorted(seen)


def _connective(name):
    return lambda left, right: f"({name} {left} {right})"


def _texts(nodes) -> dict:
    """Each row's canonical prefix text, the inverse of parse_statement."""
    return _evaluate(
        nodes, range(len(nodes)), str, "(not {})".format,
        _connective("and"), _connective("or"), _connective("implies"),
    )


def _atom_sets(nodes) -> dict:
    """Each row's labels, as a frozenset."""
    union = frozenset.union
    return _evaluate(
        nodes, range(len(nodes)), lambda label: frozenset((label,)), frozenset, union, union
    )


def _equivalents(nodes, roots, labels, family: PropertyFamily, pol: TolerancePolicy) -> list:
    """Per root, its elementary equivalent, a validated (d, d) projection
    matrix, or None when no single yes/no measurement can verify it; all
    from one stacked pass. ``labels[i]`` lists root i's labels, sorted.

    A compound is accepted exactly when its constituent properties pairwise
    commute; its connective tree is then evaluated inside the Boolean
    subalgebra they generate (not -> orthocomplement, and -> meet, or ->
    join, implication materially). An elementary statement is always
    testable and gives its own row of the family's projection stack.

    One (n, n) table of the members' pairwise commutator norms decides
    testability, once every root's labels resolve, root by root in sorted
    order. The rows below testable roots are then evaluated bottom up,
    identical subterms sharing one key, with one orthocomplement, meet and
    join call per height across roots."""
    stack = family.projection_stack
    norms = _commutator_norms(stack[:, None], stack[None])
    commute = criterion_holds("commutation", norms, family.dim, pol).tolist()
    testable = []
    for names in labels:
        members = [family.index(label) for label in names]
        testable.append(all(commute[a][b] for a, b in itertools.combinations(members, 2)))
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
    tested = [root for root, ok in zip(roots, testable) if ok]
    keys = _evaluate(nodes, _below(nodes, tested), family.index, *connectives)
    operations = {"not": orthocomplement, "and": partial(meet, pol=pol), "or": partial(join, pol=pol)}
    for (_, kind), level in sorted(levels.items()):
        _, *columns = zip(*level)  # the first column holds the kind
        stacks = (np.stack([values[operand] for operand in column]) for column in columns)
        values.update(zip(level, operations[kind](*stacks)))
    return [values[keys[root]] if ok else None for root, ok in zip(roots, testable)]


# Certainty and strong-Kleene values as the codes FALSE = 0 < UNDEFINED = 1 <
# TRUE = 2. Strong Kleene (Kleene 1952, section 64): conjunction and
# disjunction are the minimum and the maximum, negation reverses the order,
# and implication is material, _evaluate's default.
_TRUTH_VALUES = (TruthValue.FALSE, TruthValue.UNDEFINED, TruthValue.TRUE)
_kleene_not = partial(operator.sub, 2)
_kleene_and, _kleene_or = min, max


def _certainty_codes(model: PureStateModel, members: np.ndarray, pol: TolerancePolicy) -> list[int]:
    """Certainty code of each member of an (m, d, d) stack of projections:
    TRUE above the support, else FALSE below its orthocomplement, else
    UNDEFINED."""
    above, below = certainty(model, members, pol)
    return [2 if true else 0 if false else 1 for true, false in zip(above.tolist(), below.tolist())]


_MAX_TABLE_ATOMS = 16


def _truth_table(nodes, root: int, labels) -> tuple[int, int]:
    """The classical truth table of the root's statement as a bitset, and
    the all-true table, from one pass over the rows below the root: bit r
    is the value under assignment r, in which labels[i] (the root's labels
    in sorted order) holds when bit i of r is set. Negation is the XOR
    against the all-true table; implication is material. A tautology's
    table is the all-true one and a contradiction's is 0; more than 16
    atoms raise ValueError."""
    if len(labels) > _MAX_TABLE_ATOMS:
        raise ValueError(f"too many atoms for a truth table: {len(labels)}")
    full = (1 << (1 << len(labels))) - 1
    columns = {}
    for bit, label in enumerate(labels):
        run = 1 << bit  # the label's rows alternate runs of `run` unset and `run` set
        columns[label] = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
    negation = partial(operator.xor, full)
    values = _evaluate(
        nodes, _below(nodes, [root]), columns.__getitem__, negation, operator.and_, operator.or_
    )
    return values[root], full


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
    probability outside [0, 1] beyond prob_tol raises ValueError."""
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

    ``verificationist`` is the three-valued valuation: a statement has a
    truth value only when it is testable and its elementary equivalent is
    certain in the given state. Non-testable compounds are UNDEFINED however
    their parts evaluate; testability, not componentwise definedness, is the
    criterion. ``kleene`` is the strong-Kleene propagation of the elementary
    certainty values, reported alongside but never driving the audit.
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
    Every statement rule reads one compiled table of the statements, in one
    pass over its rows, so a subterm shared across statements is evaluated
    once per rule.
    """
    mode_key = mode.lower()
    if mode_key not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    realist = mode_key == "sr"
    statements = tuple(statements)
    nodes, roots = _compile(statements)
    atoms = _atom_sets(nodes)
    labels = [sorted(atoms[root]) for root in roots]
    equivalents = _equivalents(nodes, roots, labels, family, pol)
    values = [TruthValue.UNDEFINED] * len(statements)
    meaningful = [realist] * len(statements)
    # One stack of the testable equivalents serves certainty and, in standard
    # mode, the non-disturbance criterion against the support.
    tested = [index for index, equivalent in enumerate(equivalents) if equivalent is not None]
    members = np.reshape([equivalents[index] for index in tested], (-1, family.dim, family.dim))
    for index, code in zip(tested, _certainty_codes(model, members, pol)):
        values[index] = _TRUTH_VALUES[code]
    if not realist:
        for index, objective in zip(tested, objective_mask(model, members, pol).tolist()):
            meaningful[index] = objective
    label_codes = dict(zip(family.labels, _certainty_codes(model, family.projection_stack, pol)))
    kleene = _evaluate(
        nodes, range(len(nodes)), label_codes.__getitem__, _kleene_not, _kleene_and, _kleene_or
    )
    # An untestable statement is flagged when it is a classical tautology or
    # contradiction: its truth table is all true (full) or all false (0).
    flagged = [False] * len(statements)
    for index, equivalent in enumerate(equivalents):
        if equivalent is None:
            truth, full = _truth_table(nodes, roots[index], labels[index])
            flagged[index] = truth in (0, full)
    texts = _texts(nodes)
    records = [
        StatementRecord(
            statement=statement,
            text=texts[root],
            testable=equivalent is not None,
            verificationist=value,
            kleene=_TRUTH_VALUES[kleene[root]],
            meaningful=objective,
            predictable=value is not TruthValue.UNDEFINED,
            flagged=constant,
        )
        for statement, root, equivalent, value, objective, constant in zip(
            statements, roots, equivalents, values, meaningful, flagged
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
