import functools
import itertools
import operator
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from sympy.logic.boolalg import And as SymAnd
from sympy.logic.boolalg import Implies as SymImplies
from sympy.logic.boolalg import Not as SymNot
from sympy.logic.boolalg import Or as SymOr

from qlat import (
    And,
    Elementary,
    Implies,
    Ket,
    Not,
    Observable,
    Or,
    Projection,
    PropertyFamily,
    PureStateModel,
    SeededRng,
    TolerancePolicy,
    TruthValue,
    atom_labels,
    born_probability,
    completeness_audit,
    fold,
    format_statement,
    generate_property_family,
    haar_random_ket,
    is_testable,
    join,
    kleene_truth,
    leq,
    matrices_close,
    meet,
    orthocomplement,
    order_isomorphism_check,
    parse_statement,
    projection_onto_span,
    reference_statements,
    tarskian_truth,
    truth_table,
    verificationist_truth,
)
from qlat import domains, semantics
from qlat.cli import main
from qlat.measurement import criterion_holds, nondisturbance_residual
from qlat.numerics import _frobenius_norms, _ranks, commutator_norm, range_basis

TAUTOLOGY_EDGE = Implies(Elementary("Pplus"), Or(Elementary("Pplus"), Elementary("P0")))


def to_sympy(statement, symbols):
    if isinstance(statement, Elementary):
        return symbols[statement.label]
    if isinstance(statement, Not):
        return SymNot(to_sympy(statement.operand, symbols))
    if isinstance(statement, And):
        return SymAnd(to_sympy(statement.left, symbols), to_sympy(statement.right, symbols))
    if isinstance(statement, Or):
        return SymOr(to_sympy(statement.left, symbols), to_sympy(statement.right, symbols))
    return SymImplies(to_sympy(statement.left, symbols), to_sympy(statement.right, symbols))


def all_statements(labels, depth):
    """Every statement of AST depth <= depth over the labels (atoms count as depth 0)."""
    levels = [tuple(Elementary(label) for label in labels)]
    for _ in range(depth):
        previous = tuple(itertools.chain.from_iterable(levels))
        new = [Not(s) for s in previous]
        for left, right in itertools.product(previous, repeat=2):
            new.extend((And(left, right), Or(left, right), Implies(left, right)))
        levels.append(tuple(new))
    return tuple(itertools.chain.from_iterable(levels))


def random_statement(labels, depth, gen):
    if depth == 0 or gen.random() < 0.2:
        return Elementary(labels[int(gen.integers(len(labels)))])
    kind = int(gen.integers(4))
    if kind == 0:
        return Not(random_statement(labels, depth - 1, gen))
    inner = (
        random_statement(labels, depth - 1, gen),
        random_statement(labels, depth - 1, gen),
    )
    return (And, Or, Implies)[kind - 1](*inner)


T, F, U = TruthValue.TRUE, TruthValue.FALSE, TruthValue.UNDEFINED

# Strong Kleene (Kleene 1952, section 64), written out cell by cell.
KLEENE_NOT = {T: F, U: U, F: T}
KLEENE_AND = {
    (T, T): T, (T, U): U, (T, F): F,
    (U, T): U, (U, U): U, (U, F): F,
    (F, T): F, (F, U): F, (F, F): F,
}  # fmt: skip
KLEENE_OR = {
    (T, T): T, (T, U): T, (T, F): T,
    (U, T): T, (U, U): U, (U, F): U,
    (F, T): T, (F, U): U, (F, F): F,
}  # fmt: skip


def leq_certainty(matrix, model, pol):
    """The certainty rule one leq pair at a time on a projection matrix:
    TRUE above the support, else FALSE below its orthocomplement, else (or
    with no matrix) UNDEFINED."""
    if matrix is not None:
        if leq(model.support.matrix, matrix, pol):
            return T
        if leq(matrix, model.complement.matrix, pol):
            return F
    return U


def table_kleene(statement, values):
    """Strong-Kleene value read from the written-out tables."""
    return fold(
        statement,
        values.__getitem__,
        KLEENE_NOT.__getitem__,
        lambda left, right: KLEENE_AND[left, right],
        lambda left, right: KLEENE_OR[left, right],
    )


def check_kleene_tables(model, family):
    """kleene_truth against the tables on every label, its negation and every
    ordered pair of labels under each binary connective."""
    values = {label: kleene_truth(Elementary(label), model, family) for label in family.labels}
    assert set(values.values()) == {T, F, U}  # so every cell of each table is reached
    for label, value in values.items():
        assert kleene_truth(Not(Elementary(label)), model, family) is KLEENE_NOT[value]
    for a, b in itertools.product(family.labels, repeat=2):
        cell = values[a], values[b]
        left, right = Elementary(a), Elementary(b)
        assert kleene_truth(And(left, right), model, family) is KLEENE_AND[cell]
        assert kleene_truth(Or(left, right), model, family) is KLEENE_OR[cell]
        material = KLEENE_OR[KLEENE_NOT[values[a]], values[b]]
        assert kleene_truth(Implies(left, right), model, family) is material


def check_per_member_route(pol, seed=57):
    """Certainty masks, verificationist and Kleene values, from the public
    functions and from completeness_audit, against the per-member leq route
    at d = 2..8."""
    gen = SeededRng(seed).generator()
    seen = set()
    for dim in range(2, 9):
        model = PureStateModel.from_ket(haar_random_ket(dim, gen))
        family = generate_property_family(dim, 6, model, gen, pol)
        above, below = domains.certainty(model, family.projection_stack, pol)
        members = list(family.projection_stack)
        support, complement = model.support.matrix, model.complement.matrix
        assert above.tolist() == [leq(support, member, pol) for member in members]
        assert below.tolist() == [leq(member, complement, pol) for member in members]
        values = {
            label: leq_certainty(row, model, pol)
            for label, row in zip(family.labels, family.projection_stack)
        }
        statements = [random_statement(list(family.labels), 2, gen) for _ in range(12)]
        audit = completeness_audit(model, family, statements, "standard", pol)
        for statement, record in zip(statements, audit.records):
            verificationist = leq_certainty(is_testable(statement, family, pol), model, pol)
            kleene = table_kleene(statement, values)
            assert verificationist_truth(statement, model, family, pol) is verificationist
            assert kleene_truth(statement, model, family, pol) is kleene
            assert (record.verificationist, record.kleene) == (verificationist, kleene)
            seen.add(verificationist)
    assert seen == {T, F, U}


def check_truth_tables(seed=58, count=150):
    """The bitset table against tarskian_truth on every assignment, and its
    tautology and contradiction readings against the rows, for seeded
    statements over up to 6 atoms and for the tautology, contradiction and
    contingency built from each."""
    gen = SeededRng(seed).generator()
    names = [f"a{i}" for i in range(6)]
    widths = set()
    for _ in range(count):
        base = random_statement(names[: int(gen.integers(1, 7))], 4, gen)
        for statement in (base, Or(base, Not(base)), And(base, Not(base)), Implies(base, base)):
            labels = sorted(atom_labels(statement))
            rows = [
                tarskian_truth(statement, {label: bool(row >> i & 1) for i, label in enumerate(labels)})
                for row in range(1 << len(labels))
            ]
            table, full = truth_table(statement)
            assert full == (1 << len(rows)) - 1
            assert table == sum(1 << row for row, value in enumerate(rows) if value)
            assert (table == full) == all(rows)
            assert (table == 0) == (not any(rows))
            widths.add(len(labels))
    assert widths == {1, 2, 3, 4, 5, 6}


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        [
            "E1",
            "(not E1)",
            "(and E1 E2)",
            "(or (not E1) (implies E2 E3))",
            "(implies (and E1 E2) (or E1 (not E3)))",
        ],
    )
    def test_round_trip(self, text):
        assert format_statement(parse_statement(text)) == text

    @pytest.mark.parametrize(
        "text",
        ["", "(and E1)", "(nope E1 E2)", "(and E1 E2", "(and E1 E2) trailing", ")", "(not)"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_statement(text)

    @pytest.mark.parametrize("connective", ["not", "and"])
    def test_nesting_depth_limit(self, connective):
        def nested(depth):
            close = ")" if connective == "not" else " E2)"
            return f"({connective} " * depth + "E1" + close * depth

        deepest = nested(256)
        assert format_statement(parse_statement(deepest)) == deepest
        for depth in (257, 2000):
            with pytest.raises(ValueError, match="deeper than 256 levels"):
                parse_statement(nested(depth))

    def test_structural_identity(self):
        assert parse_statement("(and E1 E2)") == And(Elementary("E1"), Elementary("E2"))
        assert hash(parse_statement("(not E1)")) == hash(Not(Elementary("E1")))

    def test_atom_labels(self):
        statement = parse_statement("(implies (and a b) (or a (not c)))")
        assert atom_labels(statement) == {"a", "b", "c"}


class TestFold:
    @staticmethod
    def render(statement, implication=None):
        return fold(
            statement,
            str,
            lambda value: f"-{value}",
            lambda left, right: f"[{left}&{right}]",
            lambda left, right: f"[{left}|{right}]",
            implication,
        )

    def test_implication_defaults_to_material(self):
        statement = parse_statement("(implies a (not b))")
        assert self.render(statement) == "[-a|-b]"
        assert self.render(statement, lambda left, right: f"{left}>{right}") == "a>-b"

    @pytest.mark.parametrize(
        "node", [42, "a", And(Elementary("a"), "b"), Not(None), Or(Elementary("a"), 1.5)]
    )
    def test_rejects_non_statement_node(self, node):
        with pytest.raises(TypeError, match="not a statement"):
            self.render(node)
        with pytest.raises(TypeError, match="not a statement"):
            format_statement(node)

    @pytest.mark.parametrize("connective", ["not", "and"])
    def test_depth_limit_of_trees_built_in_python(self, qubit_family, connective):
        # Without the limit, 2,000 levels raised RecursionError from the fold.
        def nested(depth):
            statement = Elementary("P0")
            for _ in range(depth):
                statement = Not(statement) if connective == "not" else And(statement, Elementary("P1"))
            return statement

        deepest = nested(256)
        assert parse_statement(format_statement(deepest)) == deepest
        for depth in (257, 2000):
            statement = nested(depth)
            for walk in (format_statement, truth_table, lambda s: is_testable(s, qubit_family)):
                with pytest.raises(ValueError, match="deeper than 256 levels"):
                    walk(statement)


class TestTarskianTruth:
    def test_elementary(self):
        assert tarskian_truth(Elementary("E"), {"E": True})
        assert not tarskian_truth(Elementary("E"), {"E": False})

    def test_contradiction_false_everywhere(self):
        statement = And(Elementary("E"), Not(Elementary("E")))
        for value in (False, True):
            assert not tarskian_truth(statement, {"E": value})

    def test_tautology_true_everywhere(self):
        statement = Implies(Elementary("a"), Or(Elementary("a"), Elementary("b")))
        for a, b in itertools.product((False, True), repeat=2):
            assert tarskian_truth(statement, {"a": a, "b": b})

    def test_unresolved_label(self):
        with pytest.raises(ValueError, match="unresolved"):
            tarskian_truth(Elementary("ghost"), {})

    @pytest.mark.parametrize(
        "text, assignment",
        [
            ("(and a ghost)", {"a": False}),
            ("(or a ghost)", {"a": True}),
            ("(implies a ghost)", {"a": False}),
            ("(and ghost a)", {"a": False}),
            ("(not (or (not a) ghost))", {"a": False}),
        ],
    )
    def test_unresolved_label_in_any_position(self, text, assignment):
        with pytest.raises(ValueError, match="unresolved label 'ghost'"):
            tarskian_truth(parse_statement(text), assignment)

    def test_total_on_every_assignment(self):
        statement = parse_statement("(implies (or a (not b)) (and b c))")
        for bits in itertools.product((False, True), repeat=3):
            value = tarskian_truth(statement, dict(zip("abc", bits)))
            assert isinstance(value, bool)

    def test_exhaustive_against_sympy_oracle(self):
        labels = ("a", "b")
        symbols = {label: sympy.Symbol(label) for label in labels}
        for statement in all_statements(labels, 2):
            oracle = to_sympy(statement, symbols)
            for bits in itertools.product((False, True), repeat=len(labels)):
                assignment = dict(zip(labels, bits))
                expected = bool(oracle.subs({symbols[k]: v for k, v in assignment.items()}))
                assert tarskian_truth(statement, assignment) == expected

    def test_sampled_deep_statements_against_sympy_oracle(self):
        labels = ("a", "b", "c")
        symbols = {label: sympy.Symbol(label) for label in labels}
        gen = SeededRng(50).generator()
        for _ in range(400):
            statement = random_statement(labels, 4, gen)
            oracle = to_sympy(statement, symbols)
            for bits in itertools.product((False, True), repeat=len(labels)):
                assignment = dict(zip(labels, bits))
                expected = bool(oracle.subs({symbols[k]: v for k, v in assignment.items()}))
                assert tarskian_truth(statement, assignment) == expected


class TestTautologyDetectors:
    def test_detects_shapes(self):
        # A tautology's table is all true (full), a contradiction's is 0; the
        # label a holds in row 1 of its two rows.
        a = Elementary("a")
        assert truth_table(Or(a, Not(a))) == (0b11, 0b11)
        assert truth_table(TAUTOLOGY_EDGE) == (0b1111, 0b1111)
        assert truth_table(And(a, Not(a))) == (0, 0b11)
        assert truth_table(a) == (0b10, 0b11)

    def test_bitset_table_equals_tarskian_on_every_assignment(self):
        check_truth_tables()

    def test_seventeen_atoms_raise_the_cap(self):
        atoms = [Elementary(f"a{i:02d}") for i in range(17)]
        wide = functools.reduce(Or, atoms)
        with pytest.raises(ValueError, match="too many atoms for a truth table: 17"):
            truth_table(wide)
        sixteen = functools.reduce(Or, atoms[:16])
        table, full = truth_table(sixteen)
        assert full == (1 << (1 << 16)) - 1
        assert table == full - 1  # false only where every atom is
        assert truth_table(Or(sixteen, Not(atoms[15]))) == (full, full)

    def test_audit_checks_labels_before_the_table_cap(self):
        # Every statement is resolved against the family before any truth
        # table is built, so a bad label later in the list raises first.
        gen = SeededRng(59).generator()
        family = PropertyFamily(
            [(f"a{i:02d}", projection_onto_span(haar_random_ket(2, gen).amplitudes[:, None]))
             for i in range(17)],
            dim=2,
        )
        model = PureStateModel.from_ket(Ket.basis(2, 0))
        wide = functools.reduce(Or, [Elementary(label) for label in family.labels[:17]])
        assert is_testable(wide, family) is None
        with pytest.raises(ValueError, match="too many atoms for a truth table: 17"):
            completeness_audit(model, family, [wide], "sr")
        with pytest.raises(ValueError, match="unresolved label 'ghost'"):
            completeness_audit(model, family, [wide, Elementary("ghost")], "sr")


class TestTestability:
    def test_elementary_returns_own_projection(self, qubit_family, pplus):
        assert matrices_close(is_testable(Elementary("Pplus"), qubit_family), pplus)

    def test_contradiction_over_complementary_members(self, qubit_family):
        statement = And(Elementary("P0"), Elementary("P1"))
        assert matrices_close(is_testable(statement, qubit_family), Projection(np.zeros((2, 2))))

    def test_noncommuting_pair_untestable(self, qubit_family):
        assert is_testable(And(Elementary("P0"), Elementary("Pplus")), qubit_family) is None
        assert is_testable(TAUTOLOGY_EDGE, qubit_family) is None

    def test_unresolved_label(self, qubit_family):
        with pytest.raises(ValueError, match="unresolved"):
            is_testable(Elementary("ghost"), qubit_family)

    def test_commuting_tree_evaluates_in_boolean_subalgebra(self, qubit_family):
        statement = Or(Elementary("P0"), Elementary("P1"))
        equivalent = is_testable(statement, qubit_family)
        assert equivalent is not None and Projection(equivalent).rank == 2
        implied = is_testable(Implies(Elementary("P0"), Elementary("P1")), qubit_family)
        # (not P0) v P1 = P1 v P1 = P1 complement is |1><1| joined with itself
        assert matrices_close(implied, qubit_family.get("P1"))


def reference_is_testable(statement, family, pol):
    """The per-statement route that ``is_testable`` once took on its own:
    labels resolved in sorted order, one ``commutator_norm`` per label pair,
    then one fold of single-matrix lattice operations over the tree."""
    labels = sorted(atom_labels(statement))
    rows = {label: family.projection_stack[family.index(label)] for label in labels}
    for a, b in itertools.combinations(labels, 2):
        residual = commutator_norm(rows[a], rows[b])
        if not criterion_holds("commutation", residual, family.dim, pol):
            return None
    return fold(
        statement,
        rows.__getitem__,
        orthocomplement,
        functools.partial(meet, pol=pol),
        functools.partial(join, pol=pol),
    )


def shared_statements(labels, gen, count):
    """``count`` random depth-3 statements over the labels; every other one
    is a connective over two members of a pool of four depth-2 subterms, so
    labels and subterms repeat within and across statements."""
    pool = [random_statement(labels, 2, gen) for _ in range(4)]
    statements = []
    for index in range(count):
        if index % 2:
            left, right = (pool[int(gen.integers(len(pool)))] for _ in range(2))
            statements.append((And, Or, Implies)[index % 3](left, right))
        else:
            statements.append(random_statement(labels, 3, gen))
    return statements


class TestStackedTestability:
    """completeness_audit decides testability for all its statements in one
    stacked pass; the per-statement fold written out above is its oracle."""

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_equals_the_per_statement_fold(self, pol, seed):
        gen = SeededRng(seed).generator()
        seen = set()
        for dim in range(2, 9):
            model = PureStateModel.from_ket(haar_random_ket(dim, gen))
            family = generate_property_family(dim, 8, model, gen, pol)
            statements = shared_statements(list(family.labels), gen, 40)
            stacked = semantics._equivalents(statements, family, pol)
            for statement, equivalent in zip(statements, stacked):
                expected = reference_is_testable(statement, family, pol)
                assert (equivalent is None) == (expected is None)
                seen.add(expected is None)
                if expected is not None:
                    assert _ranks(equivalent, pol.eig_gap) == _ranks(expected, pol.eig_gap)
                    assert _frobenius_norms(equivalent - expected) < pol.op_tol
            audit = completeness_audit(model, family, statements, "standard", pol)
            assert [record.testable for record in audit.records] == [
                equivalent is not None for equivalent in stacked
            ]
        assert seen == {True, False}

    def test_depth_and_labels_still_raise_through_the_audit(self, ground_model, qubit_family):
        deep = Elementary("P0")
        for _ in range(257):
            deep = Not(deep)
        with pytest.raises(ValueError, match="deeper than 256 levels"):
            completeness_audit(ground_model, qubit_family, [Elementary("P1"), deep], "standard")
        # labels resolve in sorted order, so 'ghost' is named before 'zebra'
        unknown = And(Elementary("zebra"), Or(Elementary("P0"), Elementary("ghost")))
        for mode in ("standard", "sr"):
            with pytest.raises(ValueError, match="unresolved label 'ghost'"):
                completeness_audit(ground_model, qubit_family, [Elementary("P1"), unknown], mode)
        with pytest.raises(TypeError, match="not a statement"):
            completeness_audit(ground_model, qubit_family, [Elementary("P1"), Not(3)], "sr")

    def test_eigh_calls_stay_flat_as_statements_are_added(self, tmp_path, monkeypatch):
        case = Path(__file__).parent / "data" / "golden" / "d8"
        text = (case / "statements.txt").read_text(encoding="utf-8")
        doubled = tmp_path / "statements.txt"
        doubled.write_text(text + text, encoding="utf-8")
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        counts = []
        for statements in (case / "statements.txt", doubled):
            calls.clear()
            argv = ["audit", "--family", str(case / "family.json"), "--state",
                    str(case / "state.json"), "--statements", str(statements),
                    "--mode", "standard", "--out", str(tmp_path / "audit.json")]
            assert main(argv) == 0
            counts.append(len(calls))
        assert counts[0] <= 9  # 14 when each statement folded its own tree
        assert counts[1] <= counts[0]


class TestVerificationistTruth:
    def test_identity_true_in_every_state(self, qubit_family):
        gen = SeededRng(51).generator()
        for _ in range(20):
            model = PureStateModel.from_ket(haar_random_ket(2, gen))
            value = verificationist_truth(Elementary("I"), model, qubit_family)
            assert value is TruthValue.TRUE

    def test_superposed_atom_undefined(self, ground_model, qubit_family):
        value = verificationist_truth(Elementary("Pplus"), ground_model, qubit_family)
        assert value is TruthValue.UNDEFINED

    def test_testable_conjunction_false(self, ground_model, qubit_family):
        statement = And(Elementary("P0"), Elementary("P1"))
        assert verificationist_truth(statement, ground_model, qubit_family) is TruthValue.FALSE

    def test_untestable_compound_undefined_despite_kleene(self, ground_model, qubit_family):
        assert (
            verificationist_truth(TAUTOLOGY_EDGE, ground_model, qubit_family)
            is TruthValue.UNDEFINED
        )
        assert kleene_truth(TAUTOLOGY_EDGE, ground_model, qubit_family) is TruthValue.TRUE

    def test_undefined_propagates_in_kleene_when_unrescued(self, ground_model, qubit_family):
        statement = And(Elementary("P0"), Elementary("Pplus"))
        assert kleene_truth(statement, ground_model, qubit_family) is TruthValue.UNDEFINED
        assert (
            verificationist_truth(statement, ground_model, qubit_family) is TruthValue.UNDEFINED
        )

    def test_worked_family_matches_the_written_out_kleene_tables(
        self, ground_model, qubit_family
    ):
        def value(label):
            return kleene_truth(Elementary(label), ground_model, qubit_family)

        assert (value("P0"), value("P1"), value("Pplus")) == (T, F, U)
        check_kleene_tables(ground_model, qubit_family)

    def test_kleene_rejects_unresolved_label(self, ground_model, qubit_family):
        with pytest.raises(ValueError, match="unresolved label 'ghost'"):
            kleene_truth(Or(Elementary("I"), Elementary("ghost")), ground_model, qubit_family)

    @pytest.mark.parametrize(
        "pol", [TolerancePolicy(), TolerancePolicy(op_tol=0.3, eig_gap=0.5)], ids=["default", "loose"]
    )
    def test_values_equal_the_per_member_leq_route(self, pol):
        check_per_member_route(pol)

    def test_never_contradicts_certainty(self, pol):
        gen = SeededRng(52).generator()
        for _ in range(25):
            dim = int(gen.integers(2, 6))
            model = PureStateModel.from_ket(haar_random_ket(dim, gen))
            family = generate_property_family(dim, 6, model, gen, pol)
            labels = list(family.labels)
            for _ in range(10):
                statement = random_statement(labels, 2, gen)
                equivalent = is_testable(statement, family, pol)
                if equivalent is None:
                    continue
                value = verificationist_truth(statement, model, family, pol)
                probability = born_probability(model.state, Projection(equivalent), pol)
                if value is TruthValue.TRUE:
                    assert probability == pytest.approx(1.0, abs=pol.prob_tol)
                elif value is TruthValue.FALSE:
                    assert probability == pytest.approx(0.0, abs=pol.prob_tol)
                else:
                    assert pol.prob_tol < probability < 1.0 - pol.prob_tol


class TestOrderIsomorphism:
    def test_chain_family(self):
        family = PropertyFamily([("axis", projection_onto_span(np.eye(3)[:, :1]))], dim=3)
        assert order_isomorphism_check(family)

    def test_worked_family(self, qubit_family):
        assert order_isomorphism_check(qubit_family)

    def test_adversarial_family(self, pol):
        gen = SeededRng(53).generator()
        model = PureStateModel.from_ket(haar_random_ket(4, gen))
        family = generate_property_family(4, 9, model, gen, pol)
        assert order_isomorphism_check(family, pol, rng=SeededRng(54), samples=200)

    def test_stacked_route_equals_the_per_member_and_state_loop(self, pol, monkeypatch):
        # The per-(member, state) route written out: a Ket per range basis
        # vector of each member and per Haar draw, one born_probability per
        # member and state, and one leq per ordered member pair.
        seen = {}
        stacked_certain, stacked_leq = semantics._certain_in, semantics.leq

        def spy_certain(stack, test_states, pol):
            seen["states"] = test_states
            seen["certain"] = stacked_certain(stack, test_states, pol)
            return seen["certain"]

        def spy_leq(p, q, pol):
            seen["order"] = stacked_leq(p, q, pol)
            return seen["order"]

        monkeypatch.setattr(semantics, "_certain_in", spy_certain)
        monkeypatch.setattr(semantics, "leq", spy_leq)
        for dim in range(2, 7):
            gen = SeededRng(60 + dim).generator()
            model = PureStateModel.from_ket(haar_random_ket(dim, gen))
            family = generate_property_family(dim, 7, model, gen, pol)
            members = [family.get(label) for label in family.labels]
            states = [Ket.normalized(v) for member in members for v in range_basis(member).T]
            draws = SeededRng(dim).generator()
            states += [haar_random_ket(dim, draws) for _ in range(12)]
            certain = [
                [born_probability(state, member, pol) >= 1.0 - pol.prob_tol for state in states]
                for member in members
            ]
            order = [[leq(a.matrix, b.matrix, pol) for b in members] for a in members]
            entailed = [
                [all(b_row[s] for s, holds in enumerate(a_row) if holds) for b_row in certain]
                for a_row in certain
            ]

            verdict = order_isomorphism_check(family, pol, rng=SeededRng(dim), samples=12)
            np.testing.assert_allclose(
                seen["states"], [state.amplitudes for state in states], rtol=0, atol=1e-14
            )
            assert seen["certain"].tolist() == certain
            assert seen["order"].tolist() == order
            assert verdict and order == entailed
            # Neither table is constant, so the comparison is not vacuous.
            assert {holds for row in certain for holds in row} == {True, False}
            assert {below for row in order for below in row} == {True, False}


class TestCompletenessAudit:
    def test_standard_mode_complete_on_elementary_statements(self, ground_model, qubit_family):
        statements = [Elementary(label) for label in qubit_family.labels]
        audit = completeness_audit(ground_model, qubit_family, statements, "standard")
        assert audit.verdict == "complete"
        assert audit.meaningful == audit.predictable
        assert audit.meaningful == frozenset({"0", "P0", "P1", "I"})
        assert audit.witness is None

    def test_sr_mode_incomplete_with_witness(self, ground_model, qubit_family):
        statements = [Elementary(label) for label in qubit_family.labels]
        audit = completeness_audit(ground_model, qubit_family, statements, "sr")
        assert audit.verdict == "incomplete"
        assert audit.meaningful == frozenset(qubit_family.labels)
        assert audit.witness == "Pplus"

    def test_meaningful_matches_defined_truth_values(self, ground_model, qubit_family):
        # the measurement-side criterion and the three-valued verdicts must
        # select the same statements, re-deriving the equality instead of
        # assuming it
        audit = completeness_audit(
            ground_model, qubit_family, reference_statements(), "standard"
        )
        for record in audit.records:
            assert record.meaningful == (record.verificationist is not TruthValue.UNDEFINED)

    def test_flagged_tautology_appears_in_report(self, ground_model, qubit_family):
        audit = completeness_audit(
            ground_model, qubit_family, reference_statements(), "standard"
        )
        assert format_statement(TAUTOLOGY_EDGE) in audit.flagged
        document = audit.to_json_dict()
        flagged_rows = [row for row in document["statements"] if row["flagged"]]
        assert len(flagged_rows) == 1
        assert flagged_rows[0]["verificationist"] == "undefined"
        assert flagged_rows[0]["kleene"] == "true"

    @pytest.mark.parametrize("mode", ["standard", "sr"])
    def test_one_truth_table_per_untestable_statement(
        self, ground_model, qubit_family, monkeypatch, mode
    ):
        texts = ["P0", "(and P0 Pplus)", "(and (and P0 Pplus) (not P0))", "(or P0 P1)"]
        statements = [*reference_statements(), *map(parse_statement, texts)]
        tables = []

        def counted(statement):
            tables.append(statement)
            return truth_table(statement)

        monkeypatch.setattr(semantics, "truth_table", counted)
        audit = completeness_audit(ground_model, qubit_family, statements, mode)
        untestable = [record for record in audit.records if not record.testable]
        assert len(untestable) >= 3
        assert [format_statement(statement) for statement in tables] == [
            record.text for record in untestable
        ]
        monkeypatch.undo()
        constant = [truth_table(record.statement) for record in untestable]
        assert list(audit.flagged) == [
            record.text for record, (table, full) in zip(untestable, constant) if table in (0, full)
        ]
        assert "(and (and P0 Pplus) (not P0))" in audit.flagged

    def test_commuting_family_complete_in_both_modes(self, pol):
        family = PropertyFamily(
            [("low", np.diag([1.0, 0, 0]).astype(complex)),
             ("mid", np.diag([1.0, 1.0, 0]).astype(complex))],
            dim=3,
        )
        model = PureStateModel.from_ket(Ket.basis(3, 0))
        statements = [Elementary(label) for label in family.labels]
        for mode in ("standard", "sr"):
            audit = completeness_audit(model, family, statements, mode)
            assert audit.verdict == "complete"

    def test_sr_incomplete_iff_some_member_noncommuting(self, pol):
        gen = SeededRng(55).generator()
        for _ in range(20):
            dim = int(gen.integers(2, 5))
            model = PureStateModel.from_ket(haar_random_ket(dim, gen))
            family = generate_property_family(dim, 6, model, gen, pol)
            statements = [Elementary(label) for label in family.labels]
            audit = completeness_audit(model, family, statements, "sr", pol)
            from qlat import commutator_norm

            oblique_exists = any(
                commutator_norm(member, model.support) >= pol.op_tol * dim
                for member in family.projection_stack
            )
            assert (audit.verdict == "incomplete") == oblique_exists

    @pytest.mark.parametrize(
        "pol", [TolerancePolicy(), TolerancePolicy(op_tol=0.3, eig_gap=0.5)], ids=["default", "loose"]
    )
    def test_standard_meaningful_equals_per_statement_route(self, pol):
        # The per-statement route written out: the elementary equivalent's
        # yes/no observable against the support's, one pair at a time.
        gen = SeededRng(56).generator()
        seen = set()
        for dim in range(2, 9):
            model = PureStateModel.from_ket(haar_random_ket(dim, gen))
            family = generate_property_family(dim, 6, model, gen, pol)
            statements = [random_statement(list(family.labels), 2, gen) for _ in range(12)]
            audit = completeness_audit(model, family, statements, "standard", pol)
            support = Observable.from_projection(model.support, pol)
            expected = []
            for statement in statements:
                equivalent = is_testable(statement, family, pol)
                expected.append(
                    equivalent is not None
                    and criterion_holds(
                        "nondisturbance",
                        nondisturbance_residual(
                            Observable.from_projection(Projection(equivalent), pol), support
                        ),
                        dim,
                        pol,
                    )
                )
            assert [record.meaningful for record in audit.records] == expected
            seen.update(expected)
        assert seen == {True, False}

    def test_standard_mode_without_testable_statements(self, ground_model, qubit_family):
        statements = [parse_statement("(and P0 Pplus)"), TAUTOLOGY_EDGE]
        audit = completeness_audit(ground_model, qubit_family, statements, "standard")
        assert audit.meaningful == frozenset() and audit.verdict == "complete"

    def test_sr_mode_skips_nondisturbance_check(self, ground_model, qubit_family, monkeypatch):
        # Standard mode decides every testable statement with one stacked
        # leak kernel call; sr mode makes none.
        from qlat import domains

        calls = []
        original = domains.leak_norms

        def counting(p, q):
            calls.append((p.shape, q.shape))
            return original(p, q)

        monkeypatch.setattr(domains, "leak_norms", counting)
        completeness_audit(ground_model, qubit_family, reference_statements(), "sr")
        assert calls == []
        completeness_audit(ground_model, qubit_family, reference_statements(), "standard")
        # the yes/no stacks of the 6 testable equivalents against the support's
        assert calls == [((6, 2, 2, 2), (2, 2, 2))]

    def test_reference_documents(self, ground_model, qubit_family):
        # (text, testable, verificationist, kleene, flagged, meaningful in
        # standard mode) per reference statement; predictable is
        # verificationist != "undefined" in both modes
        rows = [
            ("0", True, "false", "false", False, True),
            ("P0", True, "true", "true", False, True),
            ("P1", True, "false", "false", False, True),
            ("Pplus", True, "undefined", "undefined", False, False),
            ("I", True, "true", "true", False, True),
            ("(and P0 P1)", True, "false", "false", False, True),
            ("(and P0 Pplus)", False, "undefined", "undefined", False, False),
            ("(implies Pplus (or Pplus P0))", False, "undefined", "true", True, False),
        ]
        predictable = sorted(text for text, _, value, *_ in rows if value != "undefined")
        flagged = ["(implies Pplus (or Pplus P0))"]
        for mode in ("standard", "sr"):
            document = completeness_audit(
                ground_model, qubit_family, reference_statements(), mode
            ).to_json_dict()
            statements = [
                {
                    "text": text,
                    "testable": testable,
                    "verificationist": value,
                    "kleene": kleene,
                    "meaningful": mode == "sr" or meaningful,
                    "predictable": value != "undefined",
                    "flagged": is_flagged,
                }
                for text, testable, value, kleene, is_flagged, meaningful in rows
            ]
            meaningful_texts = sorted(row["text"] for row in statements if row["meaningful"])
            assert document == {
                "mode": mode,
                "verdict": "complete" if mode == "standard" else "incomplete",
                "witness": None if mode == "standard" else "Pplus",
                "meaningful": meaningful_texts,
                "predictable": predictable,
                "flagged": flagged,
                "statements": statements,
            }

    def test_rejects_unknown_mode(self, ground_model, qubit_family):
        with pytest.raises(ValueError, match="mode"):
            completeness_audit(ground_model, qubit_family, [Elementary("I")], "classical")


class TestStatementLayerMutants:
    """Each monkeypatched mutant of a statement-layer rule makes a named
    check fail; the checks pass on the real code in the tests above."""

    def test_swapped_certainty_is_killed_by_the_per_member_route(self, monkeypatch, pol):
        def swapped(model, members, pol=pol):
            return (
                leq(model.complement.matrix, members, pol),
                leq(members, model.support.matrix, pol),
            )

        monkeypatch.setattr(domains, "certainty", swapped)
        monkeypatch.setattr(semantics, "certainty", swapped)
        with pytest.raises(AssertionError):
            check_per_member_route(pol)

    def test_undefined_as_false_is_killed_by_the_kleene_tables(
        self, monkeypatch, ground_model, qubit_family
    ):
        conjunction = semantics._kleene_and

        def undefined_as_false(left, right):
            return F if U in (left, right) else conjunction(left, right)

        monkeypatch.setattr(semantics, "_kleene_and", undefined_as_false)
        with pytest.raises(AssertionError):
            check_kleene_tables(ground_model, qubit_family)

    def test_invert_for_xor_is_killed_by_the_truth_table_oracle(self, monkeypatch):
        # ~table is the complement in unbounded two's complement; it agrees
        # with the XOR against the all-true table on every row, but it is
        # negative, so no table holding it equals the all-true table.
        mutant = SimpleNamespace(
            not_=operator.not_,
            and_=operator.and_,
            or_=operator.or_,
            xor=lambda full, table: ~table,
        )
        monkeypatch.setattr(semantics, "operator", mutant)
        with pytest.raises(AssertionError):
            check_truth_tables()
