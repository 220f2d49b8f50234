import itertools

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
    Or,
    PropertyFamily,
    PureStateModel,
    SeededRng,
    TruthValue,
    atom_labels,
    born_probability,
    completeness_audit,
    fold,
    format_statement,
    generate_property_family,
    haar_random_ket,
    is_classical_contradiction,
    is_classical_tautology,
    is_testable,
    kleene_truth,
    matrices_close,
    order_isomorphism_check,
    parse_statement,
    projection_onto_span,
    reference_statements,
    tarskian_truth,
    verificationist_truth,
    zero_projection,
)

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
        assert is_classical_tautology(Or(Elementary("a"), Not(Elementary("a"))))
        assert is_classical_tautology(TAUTOLOGY_EDGE)
        assert is_classical_contradiction(And(Elementary("a"), Not(Elementary("a"))))
        assert not is_classical_tautology(Elementary("a"))
        assert not is_classical_contradiction(Elementary("a"))


class TestTestability:
    def test_elementary_returns_own_projection(self, qubit_family, pplus):
        assert matrices_close(is_testable(Elementary("Pplus"), qubit_family), pplus)

    def test_contradiction_over_complementary_members(self, qubit_family):
        statement = And(Elementary("P0"), Elementary("P1"))
        assert matrices_close(is_testable(statement, qubit_family), zero_projection(2))

    def test_noncommuting_pair_untestable(self, qubit_family):
        assert is_testable(And(Elementary("P0"), Elementary("Pplus")), qubit_family) is None
        assert is_testable(TAUTOLOGY_EDGE, qubit_family) is None

    def test_unresolved_label(self, qubit_family):
        with pytest.raises(ValueError, match="unresolved"):
            is_testable(Elementary("ghost"), qubit_family)

    def test_commuting_tree_evaluates_in_boolean_subalgebra(self, qubit_family):
        statement = Or(Elementary("P0"), Elementary("P1"))
        equivalent = is_testable(statement, qubit_family)
        assert equivalent is not None and equivalent.rank == 2
        implied = is_testable(Implies(Elementary("P0"), Elementary("P1")), qubit_family)
        # (not P0) v P1 = P1 v P1 = P1 complement is |1><1| joined with itself
        assert matrices_close(implied, qubit_family.get("P1"))


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
                probability = born_probability(model.state, equivalent, pol)
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

    def test_one_born_evaluation_per_member_and_state(self, qubit_family, monkeypatch):
        import qlat.semantics

        calls = []
        born = qlat.semantics.born_probability

        def counted(*args):
            calls.append(args)
            return born(*args)

        monkeypatch.setattr(qlat.semantics, "born_probability", counted)
        assert order_isomorphism_check(qubit_family, samples=10)
        members = [member for _, member in qubit_family.pairs()]
        states = sum(member.rank for member in members) + 10
        assert len(calls) <= len(members) * states


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
                for _, member in family.pairs()
            )
            assert (audit.verdict == "incomplete") == oblique_exists

    def test_sr_mode_skips_nondisturbance_check(self, ground_model, qubit_family, monkeypatch):
        import qlat.semantics as semantics_module

        calls = []
        original = semantics_module.nondisturbing

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(semantics_module, "nondisturbing", counting)
        completeness_audit(ground_model, qubit_family, reference_statements(), "sr")
        assert calls == []
        completeness_audit(ground_model, qubit_family, reference_statements(), "standard")
        assert len(calls) == 6  # one per testable statement

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
