import numpy as np
import pytest

from qlat import (
    Ket,
    Projection,
    PropertyFamily,
    PureStateModel,
    SeededRng,
    TolerancePolicy,
    born_probability,
    certainly_false_domain,
    certainly_true_domain,
    compatible_domain,
    domain_report,
    generate_property_family,
    haar_random_ket,
    leq,
    matrices_close,
    objective_domain,
    orthocomplement,
    pivot_residual,
    predictable_domain,
    support_projection,
    verify_objective_equals_predictable,
    verify_predictable_equals_compatible,
)


def random_instance(dim, gen, pol):
    model = PureStateModel.from_ket(haar_random_ket(dim, gen))
    family = generate_property_family(dim, 8, model, gen, pol)
    return model, family


class TestPureStateModel:
    def test_rejects_support_of_another_state(self):
        with pytest.raises(ValueError, match="does not match"):
            PureStateModel(Ket.basis(2, 0), support_projection(Ket.basis(2, 1)))

    def test_rejects_rank_two_support(self):
        with pytest.raises(ValueError, match="support"):
            PureStateModel(Ket.basis(3, 0), Projection(np.diag([1.0, 1.0, 0.0])))


class TestSupport:
    def test_basis_state(self):
        assert matrices_close(support_projection(Ket.basis(2, 0)), np.diag([1.0, 0.0]))

    def test_superposition_outer_product(self, plus_ket, pplus):
        assert matrices_close(support_projection(plus_ket), pplus)

    def test_global_phase_invariance(self):
        ket = Ket.normalized([1.0, 2.0j, -0.5])
        rotated = Ket(np.exp(1.37j) * ket.amplitudes)
        assert matrices_close(support_projection(ket), support_projection(rotated))

    def test_support_has_probability_one(self):
        gen = SeededRng(1).generator()
        for _ in range(50):
            ket = haar_random_ket(int(gen.integers(2, 7)), gen)
            assert born_probability(ket, support_projection(ket)) == pytest.approx(1.0)

    def test_model_validates_support(self, p1):
        with pytest.raises(ValueError, match="support"):
            PureStateModel(state=Ket.basis(2, 0), support=p1)


class TestWorkedFamilyDomains:
    def test_certainly_true(self, ground_model, qubit_family):
        assert certainly_true_domain(ground_model, qubit_family) == {"P0", "I"}

    def test_certainly_false(self, ground_model, qubit_family):
        assert certainly_false_domain(ground_model, qubit_family) == {"0", "P1"}

    def test_predictable_excludes_superposed_atom(self, ground_model, qubit_family):
        assert predictable_domain(ground_model, qubit_family) == {"0", "P0", "P1", "I"}

    def test_compatible(self, ground_model, qubit_family):
        assert compatible_domain(ground_model, qubit_family) == {"0", "P0", "P1", "I"}

    def test_objective(self, ground_model, qubit_family):
        assert objective_domain(ground_model, qubit_family) == {"0", "P0", "P1", "I"}

    def test_equalities_hold(self, ground_model, qubit_family):
        assert verify_predictable_equals_compatible(ground_model, qubit_family)
        assert verify_objective_equals_predictable(ground_model, qubit_family)

    def test_report(self, ground_model, qubit_family):
        report = domain_report(ground_model, qubit_family)
        assert report.predictable == frozenset({"0", "P0", "P1", "I"})
        assert report.predictable == report.compatible == report.objective
        assert report.certainly_true & report.certainly_false == frozenset()
        assert report.to_json_dict()["predictable_equals_compatible"] is True


class TestMembershipTrivia:
    def test_support_and_bounds_always_resolved(self, pol):
        gen = SeededRng(2).generator()
        for _ in range(30):
            dim = int(gen.integers(2, 7))
            model, family = random_instance(dim, gen, pol)
            true_side = certainly_true_domain(model, family, pol)
            false_side = certainly_false_domain(model, family, pol)
            compatible = compatible_domain(model, family, pol)
            objective = objective_domain(model, family, pol)
            assert "I" in true_side
            assert "0" in false_side
            # the support and its complement open every generated family
            assert "E1" in true_side and "E1" in compatible and "E1" in objective
            assert "E2" in false_side and "E2" in compatible

    def test_trivial_family_fully_predictable(self, pol):
        family = PropertyFamily([], dim=3)
        gen = SeededRng(3).generator()
        for _ in range(20):
            model = PureStateModel.from_ket(haar_random_ket(3, gen))
            assert predictable_domain(model, family, pol) == {"0", "I"}
            assert objective_domain(model, family, pol) == {"0", "I"}

    def test_commuting_family_fully_predictable(self, pol):
        gen = SeededRng(8).generator()
        for _ in range(20):
            dim = int(gen.integers(2, 6))
            model, base = random_instance(dim, gen, pol)
            # keep only the members that commute with the support
            commuting = [
                (label, member)
                for label, member in base.pairs()
                if label not in ("0", "I")
                and np.linalg.norm(
                    member.matrix @ model.support.matrix
                    - model.support.matrix @ member.matrix
                )
                < pol.op_tol * dim
            ]
            family = PropertyFamily(commuting, dim=dim, pol=pol)
            assert predictable_domain(model, family, pol) == set(family.labels)


class TestDomainInvariants:
    def test_disjoint_and_dual(self, pol):
        gen = SeededRng(4).generator()
        for _ in range(50):
            dim = int(gen.integers(2, 7))
            model, family = random_instance(dim, gen, pol)
            true_side = certainly_true_domain(model, family, pol)
            false_side = certainly_false_domain(model, family, pol)
            assert not (true_side & false_side)
            for label, member in family.pairs():
                complement = orthocomplement(member)
                in_false_dual = leq(complement, orthocomplement(model.support), pol)
                # E certainly true iff its complement is certainly false
                assert (label in true_side) == leq(model.support, member, pol)
                assert leq(model.support, member, pol) == in_false_dual

    def test_membership_monotone(self, ground_model, qubit_family, pol):
        true_side = certainly_true_domain(ground_model, qubit_family, pol)
        for label, member in qubit_family.pairs():
            if label not in true_side:
                continue
            for other_label, other in qubit_family.pairs():
                if leq(member, other, pol):
                    assert other_label in true_side

    def test_probability_consistency(self, pol):
        gen = SeededRng(5).generator()
        for _ in range(30):
            dim = int(gen.integers(2, 6))
            model, family = random_instance(dim, gen, pol)
            report = domain_report(model, family, pol)
            for label, member in family.pairs():
                probability = born_probability(model.state, member, pol)
                if label in report.certainly_true:
                    assert probability == pytest.approx(1.0, abs=pol.prob_tol)
                elif label in report.certainly_false:
                    assert probability == pytest.approx(0.0, abs=pol.prob_tol)
                else:
                    assert pol.prob_tol < probability < 1.0 - pol.prob_tol


class TestPivot:
    def test_domain_report_builds_one_complement(self, pol, monkeypatch):
        from qlat import domains

        gen = SeededRng(13).generator()
        model = PureStateModel.from_ket(haar_random_ket(5, gen))
        family = generate_property_family(5, 10, model, gen, pol)
        assert len(family.pairs()) == 12  # ten members, then 0 and I
        model = PureStateModel.from_ket(model.state)  # nothing cached yet
        calls = []

        def counted(projection):
            calls.append(projection)
            return orthocomplement(projection)

        monkeypatch.setattr(domains, "orthocomplement", counted)
        domain_report(model, family, pol)
        assert len(calls) == 1

    def test_oblique_atom_residual_is_one(self, ground_model, pplus):
        # both meets vanish, so the rebuilt member is 0 and the defect is |E|
        assert pivot_residual(pplus, ground_model) == pytest.approx(1.0)

    def test_compatible_members_split_exactly(self, ground_model, qubit_family, pol):
        compatible = compatible_domain(ground_model, qubit_family, pol)
        for label, member in qubit_family.pairs():
            residual = pivot_residual(member, ground_model, pol)
            if label in compatible:
                assert residual < pol.op_tol
            else:
                assert residual > 10 * pol.op_tol

    def test_split_inside_the_rounding_band_fails(self, ground_model, qubit_family, pol, monkeypatch):
        # A member outside the compatible domain whose pivot residual sits
        # between op_tol and 10 * op_tol splits neither clearly nor not at
        # all; both verifiers then reject the instance.
        from qlat import domains

        compatible = compatible_domain(ground_model, qubit_family, pol)
        assert compatible != {label for label, _ in qubit_family.pairs()}
        members = {id(member): label for label, member in qubit_family.pairs()}

        def banded(member, model, pol=pol):
            return 0.0 if members[id(member)] in compatible else 5.0 * pol.op_tol

        monkeypatch.setattr(domains, "pivot_residual", banded)
        assert not verify_predictable_equals_compatible(ground_model, qubit_family, pol)
        assert not domain_report(ground_model, qubit_family, pol).predictable_equals_compatible


class TestEqualityCampaigns:
    def test_predictable_equals_compatible_random(self, pol):
        gen = SeededRng(6).generator()
        for _ in range(60):
            dim = 2 + int(gen.integers(0, 3))
            model, family = random_instance(dim, gen, pol)
            assert verify_predictable_equals_compatible(model, family, pol)

    def test_objective_equals_predictable_random(self, pol):
        gen = SeededRng(7).generator()
        for _ in range(60):
            dim = 2 + int(gen.integers(0, 3))
            model, family = random_instance(dim, gen, pol)
            assert verify_objective_equals_predictable(model, family, pol)


class TestReportMatchesVerifiers:
    """domain_report reads its equality flags off domains it computes once;
    they must agree with the stand-alone verifiers, including instances
    where an equality fails."""

    @staticmethod
    def flags(model, family, pol):
        report = domain_report(model, family, pol)
        reported = (report.predictable_equals_compatible, report.objective_equals_predictable)
        verified = (
            verify_predictable_equals_compatible(model, family, pol),
            verify_objective_equals_predictable(model, family, pol),
        )
        assert reported == verified
        return reported

    # The loose policy makes the order and the commutator disagree on many
    # members, so both flags are also exercised when they are false.
    @pytest.mark.parametrize(
        "pol", [TolerancePolicy(), TolerancePolicy(op_tol=0.3, eig_gap=0.5)], ids=["default", "loose"]
    )
    def test_random_instances(self, pol):
        gen = SeededRng(11).generator()
        seen = set()
        for _ in range(20):
            dim = 2 + int(gen.integers(0, 3))
            model, family = random_instance(dim, gen, pol)
            seen.update(self.flags(model, family, pol))
        assert True in seen
        if pol.op_tol > 0.1:
            assert False in seen

    def test_qubit_family(self, pol, qubit_family, plus_ket):
        gen = SeededRng(12).generator()
        states = [Ket.basis(2, 0), Ket.basis(2, 1), plus_ket]
        states += [haar_random_ket(2, gen) for _ in range(5)]
        for state in states:
            assert self.flags(PureStateModel.from_ket(state), qubit_family, pol) == (True, True)
