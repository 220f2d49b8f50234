from dataclasses import fields

import re

import numpy as np
import pytest

from qlat import (
    ExperimentConfig,
    Observable,
    Projection,
    PropertyFamily,
    PureStateModel,
    SeededRng,
    TolerancePolicy,
    certainty,
    haar_random_ket,
    is_atom,
    join,
    leq,
    meet,
    objective_residuals,
    orthocomplement,
    reference_qubit_family,
    run_experiment,
    verify_family,
)
from qlat.domains import DomainStacks
from qlat.experiments import _property_families
from qlat.measurement import _sandwich_defects, criterion_holds
from qlat.numerics import _commutator_norms

from oracles import born_probability, matrices_close


# Every domain and verdict that DomainStacks gives per model.
DOMAIN_FIELDS = (
    "certain", "predictable", "compatible", "objective", "pivot_residuals",
    "predictable_equals_compatible", "objective_equals_predictable",
)


def random_instance(dim, gen, pol):
    model = PureStateModel(haar_random_ket(dim, gen))
    family = _property_families(8, [model], [gen], pol)[0]
    return model, family


class TestPureStateModel:
    def test_support_is_the_states_projection_bit_for_bit(self):
        gen = SeededRng(6).generator()
        for dim in (2, 5, 8):
            ket = haar_random_ket(dim, gen)
            column = ket[:, None]
            expected = Projection(column @ column.conj().T)
            assert np.array_equal(PureStateModel(ket).support, expected.matrix)

    def test_stacked_supports_are_the_projections_bit_for_bit(self):
        from qlat import domains

        gen = SeededRng(8).generator()
        for dim in range(2, 9):
            models = [PureStateModel(haar_random_ket(dim, gen)) for _ in range(5)]
            supports, complements = domains.support_stacks(models)
            for model, support, complement in zip(models, supports[:, 0], complements[:, 0]):
                column = model.state[:, None]
                expected = Projection(column @ column.conj().T)
                eye = np.eye(dim, dtype=np.complex128)
                assert np.array_equal(support, expected.matrix)
                assert np.array_equal(complement, Projection(eye - expected.matrix).matrix)
                alone = PureStateModel(model.state)
                assert np.array_equal(alone.support, support)
                assert np.array_equal(alone.complement, complement)
                assert not model.support.flags.writeable
                assert not model.complement.flags.writeable

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureStateModel(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match=r"^state vector is not normalized: squared norm is (nan|inf)$"):
            PureStateModel([bad, 1.0])

    @pytest.mark.parametrize("amplitudes", [np.zeros(0), np.array([[1.0, 0.0]])], ids=["empty", "2-d"])
    def test_rejects_an_empty_or_2d_state(self, amplitudes):
        shape = re.escape(str(amplitudes.shape))
        with pytest.raises(ValueError, match=rf"^state vector must be a nonempty 1-d array, got shape {shape}$"):
            PureStateModel(amplitudes)

    def test_state_is_a_read_only_complex_copy(self):
        amplitudes = np.array([0.0, 1.0, 0.0])
        model = PureStateModel(amplitudes)
        assert model.state.dtype == np.complex128
        assert np.array_equal(model.state, np.array([0, 1, 0], dtype=complex))
        with pytest.raises(ValueError):
            model.state[0] = 1.0
        amplitudes[1] = 0.0
        assert model.state[1] == 1.0

    def test_state_is_the_one_field(self):
        assert [field.name for field in fields(PureStateModel)] == ["state"]
        ket = np.eye(2)[0]
        with pytest.raises(TypeError):
            PureStateModel(ket, PureStateModel(ket).support)

    def test_support_built_once_however_often_read(self, pol, monkeypatch):
        from qlat import domains

        gen = SeededRng(7).generator()
        model = PureStateModel(haar_random_ket(4, gen))
        calls = []
        build = domains._supports

        def counted(kets):
            calls.append(kets)
            return build(kets)

        monkeypatch.setattr(domains, "_supports", counted)
        family = _property_families(8, [model], [gen], pol)[0]
        certainty(model, family.projection_stack, pol)
        for models in ([model, model], [model]):
            stacks = DomainStacks(models, family, pol)
            stacks.predictable_equals_compatible, stacks.objective_equals_predictable
        assert len(calls) == 1 and np.array_equal(calls[0], model.state[None])


class TestSupport:
    def test_basis_state(self):
        assert matrices_close(PureStateModel(np.eye(2)[0]).support, np.diag([1.0, 0.0]))

    def test_superposition_outer_product(self, plus_ket, pplus):
        assert matrices_close(PureStateModel(plus_ket).support, pplus)

    def test_global_phase_invariance(self):
        ket = np.array([1.0, 2.0j, -0.5]) / np.linalg.norm([1.0, 2.0j, -0.5])
        rotated = np.exp(1.37j) * ket
        assert matrices_close(PureStateModel(ket).support, PureStateModel(rotated).support)

    def test_support_has_probability_one(self):
        gen = SeededRng(1).generator()
        for _ in range(50):
            ket = haar_random_ket(int(gen.integers(2, 7)), gen)
            assert born_probability(ket, PureStateModel(ket).support) == pytest.approx(1.0)


class TestWorkedFamilyDomains:
    def test_certainly_true(self, ground_model, qubit_family):
        assert DomainStacks([ground_model], qubit_family).certain[0][0] == {"P0", "I"}

    def test_certainly_false(self, ground_model, qubit_family):
        assert DomainStacks([ground_model], qubit_family).certain[0][1] == {"0", "P1"}

    def test_predictable_excludes_superposed_atom(self, ground_model, qubit_family):
        assert DomainStacks([ground_model], qubit_family).predictable[0] == {"0", "P0", "P1", "I"}

    def test_compatible(self, ground_model, qubit_family):
        assert DomainStacks([ground_model], qubit_family).compatible[0] == {"0", "P0", "P1", "I"}

    def test_objective(self, ground_model, qubit_family):
        assert DomainStacks([ground_model], qubit_family).objective[0] == {"0", "P0", "P1", "I"}

    def test_equalities_hold(self, ground_model, qubit_family):
        domains = DomainStacks([ground_model], qubit_family)
        assert domains.predictable_equals_compatible == [True]
        assert domains.objective_equals_predictable == [True]

    def test_domains_coincide(self, ground_model, qubit_family):
        domains = DomainStacks([ground_model], qubit_family)
        [(certainly_true, certainly_false)] = domains.certain
        assert domains.predictable[0] == {"0", "P0", "P1", "I"}
        assert domains.predictable[0] == domains.compatible[0] == domains.objective[0]
        assert certainly_true & certainly_false == set()


class TestMembershipTrivia:
    def test_support_and_bounds_always_resolved(self, pol):
        gen = SeededRng(2).generator()
        for _ in range(30):
            dim = int(gen.integers(2, 7))
            model, family = random_instance(dim, gen, pol)
            domains = DomainStacks([model], family, pol)
            [(true_side, false_side)] = domains.certain
            compatible, objective = domains.compatible[0], domains.objective[0]
            assert "I" in true_side
            assert "0" in false_side
            # the support and its complement open every generated family
            assert "E1" in true_side and "E1" in compatible and "E1" in objective
            assert "E2" in false_side and "E2" in compatible

    def test_trivial_family_fully_predictable(self, pol):
        family = PropertyFamily([], dim=3)
        gen = SeededRng(3).generator()
        for _ in range(20):
            model = PureStateModel(haar_random_ket(3, gen))
            assert DomainStacks([model], family, pol).predictable[0] == {"0", "I"}
            assert DomainStacks([model], family, pol).objective[0] == {"0", "I"}

    def test_commuting_family_fully_predictable(self, pol):
        gen = SeededRng(8).generator()
        for _ in range(20):
            dim = int(gen.integers(2, 6))
            model, base = random_instance(dim, gen, pol)
            # keep only the members that commute with the support
            commuting = [
                (label, member)
                for label, member in zip(base.labels, base.projection_stack)
                if label not in ("0", "I")
                and np.linalg.norm(member @ model.support - model.support @ member)
                < pol.op_tol * dim
            ]
            family = PropertyFamily(commuting, dim=dim, pol=pol)
            assert DomainStacks([model], family, pol).predictable[0] == set(family.labels)


class TestEmptyStacks:
    def test_empty_stack_gives_empty_masks_and_residuals(self):
        model = PureStateModel(np.eye(3)[0])
        empty = np.zeros((0, 3, 3), dtype=complex)
        above, below = certainty(model, empty)
        assert above.shape == below.shape == (0,)
        assert objective_residuals(model, empty).shape == (0,)


class TestDomainInvariants:
    def test_disjoint_and_dual(self, pol):
        gen = SeededRng(4).generator()
        for _ in range(50):
            dim = int(gen.integers(2, 7))
            model, family = random_instance(dim, gen, pol)
            above, below = certainty(model, family.projection_stack, pol)
            assert not (above & below).any()
            for certainly_true, label in zip(above.tolist(), family.labels):
                member = family.projection_stack[family.index(label)]
                complement = orthocomplement(member)
                in_false_dual = leq(complement, orthocomplement(model.support), pol)
                # E certainly true iff its complement is certainly false
                assert certainly_true == leq(model.support, member, pol)
                assert leq(model.support, member, pol) == in_false_dual

    def test_membership_monotone(self, ground_model, qubit_family, pol):
        true_side = DomainStacks([ground_model], qubit_family, pol).certain[0][0]
        for label in qubit_family.labels:
            if label not in true_side:
                continue
            for other_label in qubit_family.labels:
                stack = qubit_family.projection_stack
                if leq(stack[qubit_family.index(label)], stack[qubit_family.index(other_label)], pol):
                    assert other_label in true_side

    def test_probability_consistency(self, pol):
        gen = SeededRng(5).generator()
        for _ in range(30):
            dim = int(gen.integers(2, 6))
            model, family = random_instance(dim, gen, pol)
            [(certainly_true, certainly_false)] = DomainStacks([model], family, pol).certain
            for label in family.labels:
                member = family.projection_stack[family.index(label)]
                probability = born_probability(model.state, member, pol)
                if label in certainly_true:
                    assert probability == pytest.approx(1.0, abs=pol.prob_tol)
                elif label in certainly_false:
                    assert probability == pytest.approx(0.0, abs=pol.prob_tol)
                else:
                    assert pol.prob_tol < probability < 1.0 - pol.prob_tol


class TestPivot:
    def test_domain_stacks_build_one_complement(self, pol, monkeypatch):
        from qlat import domains

        gen = SeededRng(13).generator()
        model = PureStateModel(haar_random_ket(5, gen))
        family = _property_families(10, [model], [gen], pol)[0]
        assert len(family) == 12  # ten members, then 0 and I
        model = PureStateModel(model.state)  # nothing cached yet
        calls = []
        build = domains._supports

        def counted(kets):
            calls.append(kets)
            return build(kets)

        monkeypatch.setattr(domains, "_supports", counted)
        stacks = domains.DomainStacks([model], family, pol)
        stacks.predictable_equals_compatible, stacks.objective_equals_predictable
        assert len(calls) == 1

    def test_domains_read_one_certainty_call(self, pol, monkeypatch):
        from qlat import domains

        gen = SeededRng(14).generator()
        model, family = random_instance(4, gen, pol)
        calls = []

        def counted(*args):
            calls.append(args)
            return certainty(*args)

        monkeypatch.setattr(domains, "certainty", counted)
        stacks = DomainStacks([model], family, pol)
        stacks.predictable_equals_compatible, stacks.objective_equals_predictable
        assert len(calls) == 1
        assert DomainStacks([model], family, pol).predictable[0] == stacks.predictable[0]
        assert len(calls) == 2
        above, below = certainty(model, family.projection_stack, pol)
        labels = np.array(family.labels)
        assert stacks.certain[0] == (set(labels[above].tolist()), set(labels[below].tolist()))

    def test_oblique_atom_residual_is_one(self, ground_model, qubit_family):
        # both meets vanish, so the rebuilt member is 0 and the defect is |E|
        residuals = DomainStacks([ground_model], qubit_family).pivot_residuals[0]
        assert residuals["Pplus"] == pytest.approx(1.0)

    def test_compatible_members_split_exactly(self, ground_model, qubit_family, pol):
        compatible = DomainStacks([ground_model], qubit_family, pol).compatible[0]
        residuals = DomainStacks([ground_model], qubit_family, pol).pivot_residuals[0]
        for label, residual in residuals.items():
            if label in compatible:
                assert residual < pol.op_tol
            else:
                assert residual > 10 * pol.op_tol

    @pytest.mark.parametrize(
        "pol", [TolerancePolicy(), TolerancePolicy(op_tol=0.3, eig_gap=0.5)], ids=["default", "loose"]
    )
    def test_stacked_domains_equal_per_member_loops(self, pol):
        # The per-member routes written out: two meets and a join per
        # member, one leq per member and side.
        gen = SeededRng(13).generator()
        for dim in range(2, 9):
            model, family = random_instance(dim, gen, pol)
            members = list(family.projection_stack)
            support, complement = model.support, model.complement
            expected = {
                label: float(np.linalg.norm(
                    join(meet(member, support, pol), meet(member, complement, pol), pol) - member
                ))
                for label, member in zip(family.labels, members)
            }
            assert DomainStacks([model], family, pol).pivot_residuals[0] == expected
            above, below = certainty(model, family.projection_stack, pol)
            assert above.tolist() == [leq(support, member, pol) for member in members]
            assert below.tolist() == [leq(member, complement, pol) for member in members]

    def test_split_inside_the_rounding_band_fails(self, ground_model, qubit_family, pol, monkeypatch):
        # A member outside the compatible domain whose pivot residual sits
        # between op_tol and 10 * op_tol splits neither clearly nor not at
        # all; the report and the campaign then reject the instance.
        # The patch goes on the stacked defect that pivot_residuals, and so
        # both the report and the campaign, read.
        from qlat import domains

        exact = domains._pivot_defects

        def banded(model, members, pol):
            return np.minimum(exact(model, members, pol), 5.0 * pol.op_tol)

        monkeypatch.setattr(domains, "_pivot_defects", banded)
        assert DomainStacks([ground_model], qubit_family, pol).predictable_equals_compatible == [False]
        report = run_experiment(
            ExperimentConfig(experiment="predictable_vs_compatible", dim=4, instances=5, seed=3)
        )
        assert report.fail_count == 5
        assert not any(record.detail["split_identity_ok"] for record in report.instances)
        assert all(
            record.detail["min_noncompatible_residual"] == 5.0 * pol.op_tol
            for record in report.instances
        )


class TestStackedReports:
    """verify_family reads one DomainStacks pass over its probe states; it
    must equal one single-model DomainStacks per model, domain by domain."""

    @pytest.mark.parametrize("count", [0, 1, 5])
    @pytest.mark.parametrize(
        "pol", [TolerancePolicy(), TolerancePolicy(op_tol=0.3, eig_gap=0.5)], ids=["default", "loose"]
    )
    def test_equal_one_report_per_model(self, pol, count):
        gen = SeededRng(31).generator()
        seen = set()
        for dim in range(2, 9):
            model, family = random_instance(dim, gen, pol)
            # the family's own state, then its rank-one members' states, then
            # Haar-random ones
            atoms = [row for row in family.projection_stack if round(np.trace(row).real) == 1]
            kets = [model.state] + [np.linalg.eigh(row)[1][:, -1] for row in atoms]
            kets += [haar_random_ket(dim, gen) for _ in range(count)]
            models = [PureStateModel(ket) for ket in kets[:count]]
            stacked = DomainStacks(models, family, pol)
            for k, model in enumerate(models):
                single = DomainStacks([model], family, pol)
                for name in DOMAIN_FIELDS:
                    assert getattr(stacked, name)[k] == getattr(single, name)[0], name
            flags = zip(stacked.predictable_equals_compatible, stacked.objective_equals_predictable)
            assert len(stacked.certain) == count
            seen.update(flags)
        if count and pol.op_tol > 0.1:
            assert len(seen) > 1


class TestDomainWork:
    """The domain rules' work, pinned by call counts: the ``meet``, ``join``
    and ``leak_norms`` calls of ``qlat.domains`` and every
    ``numpy.linalg.eigh`` call. Each caller computes only what it reads."""

    @staticmethod
    def counting(monkeypatch):
        from qlat import domains

        counts = {}

        def count(owner, name):
            exact = getattr(owner, name)
            counts[name] = 0

            def counted(*args, **kwargs):
                counts[name] += 1
                return exact(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name in ("meet", "join", "leak_norms"):
            count(domains, name)
        count(np.linalg, "eigh")
        return counts

    @pytest.mark.parametrize(
        "experiment,expected",
        [
            ("predictable_vs_compatible", {"meet": 1, "join": 1, "leak_norms": 0, "eigh": 2}),
            ("objective_vs_predictable", {"meet": 0, "join": 0, "leak_norms": 1, "eigh": 0}),
        ],
    )
    def test_domain_campaigns(self, experiment, expected, monkeypatch):
        cfg = ExperimentConfig(experiment=experiment, dim=6, instances=10, seed=1)
        counts = self.counting(monkeypatch)
        run_experiment(cfg)
        assert counts == expected

    def test_verify_family(self, monkeypatch):
        family = reference_qubit_family()
        counts = self.counting(monkeypatch)
        verify_family(family, 0, 20)
        # all three atoms' probe kets come from one eigh call
        assert counts == {"meet": 1, "join": 1, "leak_norms": 1, "eigh": 8}


class TestStackedYesNoRoute:
    """The objective and compatible domains read the family's stack once;
    the per-member routes through Observable.from_operator, the sandwich
    leak and the commutator norm, written out here, are their oracle."""

    @pytest.mark.parametrize(
        "pol", [TolerancePolicy(), TolerancePolicy(op_tol=0.3, eig_gap=0.5)], ids=["default", "loose"]
    )
    def test_objective_domain_equals_per_member_observables(self, pol):
        gen = SeededRng(21).generator()
        for dim in range(2, 9):
            for _ in range(3):
                model, family = random_instance(dim, gen, pol)
                assert {"0", "I"} <= set(family.labels) and is_atom(model.support)
                support = Observable.from_operator(model.support, pol)
                observables = [Observable.from_operator(row, pol) for row in family.projection_stack]
                expected = [_sandwich_defects(observable, support)[0] for observable in observables]
                residuals = objective_residuals(model, family.projection_stack)
                np.testing.assert_allclose(residuals, expected, rtol=0, atol=1e-13)
                assert DomainStacks([model], family, pol).objective[0] == {
                    label
                    for label, residual in zip(family.labels, expected)
                    if criterion_holds("nondisturbance", residual, dim, pol)
                }

    @pytest.mark.parametrize(
        "pol", [TolerancePolicy(), TolerancePolicy(op_tol=0.3, eig_gap=0.5)], ids=["default", "loose"]
    )
    def test_compatible_domain_equals_commutator_norm_loop_bit_for_bit(self, pol, monkeypatch):
        from qlat import domains

        seen = []
        exact = domains.criterion_holds

        def recording(criterion, residual, dim, pol):
            seen.append((criterion, residual))
            return exact(criterion, residual, dim, pol)

        monkeypatch.setattr(domains, "criterion_holds", recording)
        gen = SeededRng(22).generator()
        for dim in range(2, 9):
            model, family = random_instance(dim, gen, pol)
            seen.clear()
            compatible = DomainStacks([model], family, pol).compatible[0]
            support = model.support
            norms = [float(_commutator_norms(member, support)) for member in family.projection_stack]
            # one criterion call over the whole stack, its norms bit for bit
            # those of the per-member loop
            [(criterion, stacked)] = seen
            assert criterion == "commutation" and stacked.tolist() == [norms]
            assert compatible == {
                label for label, norm in zip(family.labels, norms) if norm < pol.op_tol * dim
            }

    def test_noncommuting_residual_is_the_commutator_over_root_two(self, ground_model, pplus):
        # For two yes/no observables every leak equals |[E, S]|_F / sqrt(2).
        residual = objective_residuals(ground_model, pplus.matrix[None])
        expected = float(_commutator_norms(pplus.matrix, ground_model.support)) / np.sqrt(2.0)
        assert residual.tolist() == pytest.approx([expected], abs=1e-15)

    def test_sandwich_mutant_fails_the_objective_campaign(self, monkeypatch):
        # Q in place of P inside the sandwich, |(I - P_n) Q_k Q_k|_F: a
        # compatible member's own complement then leaks, so the objective
        # domain loses members that the order predicts. (Dropping one role
        # of the kernel would survive: both roles give the same leaks on
        # yes/no pairs.)
        from qlat import domains
        from qlat.numerics import _frobenius_norms

        def q_for_p(p, q):
            eye = np.eye(p.shape[-1], dtype=np.complex128)
            p, q = p[..., :, None, :, :], q[..., None, :, :, :]
            forward = _frobenius_norms((eye - p) @ q @ q)
            backward = _frobenius_norms((eye - q) @ p @ p)
            return forward, backward.swapaxes(-1, -2)

        cfg = ExperimentConfig(experiment="objective_vs_predictable", dim=4, instances=5, seed=3)
        assert run_experiment(cfg).fail_count == 0
        monkeypatch.setattr(domains, "leak_norms", q_for_p)
        assert run_experiment(cfg).fail_count == 5


class TestEqualityCampaigns:
    def test_predictable_equals_compatible_random(self, pol):
        gen = SeededRng(6).generator()
        for _ in range(60):
            dim = 2 + int(gen.integers(0, 3))
            model, family = random_instance(dim, gen, pol)
            assert DomainStacks([model], family, pol).predictable_equals_compatible == [True]

    def test_objective_equals_predictable_random(self, pol):
        gen = SeededRng(7).generator()
        for _ in range(60):
            dim = 2 + int(gen.integers(0, 3))
            model, family = random_instance(dim, gen, pol)
            assert DomainStacks([model], family, pol).objective_equals_predictable == [True]


class TestReportMatchesVerifiers:
    """DomainStacks reads its equality flags off domains it computes once;
    they must agree with the verifier written out here from the domain sets,
    each member's entry of the pivot residuals and the split rule's two
    inequalities, including instances where an equality fails."""

    @staticmethod
    def verified(model, family, pol):
        domains = DomainStacks([model], family, pol)
        predictable, compatible = domains.predictable[0], domains.compatible[0]
        splits = True
        for label, residual in domains.pivot_residuals[0].items():
            if label in compatible:
                splits = splits and residual < pol.op_tol
            else:
                splits = splits and residual > 10 * pol.op_tol
        objective = domains.objective[0]
        return predictable == compatible and splits, objective == predictable

    @classmethod
    def flags(cls, model, family, pol):
        domains = DomainStacks([model], family, pol)
        [reported] = zip(domains.predictable_equals_compatible, domains.objective_equals_predictable)
        assert reported == cls.verified(model, family, pol)
        return reported

    # The loose policy makes the order and the commutator disagree on many
    # members, so both flags are also exercised when they are false.
    @pytest.mark.parametrize(
        "pol", [TolerancePolicy(), TolerancePolicy(op_tol=0.3, eig_gap=0.5)], ids=["default", "loose"]
    )
    def test_random_instances(self, pol):
        gen = SeededRng(11).generator()
        seen = []
        for _ in range(20):
            dim = 2 + int(gen.integers(0, 3))
            model, family = random_instance(dim, gen, pol)
            seen.append(self.flags(model, family, pol))
        assert any(map(any, seen))
        if pol.op_tol > 0.1:
            assert not all(first for first, _ in seen)
            assert not all(second for _, second in seen)

    def test_qubit_family(self, pol, qubit_family, plus_ket):
        gen = SeededRng(12).generator()
        states = [np.eye(2)[0], np.eye(2)[1], plus_ket]
        states += [haar_random_ket(2, gen) for _ in range(5)]
        for state in states:
            assert self.flags(PureStateModel(state), qubit_family, pol) == (True, True)
