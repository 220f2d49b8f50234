import json
from pathlib import Path

import numpy as np
import pytest

from qlat import (
    Projection,
    PropertyFamily,
    covering_holds,
    frobenius_distance,
    is_atom,
    join,
    leq,
    matrices_close,
    meet,
    orthocomplement,
)
from qlat import lattice
from qlat.domains import PureStateModel, _pivot_defects
from qlat.experiments import _property_families, verify_family
from qlat.lattice import de_morgan_gaps, family_laws, orthomodular_holds
from qlat.measurement import SeededRng, haar_random_ket
from qlat.numerics import DEFAULT_POLICY, _frobenius_norms, _ranks, validated_projections


def rank_of(matrix):
    return int(_ranks(matrix, DEFAULT_POLICY.eig_gap))


def axes_projection(dim, *axes):
    diagonal = np.zeros(dim)
    diagonal[list(axes)] = 1.0
    return validated_projections(np.diag(diagonal))


def random_projection(dim, rng, rank=None):
    if rank is None:
        rank = int(rng.integers(1, dim))
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(raw)
    basis = q[:, :rank]
    return validated_projections(basis @ basis.conj().T)


def random_atom(dim, rng):
    return random_projection(dim, rng, rank=1)


class TestLeq:
    def test_everything_below_identity(self, p0):
        assert leq(p0.matrix, np.eye(2))

    def test_orthogonal_atoms_incomparable(self, p0, p1):
        assert not leq(p0.matrix, p1.matrix)

    def test_oblique_atoms_incomparable(self, p0, pplus):
        # Q P != P checked by the 2x2 product by hand: |0><0| |+><+| has norm 1/2
        assert not leq(pplus.matrix, p0.matrix)
        assert not leq(p0.matrix, pplus.matrix)

    def test_dim_mismatch(self, p0):
        with pytest.raises(ValueError, match="mismatch"):
            leq(p0.matrix, np.eye(3))

    def test_order_laws_random(self, pol):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            dim = int(rng.integers(2, 7))
            a = random_projection(dim, rng)
            b = random_projection(dim, rng)
            assert leq(a, a, pol)
            if leq(a, b, pol) and leq(b, a, pol):
                assert matrices_close(a, b, pol)
            nested_mid = join(a, random_atom(dim, rng), pol)
            nested_top = join(nested_mid, random_atom(dim, rng), pol)
            assert leq(a, nested_mid, pol)
            assert leq(nested_mid, nested_top, pol)
            assert leq(a, nested_top, pol)


class TestMeetJoin:
    def test_meet_idempotent(self, pplus):
        assert matrices_close(meet(pplus.matrix, pplus.matrix), pplus)

    def test_meet_orthogonal_atoms_is_zero(self, p0, p1):
        assert rank_of(meet(p0.matrix, p1.matrix)) == 0

    def test_meet_plane_intersection(self):
        left = axes_projection(3, 0, 1)
        right = axes_projection(3, 1, 2)
        assert matrices_close(meet(left, right), axes_projection(3, 1))

    def test_join_with_zero_is_neutral(self, pplus):
        assert matrices_close(join(pplus.matrix, np.zeros((2, 2))), pplus)

    def test_join_orthogonal_atoms_spans_all(self, p0, p1):
        assert matrices_close(join(p0.matrix, p1.matrix), np.eye(2))

    def test_join_axes(self):
        joined = join(axes_projection(3, 0), axes_projection(3, 1))
        assert matrices_close(joined, axes_projection(3, 0, 1))

    def test_algebraic_laws_random(self, pol):
        rng = np.random.default_rng(78)
        for _ in range(300):
            dim = int(rng.integers(2, 7))
            a, b, c = (random_projection(dim, rng) for _ in range(3))
            assert matrices_close(meet(a, b, pol), meet(b, a, pol), pol)
            assert matrices_close(join(a, b, pol), join(b, a, pol), pol)
            assert matrices_close(
                meet(meet(a, b, pol), c, pol), meet(a, meet(b, c, pol), pol), pol
            )
            assert matrices_close(
                join(join(a, b, pol), c, pol), join(a, join(b, c, pol), pol), pol
            )
            assert matrices_close(meet(a, join(a, b, pol), pol), a, pol)
            assert matrices_close(join(a, meet(a, b, pol), pol), a, pol)

    def test_de_morgan_random(self, pol):
        rng = np.random.default_rng(79)
        for _ in range(300):
            dim = int(rng.integers(2, 7))
            a = random_projection(dim, rng)
            b = random_projection(dim, rng)
            dual = orthocomplement(join(orthocomplement(a), orthocomplement(b), pol))
            assert matrices_close(meet(a, b, pol), dual, pol)

    def test_meet_against_svd_nullspace_oracle(self, pol):
        # independent route: the intersection is the null space of the
        # vertically stacked complements, extracted from the right singular
        # vectors with vanishing singular value
        rng = np.random.default_rng(123)
        for _ in range(300):
            dim = int(rng.integers(2, 8))
            a = random_projection(dim, rng, rank=int(rng.integers(0, dim + 1)))
            b = random_projection(dim, rng, rank=int(rng.integers(0, dim + 1)))
            eye = np.eye(dim)
            stacked = np.vstack([eye - a, eye - b])
            _, singular, vh = np.linalg.svd(stacked)
            basis = vh.conj().T[:, singular < 1e-10]
            expected = (
                basis @ basis.conj().T
                if basis.shape[1]
                else np.zeros((dim, dim), dtype=complex)
            )
            assert frobenius_distance(meet(a, b, pol), expected) < pol.op_tol

    def test_join_against_svd_range_oracle(self, pol):
        # independent route: the span of the union is the column space of
        # the stacked matrix [p | q], read off the left singular vectors
        # with nonvanishing singular value
        rng = np.random.default_rng(124)
        for dim in range(2, 8):
            for rank_a in range(dim + 1):
                for rank_b in range(dim + 1):
                    a = random_projection(dim, rng, rank=rank_a)
                    b = random_projection(dim, rng, rank=rank_b)
                    u, singular, _ = np.linalg.svd(np.hstack([a, b]))
                    basis = u[:, singular > 1e-10]
                    expected = basis @ basis.conj().T
                    assert frobenius_distance(join(a, b, pol), expected) < pol.op_tol

    @pytest.mark.parametrize("operation", [meet, join])
    def test_one_eigh_and_one_projection(self, operation, p0, pplus, monkeypatch):
        counts = {"eigh": 0, "stacks": 0, "projections": 0}
        validate = Projection.__post_init__
        eigh = np.linalg.eigh

        def counted_validate(self):
            counts["projections"] += 1
            validate(self)

        def counted_eigh(matrix):
            counts["eigh"] += 1
            return eigh(matrix)

        def counted_stack(matrices):
            counts["stacks"] += 1
            return validated_projections(matrices)

        monkeypatch.setattr(Projection, "__post_init__", counted_validate)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(lattice, "validated_projections", counted_stack)
        operation(p0.matrix, pplus.matrix)
        assert counts == {"eigh": 1, "stacks": 1, "projections": 0}

    def test_distributivity_fails_on_witness(self, p0, p1, pplus, pol):
        p0, p1, pplus = p0.matrix, p1.matrix, pplus.matrix
        lhs = meet(pplus, join(p0, p1, pol), pol)
        rhs = join(meet(pplus, p0, pol), meet(pplus, p1, pol), pol)
        assert matrices_close(lhs, pplus, pol)
        assert rank_of(rhs) == 0
        assert frobenius_distance(lhs, rhs) > 100 * pol.op_tol


class TestOrthocomplement:
    def test_identity_complement_is_zero(self):
        assert rank_of(orthocomplement(np.eye(4))) == 0

    def test_qubit_atoms(self, p0, p1):
        assert matrices_close(orthocomplement(p0.matrix), p1)

    def test_superposed_atom(self, pplus):
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        assert matrices_close(orthocomplement(pplus.matrix), expected)

    def test_involution_and_bounds(self, pplus, pol):
        pplus = pplus.matrix
        assert matrices_close(orthocomplement(orthocomplement(pplus)), pplus)
        assert rank_of(meet(pplus, orthocomplement(pplus), pol)) == 0
        assert matrices_close(join(pplus, orthocomplement(pplus), pol), np.eye(2))


class TestIsAtom:
    def test_examples(self, p0, pplus):
        assert is_atom(p0.matrix)
        assert is_atom(pplus.matrix)  # trace is 1
        assert not is_atom(np.eye(3))
        assert not is_atom(np.zeros((2, 2)))

    def test_mask_over_a_stack(self, qubit_family):
        assert is_atom(qubit_family.projection_stack).tolist() == [False, True, True, True, False]

    @pytest.mark.parametrize("trace", [0.5, np.nan], ids=["half", "nan"])
    def test_rejects_a_trace_off_an_integer_rank(self, trace):
        matrix = np.diag([trace, 0.0])
        with pytest.raises(ValueError, match=f"^projection trace {trace!r} is not near an integer rank$"):
            is_atom(np.stack([np.eye(2), matrix]))


class TestOrthomodular:
    def test_atom_below_identity(self, p0):
        assert orthomodular_holds(p0.matrix, np.eye(2))

    def test_axis_in_plane(self):
        assert orthomodular_holds(axes_projection(3, 0), axes_projection(3, 0, 1))

    def test_vacuous_when_incomparable(self, pplus, p0):
        assert orthomodular_holds(pplus.matrix, p0.matrix)

    def test_holds_on_constructed_comparable_pairs(self, pol):
        rng = np.random.default_rng(80)
        for _ in range(500):
            dim = int(rng.integers(2, 7))
            p = random_projection(dim, rng)
            q = join(p, random_atom(dim, rng), pol)
            assert orthomodular_holds(p, q, pol)


class TestCovering:
    def test_atom_over_zero(self, p0):
        assert covering_holds(p0.matrix, np.zeros((2, 2)))

    def test_atom_over_itself(self, p0):
        assert covering_holds(p0.matrix, p0.matrix)

    def test_oblique_atom_over_atom(self, pplus, p0):
        # join is the whole plane: rank 2 = 1 + 1
        assert covering_holds(pplus.matrix, p0.matrix)

    def test_rejects_non_atom(self, p0):
        with pytest.raises(ValueError, match="rank-one"):
            covering_holds(np.eye(2), p0.matrix)

    def test_holds_random(self, pol):
        rng = np.random.default_rng(81)
        for _ in range(500):
            dim = int(rng.integers(2, 6))
            assert covering_holds(random_atom(dim, rng), random_projection(dim, rng), pol)


def member(family, label):
    """The labelled member of a family as a validated Projection."""
    return Projection(family.projection_stack[family.index(label)])


class TestPropertyFamily:
    def test_adjoins_bounds(self, p0):
        family = PropertyFamily([("P0", p0)])
        assert "0" in family
        assert "I" in family
        assert member(family, "0").rank == 0
        assert member(family, "I").rank == 2

    def test_keeps_existing_bounds(self, qubit_family):
        assert qubit_family.labels == ("0", "P0", "P1", "Pplus", "I")

    def test_deduplicates_members(self, p0):
        family = PropertyFamily([("a", p0), ("b", p0.matrix.copy())])
        assert "a" in family
        assert "b" not in family

    def test_duplicate_label_rejected(self, p0, p1):
        with pytest.raises(ValueError, match="duplicate label"):
            PropertyFamily([("a", p0), ("a", p1)])

    def test_dimension_mismatch_rejected(self, p0):
        with pytest.raises(ValueError, match="dimension"):
            PropertyFamily([("a", p0), ("b", Projection(np.eye(3)))])

    def test_unresolved_label(self, qubit_family):
        with pytest.raises(ValueError, match="^unresolved label 'missing'$"):
            qubit_family.index("missing")

    def test_json_round_trip(self, qubit_family):
        text = qubit_family.dumps()
        restored = PropertyFamily.loads(text)
        assert restored.labels == qubit_family.labels
        for label in qubit_family.labels:
            assert matrices_close(member(restored, label), member(qubit_family, label))
        # document shape: row-major [re, im] pairs
        document = json.loads(text)
        assert document["dim"] == 2
        entry = document["members"][1]["matrix"][0][0]
        assert entry == [1.0, 0.0]

    @pytest.mark.parametrize("dim", [2.9, "2", True, None], ids=["float", "str", "bool", "null"])
    def test_from_json_dict_rejects_a_non_integer_dim(self, qubit_family, dim):
        document = dict(qubit_family.to_json_dict(), dim=dim)
        with pytest.raises(ValueError, match=f"^dim must be an integer, got {dim!r}$"):
            PropertyFamily.from_json_dict(document)

    def test_complex_members_round_trip(self):
        ket = np.array([1.0, 1.0j]) / np.sqrt(2)
        family = PropertyFamily([("circ", np.outer(ket, ket.conj()))])
        restored = PropertyFamily.loads(family.dumps())
        assert matrices_close(member(restored, "circ"), member(family, "circ"))

    def test_deduplicates_greedily_against_kept_members(self):
        # Rank-one projections at angles 0, delta and 2 * delta lie
        # sqrt(2) * sin(angle difference) apart: 0.6e-9 between neighbours,
        # 1.2e-9 between the ends. The middle one is within op_tol of the
        # first and is dropped; the last is within op_tol only of the
        # dropped middle one, so it stays.
        delta = 0.6e-9 / np.sqrt(2.0)

        def ray(angle):
            vector = np.array([np.cos(angle), np.sin(angle), 0.0], dtype=complex)
            return np.outer(vector, vector.conj())

        family = PropertyFamily([("a", ray(0.0)), ("b", ray(delta)), ("c", ray(2 * delta))])
        assert family.labels == ("a", "c", "0", "I")

    def test_empty_family_holds_the_bounds(self):
        family = PropertyFamily([], dim=3)
        assert family.labels == ("0", "I")
        assert np.array_equal(family.projection_stack, [np.zeros((3, 3)), np.eye(3)])
        assert leq(np.zeros((0, 3, 3)), np.eye(3)).shape == (0,)

    def test_invalid_member_named_by_label(self, p0):
        oblique = np.array([[1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"^member 'bad' is not Hermitian: max asymmetry 5\.000e-01"):
            PropertyFamily([("ok", p0), ("bad", oblique)])
        with pytest.raises(ValueError, match=r"^member 'bad' is not idempotent"):
            PropertyFamily([("ok", p0), ("bad", 2.0 * p0.matrix)])

    def test_loading_builds_no_projection(self, monkeypatch):
        # The golden d = 8 family: twelve members, validated as one stack.
        text = (Path(__file__).parent / "data" / "golden" / "d8" / "family.json").read_text()
        built = []
        validate = Projection.__post_init__

        def counted(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(Projection, "__post_init__", counted)
        family = PropertyFamily.loads(text)
        assert len(family) == 14
        assert built == []

    def test_projection_stack_is_read_only(self, qubit_family):
        stack = qubit_family.projection_stack
        assert stack.shape == (5, 2, 2)
        for row, label in enumerate(qubit_family.labels):
            assert qubit_family.index(label) == row
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0


# The per-pair routes as they stood before the lattice was stacked, written
# out here as the oracle: one eigh of p + q per pair, a Projection for every
# intermediate result, and np.linalg.norm for every distance.


def oracle_family(labels, matrices, pol):
    """The one-family rule written out with the full distance table: the
    labels and stack of the members kept greedily, 0 and I appended."""
    dim = matrices.shape[-1]
    stack = np.concatenate([validated_projections(matrices), [np.zeros((dim, dim)), np.eye(dim)]])
    close = [[float(np.linalg.norm(a - b)) < pol.op_tol for b in stack] for a in stack]
    kept = []
    for row, near in enumerate(close):
        if not any(near[k] for k in kept):
            kept.append(row)
    names = [labels[row] for row in kept if row < len(labels)]
    for row in kept[len(names):]:
        fallbacks = ("0", "zero") if row == len(labels) else ("I", "identity")
        names.append(next(name for name in fallbacks if name not in names))
    return tuple(names), stack[kept]


def assert_same_families(stacked, separate):
    assert len(stacked) == len(separate)
    for one, other in zip(stacked, separate):
        assert one.dim == other.dim and one.labels == other.labels
        assert np.array_equal(one.projection_stack, other.projection_stack)
        assert [one.index(label) for label in one.labels] == list(range(len(one)))
        assert [other.index(label) for label in one.labels] == list(range(len(one)))
        assert not one.projection_stack.flags.writeable


class TestStackedFamilies:
    """``lattice._families`` builds K families in one pass; each must be the
    family that a separate ``PropertyFamily`` construction gives."""

    @staticmethod
    def separate(labels, stacks, pol):
        return [PropertyFamily(zip(names, stack), pol=pol) for names, stack in zip(labels, stacks)]

    def crafted(self):
        delta = 0.6e-9 / np.sqrt(2.0)

        def ray(angle):
            vector = np.array([np.cos(angle), np.sin(angle), 0.0], dtype=complex)
            return np.outer(vector, vector.conj())

        zero, eye = np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex)
        labels = [["a", "b", "c"], ["0", "x", "I"], ["I", "y", "zero"], ["p", "q", "r"]]
        stacks = np.stack([
            [ray(0.0), ray(delta), ray(2 * delta)],  # near duplicates, greedily
            [ray(0.3), ray(0.3 + delta), ray(1.0)],  # "0" and "I" are taken
            [zero, ray(0.5), ray(0.7)],  # a zero member named "I"
            [eye - ray(0.2), ray(0.2), eye],  # the identity is a member
        ])
        return labels, stacks

    def test_crafted_stacks_give_the_separate_families(self, pol):
        labels, stacks = self.crafted()
        stacked = lattice._families(labels, stacks, pol)
        assert_same_families(stacked, self.separate(labels, stacks, pol))
        assert [family.labels for family in stacked] == [
            ("a", "c", "0", "I"),
            ("0", "I", "zero", "identity"),
            ("I", "y", "zero", "identity"),
            ("p", "q", "r", "0"),
        ]
        for family, names, stack in zip(stacked, labels, stacks):
            expected_labels, expected_stack = oracle_family(names, stack, pol)
            assert family.labels == expected_labels
            assert np.array_equal(family.projection_stack, expected_stack)

    def test_no_available_label(self, pol):
        labels, stacks = self.crafted()
        labels[3] = ["0", "zero", "r"]
        with pytest.raises(ValueError, match="^no available label for the adjoined zero projection$"):
            lattice._families(labels, stacks, pol)
        with pytest.raises(ValueError, match="^no available label for the adjoined zero projection$"):
            self.separate(labels, stacks, pol)

    def test_bad_member_named_by_label_in_a_later_family(self, pol):
        labels, stacks = self.crafted()
        stacks[2, 1, 0, 1] += 0.5
        message = r"^member 'y' is not Hermitian: max asymmetry 5\.000e-01"
        with pytest.raises(ValueError, match=message):
            lattice._families(labels, stacks, pol)
        with pytest.raises(ValueError, match=message):
            self.separate(labels, stacks, pol)

    @pytest.mark.parametrize(
        "names, message",
        [(["a", "", "c"], "^labels must be nonempty strings, got ''$"), (["a", "b", "a"], "^duplicate label 'a'$")],
    )
    def test_label_checks(self, pol, names, message):
        labels, stacks = self.crafted()
        labels[3] = names
        with pytest.raises(ValueError, match=message):
            lattice._families(labels, stacks, pol)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_generated_blocks_give_the_separate_families(self, dim, pol, monkeypatch):
        from qlat import experiments

        calls = []
        build = experiments._families

        def recorded(labels, stacks, pol):
            families = build(labels, stacks, pol)
            calls.append((labels, stacks.copy(), families))
            return families

        monkeypatch.setattr(experiments, "_families", recorded)
        for seed in range(3):
            gens = [SeededRng(seed).substream(k) for k in range(6)]
            models = [PureStateModel(haar_random_ket(dim, gen)) for gen in gens]
            for n_members in (0, 3, 10):
                _property_families(n_members, models, gens, pol)
        assert len(calls) == 9
        for labels, stacks, families in calls:
            assert_same_families(families, self.separate(labels, stacks, pol))

    def test_a_block_validates_once_per_member_count(self, pol, monkeypatch):
        counts = {"stacks": 0, "projections": 0}
        validate = Projection.__post_init__

        def counted_validate(self):
            counts["projections"] += 1
            validate(self)

        def counted_stack(matrices, names=None):
            counts["stacks"] += 1
            return validated_projections(matrices, names)

        monkeypatch.setattr(Projection, "__post_init__", counted_validate)
        monkeypatch.setattr(lattice, "validated_projections", counted_stack)
        for dim in (2, 5, 8):
            gens = [SeededRng(dim).substream(k) for k in range(10)]
            models = [PureStateModel(haar_random_ket(dim, gen)) for gen in gens]
            families = _property_families(10, models, gens, pol)
            assert len({len(family) for family in families}) == 1
            assert counts == {"stacks": 1, "projections": 0}
            counts["stacks"] = 0
        labels, stacks = TestStackedFamilies().crafted()
        lattice._families(labels, stacks, pol)
        assert counts == {"stacks": 1, "projections": 0}


def oracle_sum_range(p, q, floor):
    eigenvalues, eigenvectors = np.linalg.eigh(p.matrix + q.matrix)
    return Projection.from_basis(eigenvectors[:, eigenvalues > floor])


def oracle_meet(p, q, pol):
    return oracle_sum_range(p, q, 2.0 - pol.eig_gap)


def oracle_join(p, q, pol):
    return oracle_sum_range(p, q, pol.eig_gap)


def oracle_complement(p):
    return Projection(np.eye(p.dim, dtype=complex) - p.matrix)


def oracle_leq(p, q, pol):
    return float(np.linalg.norm(q.matrix @ p.matrix - p.matrix)) < pol.op_tol


def oracle_gap(p, q, pol):
    dual = oracle_join(oracle_complement(p), oracle_complement(q), pol)
    return float(np.linalg.norm(oracle_meet(p, q, pol).matrix - oracle_complement(dual).matrix))


def oracle_orthomodular(p, q, pol):
    if not oracle_leq(p, q, pol):
        return True
    rebuilt = oracle_join(p, oracle_meet(q, oracle_complement(p), pol), pol)
    return float(np.linalg.norm(rebuilt.matrix - q.matrix)) < pol.op_tol


def random_families(pol):
    """(model, family) pairs around Haar-random states, d = 2..8: members
    aligned with a basis through the state (with nontrivial meets) mixed
    with oblique ones."""
    for dim in range(2, 9):
        gen = SeededRng(dim).generator()
        model = PureStateModel(haar_random_ket(dim, gen))
        yield model, _property_families(7, [model], [gen], pol)[0]


class TestStackedLattice:
    def test_tables_equal_per_pair_oracle_bit_for_bit(self, pol):
        for _, family in random_families(pol):
            members = [member(family, label) for label in family.labels]
            stack = family.projection_stack
            first, second = np.triu_indices(len(members))
            meets = meet(stack[first], stack[second], pol)
            joins = join(stack[first], stack[second], pol)
            gaps, orthomodular = family_laws(family, pol)
            order = leq(stack[:, None], stack[None], pol)
            for k, (i, j) in enumerate(zip(first, second)):
                a, b = members[i], members[j]
                expected_meet = oracle_meet(a, b, pol).matrix
                expected_join = oracle_join(a, b, pol).matrix
                assert np.array_equal(meets[k], expected_meet)
                assert np.array_equal(meet(b.matrix, a.matrix, pol), expected_meet)
                assert np.array_equal(joins[k], expected_join)
                assert np.array_equal(join(b.matrix, a.matrix, pol), expected_join)
                assert gaps[k] == oracle_gap(a, b, pol) == oracle_gap(b, a, pol)
                assert de_morgan_gaps(b.matrix, a.matrix, pol) == gaps[k]
            for i, a in enumerate(members):
                for j, b in enumerate(members):
                    assert order[i, j] == oracle_leq(a, b, pol) == leq(a.matrix, b.matrix, pol)
                    joined = oracle_join(a, b, pol)
                    assert orthomodular[i, j] == oracle_orthomodular(a, joined, pol)
                    assert orthomodular_holds(a.matrix, joined.matrix, pol) == orthomodular[i, j]

    def test_meets_agree_with_anderson_duffin(self, pol):
        # P ^ Q = 2 P (P + Q)^+ Q, from the parallel sum of Anderson and
        # Duffin (J. Math. Anal. Appl. 26, 1969): no eigenspace cut at all.
        nontrivial = 0
        for _, family in random_families(pol):
            stack = family.projection_stack
            p, q = stack[:, None], stack[None]
            parallel = 2.0 * p @ np.linalg.pinv(p + q, rcond=1e-8, hermitian=True) @ q
            meets = meet(p, q, pol)
            assert np.abs(meets - parallel).max() < 1e-11
            nontrivial += int(np.count_nonzero(_frobenius_norms(meets) > 0.5))
        assert nontrivial > 100

    def test_pivot_meets_in_one_call_equal_two_meets_bit_for_bit(self, pol):
        for model, family in random_families(pol):
            stack = family.projection_stack
            rebuilt = join(
                meet(stack, model.support.matrix, pol),
                meet(stack, model.complement.matrix, pol),
                pol,
            )
            expected = _frobenius_norms(rebuilt - stack)
            assert np.array_equal(_pivot_defects(model, stack, pol), expected)

    def test_wrong_meet_cut_fails_the_family_laws(self, pol, monkeypatch):
        _, family = next(random_families(pol))
        assert verify_family(family, 0, 0, pol)[1].passed

        def wrong_cut(p, q, pol=pol):
            return validated_projections(lattice._sum_ranges(p + q, 1.0))

        monkeypatch.setattr(lattice, "meet", wrong_cut)
        record = verify_family(family, 0, 0, pol)[1]
        assert record.detail["check"] == "lattice_laws"
        assert not record.passed
        assert record.residual > 0.1


def reference_decode(rows):
    """The entry-by-entry decoder that ``_decode_matrix`` replaced."""
    return np.array(
        [[lattice._decode_complex(entry) for entry in row] for row in rows], dtype=np.complex128
    )


class TestDecodeMatrix:
    """``_decode_matrix`` converts a well-formed document in one call; its
    values and its errors must be those of the entry-by-entry route."""

    def test_keeps_the_bits_of_complex(self):
        gen = np.random.default_rng(5)
        mantissas = gen.uniform(-1.0, 1.0, 120)
        parts = np.ldexp(mantissas, gen.integers(-1074, 1024, 120)).tolist()
        parts += [0.0, -0.0, float("inf"), float("-inf"), 10**200, -(10**199), 0, 7, 2**53 + 1]
        parts += [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
        parts += [0.0] * (-len(parts) % 12)
        pairs = [parts[i : i + 2] for i in range(0, len(parts), 2)]
        rows = [pairs[i : i + 6] for i in range(0, len(pairs), 6)]
        decoded = lattice._decode_matrix(rows)
        assert decoded.dtype == np.complex128 and decoded.shape == (len(rows), 6)
        assert decoded.tobytes() == reference_decode(rows).tobytes()
        # the bits of complex(re, im) directly, without numpy's conversion
        assert decoded.tolist() == [[complex(re, im) for re, im in row] for row in rows]
        signs = np.signbit(decoded.view(np.float64))
        assert signs.ravel().tolist() == [np.signbit(float(part)) for part in parts]

    @pytest.mark.parametrize(
        "rows",
        [[], [[]], [[], []], [[[1.0, 0.0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
        ids=["no-rows", "empty-row", "empty-rows", "one-entry", "ints"],
    )
    def test_small_and_empty_documents(self, rows):
        decoded = lattice._decode_matrix(rows)
        expected = reference_decode(rows)
        assert decoded.shape == expected.shape and decoded.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "bad",
        [[0.0, "0"], ["0", 0.0], [True, 0.0], [0.0, False], [1.0, 0.0, 7.0], [1.0],
         [[1.0, 0.0], 0.0], [0.0, [0.0]], (1.0, 0.0), None, "10", 1.0,
         [np.float64(1.0), 0.0]],
        ids=repr,
    )
    @pytest.mark.parametrize("where", ["first", "last", "later-row"])
    def test_malformed_entry_gives_the_entry_by_entry_error(self, bad, where):
        rows = [[[0.0, 0.0] for _ in range(3)] for _ in range(3)]
        row, column = {"first": (0, 0), "last": (2, 2), "later-row": (1, 1)}[where]
        rows[row][column] = bad
        self.assert_same_outcome(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
            [[[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], []],
            [[[1.0, 0.0], [0.0, 0.0]], "ab"],
            [[[1.0, 0.0], [0.0, 0.0]], ([0.0, 0.0], [1.0, 0.0])],
            "ab",
            [[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -(2**1024)]]],
        ],
        ids=["short-later-row", "long-later-row", "empty-later-row", "string-row", "tuple-row",
             "string", "huge-first", "huge-last"],
    )
    def test_malformed_rows_give_the_entry_by_entry_error(self, rows):
        self.assert_same_outcome(rows)

    @staticmethod
    def assert_same_outcome(rows):
        try:
            expected = reference_decode(rows)
        except (ValueError, TypeError) as exc:
            with pytest.raises(type(exc)) as raised:
                lattice._decode_matrix(rows)
            assert str(raised.value) == str(exc)
        else:
            decoded = lattice._decode_matrix(rows)
            assert decoded.shape == expected.shape and decoded.tobytes() == expected.tobytes()
