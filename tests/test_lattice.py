import json

import numpy as np
import pytest

from qlat import (
    Projection,
    PropertyFamily,
    check_covering,
    check_orthomodular,
    frobenius_distance,
    identity_projection,
    is_atom,
    join,
    leq,
    matrices_close,
    meet,
    orthocomplement,
    zero_projection,
)


def axes_projection(dim, *axes):
    diagonal = np.zeros(dim)
    diagonal[list(axes)] = 1.0
    return Projection(np.diag(diagonal).astype(complex))


def random_projection(dim, rng, rank=None):
    if rank is None:
        rank = int(rng.integers(1, dim))
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(raw)
    basis = q[:, :rank]
    return Projection(basis @ basis.conj().T)


def random_atom(dim, rng):
    return random_projection(dim, rng, rank=1)


class TestLeq:
    def test_everything_below_identity(self, p0):
        assert leq(p0, identity_projection(2))

    def test_orthogonal_atoms_incomparable(self, p0, p1):
        assert not leq(p0, p1)

    def test_oblique_atoms_incomparable(self, p0, pplus):
        # Q P != P checked by the 2x2 product by hand: |0><0| |+><+| has norm 1/2
        assert not leq(pplus, p0)
        assert not leq(p0, pplus)

    def test_dim_mismatch(self, p0):
        with pytest.raises(ValueError, match="mismatch"):
            leq(p0, identity_projection(3))

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
        assert matrices_close(meet(pplus, pplus), pplus)

    def test_meet_orthogonal_atoms_is_zero(self, p0, p1):
        assert meet(p0, p1).rank == 0

    def test_meet_plane_intersection(self):
        left = axes_projection(3, 0, 1)
        right = axes_projection(3, 1, 2)
        assert matrices_close(meet(left, right), axes_projection(3, 1))

    def test_join_with_zero_is_neutral(self, pplus):
        assert matrices_close(join(pplus, zero_projection(2)), pplus)

    def test_join_orthogonal_atoms_spans_all(self, p0, p1):
        assert matrices_close(join(p0, p1), identity_projection(2))

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
            stacked = np.vstack([eye - a.matrix, eye - b.matrix])
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
                    u, singular, _ = np.linalg.svd(np.hstack([a.matrix, b.matrix]))
                    basis = u[:, singular > 1e-10]
                    expected = basis @ basis.conj().T
                    assert frobenius_distance(join(a, b, pol), expected) < pol.op_tol

    @pytest.mark.parametrize("operation", [meet, join])
    def test_one_eigh_and_one_projection(self, operation, p0, pplus, monkeypatch):
        counts = {"eigh": 0, "projections": 0}
        validate = Projection.__post_init__
        eigh = np.linalg.eigh

        def counted_validate(self):
            counts["projections"] += 1
            validate(self)

        def counted_eigh(matrix):
            counts["eigh"] += 1
            return eigh(matrix)

        monkeypatch.setattr(Projection, "__post_init__", counted_validate)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        operation(p0, pplus)
        assert counts == {"eigh": 1, "projections": 1}

    def test_distributivity_fails_on_witness(self, p0, p1, pplus, pol):
        lhs = meet(pplus, join(p0, p1, pol), pol)
        rhs = join(meet(pplus, p0, pol), meet(pplus, p1, pol), pol)
        assert matrices_close(lhs, pplus, pol)
        assert rhs.rank == 0
        assert frobenius_distance(lhs, rhs) > 100 * pol.op_tol


class TestOrthocomplement:
    def test_identity_complement_is_zero(self):
        assert orthocomplement(identity_projection(4)).rank == 0

    def test_qubit_atoms(self, p0, p1):
        assert matrices_close(orthocomplement(p0), p1)

    def test_superposed_atom(self, pplus):
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        assert matrices_close(orthocomplement(pplus), expected)

    def test_involution_and_bounds(self, pplus, pol):
        assert matrices_close(orthocomplement(orthocomplement(pplus)), pplus)
        assert meet(pplus, orthocomplement(pplus), pol).rank == 0
        assert matrices_close(join(pplus, orthocomplement(pplus), pol), identity_projection(2))


class TestIsAtom:
    def test_examples(self, p0, pplus):
        assert is_atom(p0)
        assert is_atom(pplus)  # trace is 1
        assert not is_atom(identity_projection(3))
        assert not is_atom(zero_projection(2))


class TestOrthomodular:
    def test_atom_below_identity(self, p0):
        assert check_orthomodular(p0, identity_projection(2))

    def test_axis_in_plane(self):
        assert check_orthomodular(axes_projection(3, 0), axes_projection(3, 0, 1))

    def test_vacuous_when_incomparable(self, pplus, p0):
        assert check_orthomodular(pplus, p0)

    def test_holds_on_constructed_comparable_pairs(self, pol):
        rng = np.random.default_rng(80)
        for _ in range(500):
            dim = int(rng.integers(2, 7))
            p = random_projection(dim, rng)
            q = join(p, random_atom(dim, rng), pol)
            assert check_orthomodular(p, q, pol)


class TestCovering:
    def test_atom_over_zero(self, p0):
        assert check_covering(p0, zero_projection(2))

    def test_atom_over_itself(self, p0):
        assert check_covering(p0, p0)

    def test_oblique_atom_over_atom(self, pplus, p0):
        # join is the whole plane: rank 2 = 1 + 1
        assert check_covering(pplus, p0)

    def test_rejects_non_atom(self, p0):
        with pytest.raises(ValueError, match="rank-one"):
            check_covering(identity_projection(2), p0)

    def test_holds_random(self, pol):
        rng = np.random.default_rng(81)
        for _ in range(500):
            dim = int(rng.integers(2, 6))
            assert check_covering(random_atom(dim, rng), random_projection(dim, rng), pol)


class TestPropertyFamily:
    def test_adjoins_bounds(self, p0):
        family = PropertyFamily([("P0", p0)])
        assert "0" in family
        assert "I" in family
        assert family.get("0").rank == 0
        assert family.get("I").rank == 2

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
            PropertyFamily([("a", p0), ("b", identity_projection(3))])

    def test_unresolved_label(self, qubit_family):
        with pytest.raises(ValueError, match="unresolved"):
            qubit_family.get("missing")

    def test_json_round_trip(self, qubit_family):
        text = qubit_family.dumps()
        restored = PropertyFamily.loads(text)
        assert restored.labels == qubit_family.labels
        for label in qubit_family.labels:
            assert matrices_close(restored.get(label), qubit_family.get(label))
        # document shape: row-major [re, im] pairs
        document = json.loads(text)
        assert document["dim"] == 2
        entry = document["members"][1]["matrix"][0][0]
        assert entry == [1.0, 0.0]

    def test_complex_members_round_trip(self):
        ket = np.array([1.0, 1.0j]) / np.sqrt(2)
        family = PropertyFamily([("circ", np.outer(ket, ket.conj()))])
        restored = PropertyFamily.loads(family.dumps())
        assert matrices_close(restored.get("circ"), family.get("circ"))
