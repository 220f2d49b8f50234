import numpy as np
import pytest

from qlat import (
    HermitianOperator,
    Ket,
    Projection,
    TolerancePolicy,
    commutator_norm,
    frobenius_distance,
    identity_projection,
    is_projection,
    matrices_close,
    projection_onto_span,
    spectral_decompose,
    zero_projection,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestTolerancePolicy:
    def test_defaults(self, pol):
        assert pol.op_tol == 1e-9
        assert pol.eig_gap == 1e-7
        assert pol.norm_tol == 1e-12
        assert pol.prob_tol == 1e-9

    @pytest.mark.parametrize("field", ["op_tol", "eig_gap", "norm_tol", "prob_tol"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match=field):
            TolerancePolicy(**{field: 0.0})

    def test_rejects_gap_below_op_tol(self):
        with pytest.raises(ValueError, match="eig_gap"):
            TolerancePolicy(op_tol=1e-6, eig_gap=1e-8)


class TestKet:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            Ket(np.array([1.0, 1.0]))

    def test_normalized_constructor(self):
        ket = Ket.normalized([3.0, 4.0])
        assert ket.dim == 2
        assert np.isclose(np.linalg.norm(ket.amplitudes), 1.0)

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError, match="zero vector"):
            Ket.normalized([0.0, 0.0])

    def test_basis(self):
        ket = Ket.basis(3, 1)
        assert np.array_equal(ket.amplitudes, np.array([0, 1, 0], dtype=complex))

    def test_amplitudes_immutable(self):
        ket = Ket.basis(2, 0)
        with pytest.raises(ValueError):
            ket.amplitudes[0] = 0.0


class TestHermitianOperator:
    def test_error_names_worst_entry(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            HermitianOperator(bad)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    def test_dim(self):
        assert HermitianOperator(np.eye(4)).dim == 4


class TestProjection:
    def test_resymmetrizes_small_drift(self):
        drift = 1e-12
        p = Projection(np.array([[1.0, drift], [0.0, 0.0]], dtype=complex))
        assert matrices_close(p.matrix, p.matrix.conj().T)

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            Projection(np.diag([2.0, 0.0]))

    def test_rank(self, pplus):
        assert pplus.rank == 1
        assert identity_projection(5).rank == 5
        assert zero_projection(3).rank == 0

    def test_from_basis(self, pplus):
        column = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        assert matrices_close(Projection.from_basis(column), pplus)
        assert Projection.from_basis(np.zeros((3, 0), dtype=complex)).rank == 0

    def test_from_basis_validates(self):
        with pytest.raises(ValueError, match="idempotent"):
            Projection.from_basis(np.array([[1.0], [1.0]], dtype=complex))


class TestSpectralDecompose:
    def test_identity(self):
        decomposition = spectral_decompose(np.eye(3))
        assert len(decomposition) == 1
        value, projection = decomposition[0]
        assert value == pytest.approx(1.0)
        assert matrices_close(projection, identity_projection(3))

    def test_diagonal_qubit(self):
        decomposition = spectral_decompose(SIGMA_Z)
        assert [v for v, _ in decomposition] == pytest.approx([-1.0, 1.0])
        assert matrices_close(decomposition[0][1].matrix, np.diag([0.0, 1.0]))
        assert matrices_close(decomposition[1][1].matrix, np.diag([1.0, 0.0]))

    def test_degenerate_cluster(self):
        # hand diagonalization: eigenvalue 1 on axes 1 and 2, eigenvalue 2 on axis 0
        decomposition = spectral_decompose(np.diag([2.0, 1.0, 1.0]))
        assert [v for v, _ in decomposition] == pytest.approx([1.0, 2.0])
        low, high = decomposition[0][1], decomposition[1][1]
        assert low.rank == 2
        assert matrices_close(low.matrix, np.diag([0.0, 1.0, 1.0]))
        assert matrices_close(high.matrix, np.diag([1.0, 0.0, 0.0]))

    def test_near_degenerate_merged_by_gap(self, pol):
        decomposition = spectral_decompose(np.diag([1.0, 1.0 + pol.eig_gap / 10, 2.0]), pol)
        assert len(decomposition) == 2
        assert decomposition[0][1].rank == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="asymmetry"):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        matrix = (raw + raw.conj().T) / 2
        first = spectral_decompose(matrix)
        second = spectral_decompose(matrix)
        assert [v for v, _ in first] == [v for v, _ in second]
        for (_, a), (_, b) in zip(first, second):
            assert np.array_equal(a.matrix, b.matrix)

    def test_resolution_invariants_random(self, pol):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            dim = int(rng.integers(2, 9))
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            matrix = (raw + raw.conj().T) / 2
            decomposition = spectral_decompose(matrix, pol)
            projections = [p.matrix for _, p in decomposition]
            total = sum(projections)
            assert frobenius_distance(total, np.eye(dim)) < pol.op_tol
            for i in range(len(projections)):
                for j in range(i + 1, len(projections)):
                    assert np.linalg.norm(projections[i] @ projections[j]) < pol.op_tol
            rebuilt = sum(v * p for (v, _), p in zip(decomposition, projections))
            assert frobenius_distance(rebuilt, matrix) < dim * pol.op_tol


class TestCommutatorNorm:
    def test_identity_commutes_with_anything(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        matrix = (raw + raw.conj().T) / 2
        assert commutator_norm(np.eye(4), matrix) == 0.0

    def test_pauli_pair(self):
        # [sigma_z, sigma_x] = 2i sigma_y, Frobenius norm sqrt(4 + 4)
        assert commutator_norm(SIGMA_Z, SIGMA_X) == pytest.approx(2 * np.sqrt(2))

    def test_diagonals_commute(self):
        assert commutator_norm(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = (a + a.conj().T) / 2
            b = (b + b.conj().T) / 2
            assert commutator_norm(a, b) == pytest.approx(commutator_norm(b, a))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator_norm(np.eye(2), np.eye(3))


class TestIsProjection:
    def test_examples(self):
        assert is_projection(np.array([[1.0, 0.0], [0.0, 0.0]]))
        # (1/2 [[1,1],[1,1]])^2 = 1/4 [[2,2],[2,2]] = itself
        assert is_projection(np.full((2, 2), 0.5))
        assert not is_projection(np.diag([2.0, 0.0]))

    def test_non_hermitian_is_false_not_an_error(self):
        assert not is_projection(np.array([[1.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "matrix, valid",
        [
            (np.diag([1.0, 0.0]), True),
            # max-entry asymmetry 8e-10 is within op_tol, its Frobenius norm is not
            (np.array([[1.0, 8e-10], [0.0, 0.0]]), True),
            (np.array([[1.0, 2e-9], [0.0, 0.0]]), False),
            (np.diag([1.0, 2e-9]), False),
            (np.diag([1.0, 5e-10]), True),
        ],
    )
    def test_agrees_with_projection_validation(self, matrix, valid):
        assert is_projection(matrix) is valid
        if valid:
            Projection(matrix)
        else:
            with pytest.raises(ValueError):
                Projection(matrix)

    def test_honours_policy(self):
        loose = TolerancePolicy(op_tol=1e-5, eig_gap=1e-4)
        for matrix in (np.diag([1.0, 1e-6]), np.array([[1.0, 1e-6], [0.0, 0.0]])):
            assert not is_projection(matrix)
            assert is_projection(matrix, loose)


class TestProjectionOntoSpan:
    def test_single_vector(self, pplus):
        result = projection_onto_span(np.array([1.0, 1.0]) / np.sqrt(2))
        assert matrices_close(result, pplus)

    def test_dependent_columns_dropped(self):
        columns = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        assert projection_onto_span(columns).rank == 1

    def test_empty_span(self):
        assert projection_onto_span(np.zeros((3, 2))).rank == 0
        assert projection_onto_span(np.zeros((3, 0))).rank == 0

    def test_dependent_column_before_independent_one(self):
        columns = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        result = projection_onto_span(columns)
        assert result.rank == 2
        assert matrices_close(result, np.diag([1.0, 1.0, 0.0]))

    def test_rank_of_repeated_columns(self, pol):
        rng = np.random.default_rng(5)
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            count = int(rng.integers(1, dim + 1))
            columns = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
            columns = columns[:, rng.integers(0, count, size=count + 1)]
            result = projection_onto_span(columns, pol)
            assert result.rank == np.linalg.matrix_rank(columns)
            assert np.linalg.norm(result.matrix @ columns - columns) < pol.op_tol
