import numpy as np
import pytest

from qlat import (
    Observable,
    Projection,
    TolerancePolicy,
    spectral_decompose,
)
from qlat.numerics import (
    DEFAULT_POLICY,
    _commutator_norms,
    _frobenius_norms,
    _ranks,
    _span_dyads,
    _spectral_stacks,
    validated_projections,
)

from oracles import frobenius_distance, matrices_close

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def rank_of(projection):
    """The rank rule on a Projection's matrix: its trace, rounded."""
    return int(_ranks(projection.matrix, DEFAULT_POLICY.eig_gap))
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

    @pytest.mark.parametrize("field", ["op_tol", "eig_gap", "norm_tol", "prob_tol"])
    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be strictly positive and finite"):
            TolerancePolicy(**{field: value})

    def test_rejects_gap_below_op_tol(self):
        with pytest.raises(ValueError, match="eig_gap"):
            TolerancePolicy(op_tol=1e-6, eig_gap=1e-8)

    @pytest.mark.parametrize("field", ["op_tol", "eig_gap", "norm_tol", "prob_tol"])
    @pytest.mark.parametrize("value", [True, "1e-9", None, 1e-9j])
    def test_rejects_bools_and_non_reals_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            TolerancePolicy(**{field: value})

    def test_stores_python_floats(self):
        policy = TolerancePolicy(op_tol=np.float32(1e-9), eig_gap=1, prob_tol=np.float64(1e-9))
        assert all(
            type(getattr(policy, field)) is float
            for field in ("op_tol", "eig_gap", "norm_tol", "prob_tol")
        )
        assert policy.op_tol == float(np.float32(1e-9)) and policy.eig_gap == 1.0
        assert TolerancePolicy() == TolerancePolicy(op_tol=1e-9)


class TestProjection:
    def test_resymmetrizes_small_drift(self):
        drift = 1e-12
        p = Projection(np.array([[1.0, drift], [0.0, 0.0]], dtype=complex))
        assert matrices_close(p.matrix, p.matrix.conj().T)

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match=r"^matrix is not idempotent: \|P\^2 - P\| = 2\.000e\+00$"):
            Projection(np.diag([2.0, 0.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian: max asymmetry nan at entry \(0, 0\)$"):
            Projection(np.full((2, 2), np.nan))

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian: max asymmetry inf at entry \(0, 1\)$"):
            Projection(np.array([[1.0, np.inf], [0.0, 0.0]]))

    def test_stack_names_the_nan_member(self):
        stack = np.stack([np.eye(2), np.full((2, 2), np.nan)]).astype(complex)
        with pytest.raises(ValueError, match=r"^matrix 1 is not Hermitian: max asymmetry nan at entry \(0, 0\)$"):
            validated_projections(stack)

    def test_rank(self, pplus):
        assert rank_of(pplus) == 1
        assert rank_of(Projection(np.eye(5))) == 5
        assert rank_of(Projection(np.zeros((3, 3)))) == 0


class TestValidatedProjections:
    """The rule of Projection applied to a (..., d, d) stack."""

    def stack(self, pplus):
        return np.stack([np.eye(2), pplus.matrix, np.zeros((2, 2)), pplus.matrix]).astype(complex)

    def test_matches_projection_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for dim in range(2, 9):
            gaussian = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            columns = np.linalg.qr(gaussian)[0][:, : int(rng.integers(0, dim + 1))]
            raw = columns @ columns.conj().T
            expected = Projection(raw).matrix
            assert all(np.array_equal(m, expected) for m in validated_projections([raw] * 3))

    def test_non_hermitian_member_named_by_index(self, pplus):
        stack = self.stack(pplus)
        stack[2, 0, 1] = 0.25
        with pytest.raises(
            ValueError, match=r"^matrix 2 is not Hermitian: max asymmetry 2\.500e-01 at entry \(0, 1\)$"
        ):
            validated_projections(stack)

    def test_non_idempotent_member_named_by_index(self, pplus):
        stack = self.stack(pplus)
        stack[3] = np.diag([2.0, 0.0])
        with pytest.raises(ValueError, match=r"^matrix 3 is not idempotent: \|P\^2 - P\| = 2\.000e\+00$"):
            validated_projections(stack)

    def test_index_of_a_two_level_stack(self, pplus):
        stack = np.stack([self.stack(pplus)] * 2)
        stack[1, 2] = np.diag([2.0, 0.0])
        with pytest.raises(ValueError, match=r"^matrix \(1, 2\) is not idempotent"):
            validated_projections(stack)

    def test_resymmetrizes_each_matrix(self, pplus):
        stack = self.stack(pplus)
        stack[1, 0, 1] += 1e-12
        assert np.array_equal(validated_projections(stack)[1], Projection(stack[1]).matrix)

    def test_named_members(self, pplus):
        stack = self.stack(pplus)
        stack[2, 0, 1] = 0.25
        names = [f"member {label!r}" for label in "abcd"]
        with pytest.raises(ValueError, match=r"^member 'c' is not Hermitian: max asymmetry 2\.500e-01"):
            validated_projections(stack, names=names)
        stack[2] = np.diag([2.0, 0.0])
        with pytest.raises(ValueError, match=r"^member 'c' is not idempotent: \|P\^2 - P\| = 2\.000e\+00$"):
            validated_projections(stack, names=names)

    def test_empty_stack_gives_empty_results(self):
        empty = np.zeros((0, 3, 3), dtype=complex)
        assert validated_projections(empty).shape == (0, 3, 3)
        assert _frobenius_norms(empty).shape == (0,)
        assert _frobenius_norms(np.zeros((2, 0, 3, 3))).shape == (2, 0)
        nan = np.full((1, 3, 3), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="^matrix 0 is not Hermitian: max asymmetry nan"):
            validated_projections(np.concatenate([empty, nan]))


class TestFrobeniusNorms:
    def test_matches_numpy_norm_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for dim in range(2, 9):
            matrices = rng.standard_normal((40, dim, dim)) + 1j * rng.standard_normal((40, dim, dim))
            stacked = _frobenius_norms(matrices)
            for matrix, norm in zip(matrices, stacked):
                assert norm == np.linalg.norm(matrix) == _frobenius_norms(matrix)


def random_hermitians(count=1000, seed=2024):
    """Gaussian Hermitian matrices of dimension 2-8: generically one
    eigenvalue per cluster."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, 9))
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        yield (raw + raw.conj().T) / 2


def clustered_hermitians(pol, count=200, seed=2025):
    """Rotated spectra drawn from {-1, 0, 2}, each value offset by 0 or
    eig_gap / 10: degenerate and nearly degenerate clusters of every rank."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, 9))
        values = rng.choice([-1.0, 0.0, 2.0], dim) + rng.choice([0.0, pol.eig_gap / 10], dim)
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        basis, _ = np.linalg.qr(raw)
        matrix = (basis * values) @ basis.conj().T
        yield (matrix + matrix.conj().T) / 2


def per_cluster_route(matrix, pol):
    """The decomposition as it stood before the stack, written out as the
    oracle: a cluster loop over eigh's eigenvalues, one validated Projection
    of the cluster's eigenvector dyads per cluster, and the matrices stacked."""
    eigenvalues, eigenvectors = np.linalg.eigh(np.asarray(matrix, dtype=np.complex128))
    clusters = [[0]]
    for i in range(1, eigenvalues.size):
        if eigenvalues[i] - eigenvalues[i - 1] < pol.eig_gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    values = tuple(float(np.mean(eigenvalues[indices])) for indices in clusters)
    bases = [eigenvectors[:, indices] for indices in clusters]
    matrices = [Projection(basis @ basis.conj().T).matrix for basis in bases]
    return values, np.stack(matrices)


class TestSpectralDecompose:
    def test_identity(self):
        decomposition = spectral_decompose(np.eye(3))
        assert len(decomposition) == 1
        value, projection = decomposition[0]
        assert value == pytest.approx(1.0)
        assert matrices_close(projection, Projection(np.eye(3)))

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
        assert rank_of(low) == 2
        assert matrices_close(low.matrix, np.diag([0.0, 1.0, 1.0]))
        assert matrices_close(high.matrix, np.diag([1.0, 0.0, 0.0]))

    def test_near_degenerate_merged_by_gap(self, pol):
        decomposition = spectral_decompose(np.diag([1.0, 1.0 + pol.eig_gap / 10, 2.0]), pol)
        assert len(decomposition) == 2
        assert rank_of(decomposition[0][1]) == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="asymmetry"):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="asymmetry"):
            Observable.from_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_error_names_worst_entry(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(
            ValueError, match=r"^matrix is not Hermitian: max asymmetry 1\.000e\+00 at entry \(0, 1\)$"
        ):
            spectral_decompose(bad)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            spectral_decompose(np.zeros((2, 3)))

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
        for matrix in random_hermitians():
            dim = matrix.shape[0]
            decomposition = spectral_decompose(matrix, pol)
            projections = [p.matrix for _, p in decomposition]
            total = sum(projections)
            assert frobenius_distance(total, np.eye(dim)) < pol.op_tol
            for i in range(len(projections)):
                for j in range(i + 1, len(projections)):
                    assert np.linalg.norm(projections[i] @ projections[j]) < pol.op_tol
            rebuilt = sum(v * p for (v, _), p in zip(decomposition, projections))
            assert frobenius_distance(rebuilt, matrix) < dim * pol.op_tol

    def test_stacks_equal_the_per_cluster_route_bit_for_bit(self, pol):
        """The observable's validated stack and the pairs' matrices both
        equal one validated dyad sum per cluster, bit for bit."""
        ranks = set()
        for matrix in [*random_hermitians(), *clustered_hermitians(pol)]:
            expected_values, expected = per_cluster_route(matrix, pol)
            observable = Observable.from_operator(matrix, pol)
            assert observable.eigenvalues == expected_values
            assert np.array_equal(observable.projection_stack, expected)
            decomposition = spectral_decompose(matrix, pol)
            assert tuple(value for value, _ in decomposition) == expected_values
            assert np.array_equal(np.stack([p.matrix for _, p in decomposition]), expected)
            ranks.update(round(float(np.trace(p).real)) for p in expected)
        assert ranks >= set(range(1, 8))  # clusters of every rank up to 7

    def test_stack_holds_the_unvalidated_dyads(self, pol):
        """``_spectral_stacks`` leaves validation to the Observable that holds
        the stack: its entries are the raw eigenvector dyads, one per
        cluster, and their validation only re-symmetrizes them."""
        for matrix in clustered_hermitians(pol, count=50):
            [(eigenvalues, stack)] = _spectral_stacks(np.asarray(matrix, dtype=np.complex128)[None], pol)
            expected_values, expected = per_cluster_route(matrix, pol)
            assert eigenvalues == expected_values
            assert all(type(value) is float for value in eigenvalues)
            assert stack.shape == (len(eigenvalues), *matrix.shape)
            assert np.array_equal(validated_projections(stack), expected)
            assert np.abs(stack - expected).max() <= 1e-15


class TestCommutatorNorm:
    def test_identity_commutes_with_anything(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        matrix = (raw + raw.conj().T) / 2
        assert float(_commutator_norms(np.eye(4), matrix)) == 0.0

    def test_pauli_pair(self):
        # [sigma_z, sigma_x] = 2i sigma_y, Frobenius norm sqrt(4 + 4)
        assert float(_commutator_norms(SIGMA_Z, SIGMA_X)) == pytest.approx(2 * np.sqrt(2))

    def test_diagonals_commute(self):
        assert float(_commutator_norms(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))) == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = (a + a.conj().T) / 2
            b = (b + b.conj().T) / 2
            assert float(_commutator_norms(a, b)) == pytest.approx(float(_commutator_norms(b, a)))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            float(_commutator_norms(np.eye(2), np.eye(3)))


class TestIsProjection:
    """Whether a matrix is a projection is decided by one validation, the
    rule of ``Projection``, which ``validated_projections`` applies to every
    matrix of a stack."""

    def test_examples(self):
        Projection(np.array([[1.0, 0.0], [0.0, 0.0]]))
        # (1/2 [[1,1],[1,1]])^2 = 1/4 [[2,2],[2,2]] = itself
        Projection(np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="not idempotent"):
            Projection(np.diag([2.0, 0.0]))

    def test_oblique_idempotent_is_not_hermitian(self):
        # idempotent, but a projection along a non-orthogonal direction
        with pytest.raises(ValueError, match="not Hermitian"):
            Projection(np.array([[1.0, 1.0], [0.0, 0.0]]))

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
        if valid:
            Projection(matrix)
            validated_projections(matrix[None])
        else:
            with pytest.raises(ValueError):
                Projection(matrix)
            with pytest.raises(ValueError, match="matrix 0 "):
                validated_projections(matrix[None])


def span_projection(columns, pol=TolerancePolicy()):
    """Projection onto the column span of a d x k array, by the rank rule of
    ``_span_dyads``."""
    return Projection(_span_dyads(np.asarray(columns, dtype=np.complex128), pol))


class TestProjectionOntoSpan:
    def test_single_vector(self, pplus):
        result = span_projection(np.array([[1.0], [1.0]]) / np.sqrt(2))
        assert matrices_close(result, pplus)

    def test_dependent_columns_dropped(self):
        columns = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        assert rank_of(span_projection(columns)) == 1

    def test_empty_span(self):
        assert rank_of(span_projection(np.zeros((3, 2)))) == 0
        assert rank_of(span_projection(np.zeros((3, 0)))) == 0

    def test_dependent_column_before_independent_one(self):
        columns = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        result = span_projection(columns)
        assert rank_of(result) == 2
        assert matrices_close(result, np.diag([1.0, 1.0, 0.0]))

    def test_rank_of_repeated_columns(self, pol):
        rng = np.random.default_rng(5)
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            count = int(rng.integers(1, dim + 1))
            columns = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
            columns = columns[:, rng.integers(0, count, size=count + 1)]
            result = span_projection(columns, pol)
            assert rank_of(result) == np.linalg.matrix_rank(columns)
            assert np.linalg.norm(result.matrix @ columns - columns) < pol.op_tol
