"""Dense complex Hermitian core: validated operator types, clustered spectral
decomposition, and the tolerance policy every other module inherits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "Ket",
    "HermitianOperator",
    "Projection",
    "frobenius_distance",
    "matrices_close",
    "spectral_decompose",
    "commutator_norm",
    "is_projection",
    "zero_projection",
    "identity_projection",
    "projection_onto_span",
    "range_basis",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Shared numerical thresholds.

    op_tol    Frobenius threshold below which two operators count as equal.
    eig_gap   eigenvalues closer than this merge into one spectral cluster.
    norm_tol  allowed deviation of a squared vector norm from 1.
    prob_tol  slack when comparing probabilities.

    The defaults keep three to five orders of magnitude between typical
    double-precision eigensolver residuals (~1e-14 at the dimensions handled
    here) and the thresholds, so accumulated drift over long operation chains
    does not mask real violations.
    """

    op_tol: float = 1e-9
    eig_gap: float = 1e-7
    norm_tol: float = 1e-12
    prob_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("op_tol", "eig_gap", "norm_tol", "prob_tol"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if not self.eig_gap > self.op_tol:
            raise ValueError(
                f"eig_gap ({self.eig_gap!r}) must be larger than op_tol ({self.op_tol!r})"
            )


DEFAULT_POLICY = TolerancePolicy()


def _as_square_matrix(value) -> np.ndarray:
    matrix = np.array(value, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {matrix.shape}")
    return matrix


def _check_hermitian(matrix: np.ndarray, tol: float) -> None:
    asymmetry = np.abs(matrix - matrix.conj().T)
    worst = float(asymmetry.max())
    if worst > tol:
        i, j = np.unravel_index(int(np.argmax(asymmetry)), asymmetry.shape)
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {worst:.3e} at entry ({i}, {j})"
        )


def _validated_projection(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Re-symmetrized matrix; ValueError unless Hermitian and idempotent within tol."""
    _check_hermitian(matrix, tol)
    matrix = (matrix + matrix.conj().T) / 2.0
    residual = float(np.linalg.norm(matrix @ matrix - matrix))
    if residual > tol:
        raise ValueError(f"matrix is not idempotent: |P^2 - P| = {residual:.3e}")
    return matrix


def _matrix_of(value) -> np.ndarray:
    if isinstance(value, HermitianOperator):
        return value.matrix
    return _as_square_matrix(value)


@dataclass(frozen=True, eq=False)
class Ket:
    """Unit vector in a finite-dimensional complex Hilbert space."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError(f"state vector must be a nonempty 1-d array, got shape {amps.shape}")
        sq_norm = float(np.vdot(amps, amps).real)
        if abs(sq_norm - 1.0) > DEFAULT_POLICY.norm_tol:
            raise ValueError(f"state vector is not normalized: squared norm is {sq_norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, values) -> "Ket":
        """Build a state from an arbitrary nonzero vector by normalizing it."""
        vec = np.asarray(values, dtype=np.complex128)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(vec / norm)

    @classmethod
    def basis(cls, dim: int, index: int) -> "Ket":
        vec = np.zeros(dim, dtype=np.complex128)
        vec[index] = 1.0
        return cls(vec)

    def overlap(self, other: "Ket") -> complex:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Square complex matrix equal to its conjugate transpose within op_tol."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = _as_square_matrix(self.matrix)
        _check_hermitian(matrix, DEFAULT_POLICY.op_tol)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Projection(HermitianOperator):
    """Hermitian idempotent matrix.

    The stored matrix is re-symmetrized, P <- (P + P^dagger) / 2, so that
    drift accumulated over long operator chains never makes later invariant
    checks fail spuriously. Idempotency within op_tol pins the eigenvalues to
    {0, 1} and makes the trace an integer rank up to rounding.
    """

    def __post_init__(self) -> None:
        matrix = _validated_projection(_as_square_matrix(self.matrix), DEFAULT_POLICY.op_tol)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_basis(cls, columns: np.ndarray) -> "Projection":
        """Projection onto the span of the orthonormal columns of a d x k
        array; a d x 0 array gives the zero projection."""
        return cls(columns @ columns.conj().T)

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix).real)))


def frobenius_distance(left, right) -> float:
    a = _matrix_of(left)
    b = _matrix_of(right)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.linalg.norm(a - b))


def matrices_close(left, right, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Single operator-equality notion used everywhere: Frobenius distance < op_tol."""
    return frobenius_distance(left, right) < pol.op_tol


def spectral_decompose(
    operator, pol: TolerancePolicy = DEFAULT_POLICY
) -> list[tuple[float, Projection]]:
    """Eigenvalues with their eigenprojections, ascending, clustered by gap.

    Eigenvalues closer than ``pol.eig_gap`` are merged into one cluster whose
    projection sums the corresponding eigenvector dyads, so nearly degenerate
    spectra produce a single higher-rank projection instead of an arbitrary
    split. The returned projections are mutually orthogonal and resolve the
    identity.
    """
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(operator)
    eigenvalues, eigenvectors = np.linalg.eigh(operator.matrix)
    clusters: list[list[int]] = [[0]]
    for i in range(1, eigenvalues.size):
        if eigenvalues[i] - eigenvalues[i - 1] < pol.eig_gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return [
        (float(np.mean(eigenvalues[indices])), Projection.from_basis(eigenvectors[:, indices]))
        for indices in clusters
    ]


def commutator_norm(left, right) -> float:
    """Frobenius norm of the commutator; zero exactly when the operators commute."""
    a = _matrix_of(left)
    b = _matrix_of(right)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.linalg.norm(a @ b - b @ a))


def is_projection(matrix, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True iff the square matrix passes the validation of ``Projection``
    with ``pol.op_tol`` in place of the default threshold."""
    m = _as_square_matrix(matrix)
    try:
        _validated_projection(m, pol.op_tol)
    except ValueError:
        return False
    return True


def range_basis(projection: Projection) -> np.ndarray:
    """Orthonormal basis of the range as the columns of a d x rank array,
    taken from the eigenvectors of eigenvalue near 1."""
    eigenvalues, eigenvectors = np.linalg.eigh(projection.matrix)
    return eigenvectors[:, eigenvalues > 0.5]


def zero_projection(dim: int) -> Projection:
    return Projection.from_basis(np.zeros((dim, 0), dtype=np.complex128))


def identity_projection(dim: int) -> Projection:
    return Projection(np.eye(dim, dtype=np.complex128))


def projection_onto_span(columns, pol: TolerancePolicy = DEFAULT_POLICY) -> Projection:
    """Projection onto the column span of a d x k array (a 1-d vector counts
    as a single column).

    The basis is the left singular vectors whose singular value exceeds
    ``pol.eig_gap``, so the rank does not depend on the column order.
    """
    array = np.asarray(columns, dtype=np.complex128)
    if array.ndim == 1:
        array = array[:, None]
    if array.ndim != 2 or array.shape[0] == 0:
        raise ValueError(f"expected columns in a d x k array, got shape {array.shape}")
    u, singular, _ = np.linalg.svd(array, full_matrices=False)
    return Projection.from_basis(u[:, singular > pol.eig_gap])
