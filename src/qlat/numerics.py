"""Dense complex Hermitian core: validated operator types, clustered spectral
decomposition, and the tolerance policy every other module inherits."""

from __future__ import annotations

import math
import numbers
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
    "spectral_stack",
    "commutator_norm",
    "projection_onto_span",
    "range_basis",
    "validated_projections",
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
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            # Numpy scalars become Python floats, so the report serializes.
            value = float(value)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")
            object.__setattr__(self, name, value)
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


def _frobenius_norms(entries: np.ndarray, axes: int = 2) -> np.ndarray:
    """The one Frobenius norm, over the last ``axes`` axes: sqrt(re.re +
    im.im) from one dot product per flattened row, bit for bit as
    ``np.linalg.norm`` computes it for one complex vector or matrix."""
    if entries.ndim == axes:
        flat = entries.ravel(order="K")
        return np.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))
    # The row length is spelled out, since -1 is ambiguous for an empty stack.
    flat = entries.reshape(*entries.shape[:-axes], math.prod(entries.shape[-axes:]))
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _matrix_name(index, names=None) -> str:
    """'matrix' for a single matrix, 'matrix k' for entry k of a stack, or
    ``names[k]`` when the matrices of a (k, d, d) stack are named."""
    if not index:
        return "matrix"
    if names is not None:
        return names[int(index[0])]
    return f"matrix {int(index[0]) if len(index) == 1 else tuple(int(i) for i in index)}"


def _check_hermitian(matrix: np.ndarray, tol: float, names=None) -> None:
    """ValueError unless every matrix of a (..., d, d) stack equals its
    conjugate transpose within tol; in a stack the message names the
    matrix's index. A NaN or inf entry fails: the check asks that the
    defect be at most tol, which NaN never is. An empty stack passes."""
    asymmetry = np.abs(matrix - matrix.conj().mT)
    worst = float(asymmetry.max(initial=0.0))
    if not worst <= tol:
        *index, i, j = np.unravel_index(int(np.argmax(asymmetry)), asymmetry.shape)
        raise ValueError(
            f"{_matrix_name(index, names)} is not Hermitian: max asymmetry {worst:.3e} at entry ({i}, {j})"
        )


def _validated_projection(matrix: np.ndarray, tol: float, names=None) -> np.ndarray:
    """Re-symmetrized (..., d, d) stack; ValueError unless every matrix is
    Hermitian and idempotent within tol."""
    _check_hermitian(matrix, tol, names)
    matrix = (matrix + matrix.conj().mT) / 2.0
    residuals = _frobenius_norms(matrix @ matrix - matrix)
    worst = float(residuals.max(initial=0.0))
    if not worst <= tol:
        index = np.unravel_index(int(np.argmax(residuals)), residuals.shape)
        raise ValueError(f"{_matrix_name(index, names)} is not idempotent: |P^2 - P| = {worst:.3e}")
    return matrix


def _ranks(matrices: np.ndarray, tol: float) -> np.ndarray:
    """The rank of each projection of a (..., d, d) stack: its trace rounded
    to an integer (a float array); ValueError unless every trace lies within
    tol of it."""
    traces = np.trace(matrices, axis1=-2, axis2=-1).real
    ranks = np.rint(traces)
    near = np.abs(traces - ranks) <= tol
    if not near.all():
        raise ValueError(f"projection trace {float(traces[~near][0])!r} is not near an integer rank")
    return ranks


def validated_projections(matrices, names=None) -> np.ndarray:
    """A (..., d, d) stack of projections, validated and re-symmetrized by
    the rule of ``Projection`` applied to every matrix: a stack that holds
    one non-projection raises the ValueError that names its index, or its
    name when ``names`` gives one per matrix of a (k, d, d) stack."""
    return _validated_projection(np.asarray(matrices, dtype=np.complex128), DEFAULT_POLICY.op_tol, names)


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
        if not abs(sq_norm - 1.0) <= DEFAULT_POLICY.norm_tol:
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
        return int(_ranks(self.matrix, DEFAULT_POLICY.eig_gap))


def frobenius_distance(left, right) -> float:
    a = _matrix_of(left)
    b = _matrix_of(right)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(_frobenius_norms(a - b))


def matrices_close(left, right, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Single operator-equality notion used everywhere: Frobenius distance < op_tol."""
    return frobenius_distance(left, right) < pol.op_tol


def spectral_stack(
    operator, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[tuple[float, ...], np.ndarray]:
    """Eigenvalues, ascending and clustered by gap, and their eigenprojections
    as one (k, d, d) stack of eigenvector dyads. The stack is not validated
    here: the ``Observable`` that holds it validates it once.

    Eigenvalues closer than ``pol.eig_gap`` are merged into one cluster whose
    projection sums the corresponding eigenvector dyads, so nearly degenerate
    spectra produce a single higher-rank projection instead of an arbitrary
    split. The returned projections are mutually orthogonal and resolve the
    identity.
    """
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(operator)
    eigenvalues, eigenvectors = np.linalg.eigh(operator.matrix)
    # A cluster closes where the next eigenvalue lies at least eig_gap above.
    starts = np.flatnonzero(np.diff(eigenvalues) >= pol.eig_gap) + 1
    clusters = np.split(np.arange(eigenvalues.size), starts)
    means = tuple(float(np.mean(eigenvalues[indices])) for indices in clusters)
    return means, np.stack([eigenvectors[:, c] @ eigenvectors[:, c].conj().T for c in clusters])


def spectral_decompose(
    operator, pol: TolerancePolicy = DEFAULT_POLICY
) -> list[tuple[float, Projection]]:
    """``spectral_stack`` as (eigenvalue, validated Projection) pairs."""
    eigenvalues, stack = spectral_stack(operator, pol)
    return [(value, Projection(matrix)) for value, matrix in zip(eigenvalues, stack)]


def commutator_norm(left, right) -> float:
    """Frobenius norm of the commutator; zero exactly when the operators commute."""
    a = _matrix_of(left)
    b = _matrix_of(right)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(_commutator_norms(a, b))


def _commutator_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|ab - ba|_F over (..., d, d) stacks of matrices that broadcast."""
    return _frobenius_norms(a @ b - b @ a)


def range_basis(projection) -> np.ndarray:
    """Orthonormal basis of the range of a projection or its matrix, as the
    columns of a d x rank array: the eigenvectors of eigenvalue near 1."""
    eigenvalues, eigenvectors = np.linalg.eigh(_matrix_of(projection))
    return eigenvectors[:, eigenvalues > 0.5]


def _span_basis(columns: np.ndarray, pol: TolerancePolicy) -> np.ndarray:
    """Orthonormal basis of the column span of a d x k complex array: the
    left singular vectors whose singular value exceeds ``pol.eig_gap``, so
    the rank does not depend on the column order."""
    u, singular, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, singular > pol.eig_gap]


def projection_onto_span(columns, pol: TolerancePolicy = DEFAULT_POLICY) -> Projection:
    """Projection onto the column span of a d x k array (a 1-d vector counts
    as a single column), on the basis of ``_span_basis``."""
    array = np.asarray(columns, dtype=np.complex128)
    if array.ndim == 1:
        array = array[:, None]
    if array.ndim != 2 or array.shape[0] == 0:
        raise ValueError(f"expected columns in a d x k array, got shape {array.shape}")
    return Projection.from_basis(_span_basis(array, pol))
