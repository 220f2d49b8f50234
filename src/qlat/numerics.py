"""Dense complex Hermitian core: validation rules for operator and
projection arrays, clustered spectral decomposition with its ``Projection``
results, and the tolerance policy every other module inherits."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "Projection",
    "spectral_decompose",
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


@dataclass(frozen=True, eq=False)
class Projection:
    """Hermitian idempotent matrix.

    The stored matrix is re-symmetrized, P <- (P + P^dagger) / 2, so that
    drift accumulated over long operator chains never makes later invariant
    checks fail spuriously. Idempotency within op_tol pins the eigenvalues to
    {0, 1} and makes the trace an integer rank up to rounding.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = _validated_projection(_as_square_matrix(self.matrix), DEFAULT_POLICY.op_tol)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def _spectral_stacks(matrices: np.ndarray, pol: TolerancePolicy) -> list[tuple[tuple[float, ...], np.ndarray]]:
    """Per Hermitian matrix of an (n, d, d) stack, from one ``eigh`` call: its
    eigenvalues, ascending and clustered by gap, and their eigenprojections as
    one (k, d, d) stack of eigenvector dyads. The stacks are not validated
    here: the ``Observable`` that holds one validates it once.

    Eigenvalues closer than ``pol.eig_gap`` are merged into one cluster whose
    projection sums the corresponding eigenvector dyads, so nearly degenerate
    spectra produce a single higher-rank projection instead of an arbitrary
    split. The projections are mutually orthogonal and resolve the identity.
    The clusters of one size take their means and dyads in one call each,
    from the columns that one matrix's cluster gives, so no bit depends on
    the stack."""
    eigenvalues, eigenvectors = np.linalg.eigh(matrices)
    n, d = eigenvalues.shape
    # A cluster opens at column 0 and where its eigenvalue lies at least
    # eig_gap above the one before; flat[c] is cluster c's first (matrix, column).
    opens = np.ones((n, d), dtype=bool)
    opens[:, 1:] = np.diff(eigenvalues, axis=-1) >= pol.eig_gap
    flat = np.flatnonzero(opens)
    sizes = np.diff(flat, append=n * d)
    owners, firsts = np.divmod(flat, d)
    means = np.empty(flat.size)
    dyads = np.empty((flat.size, d, d), dtype=np.complex128)
    for size in set(sizes.tolist()):
        chosen = sizes == size
        rows = owners[chosen][:, None]
        columns = firsts[chosen][:, None] + np.arange(size)
        means[chosen] = eigenvalues[rows, columns].mean(axis=-1)
        vectors = eigenvectors[rows[..., None], np.arange(d)[:, None], columns[:, None]]
        dyads[chosen] = vectors @ vectors.conj().mT
    bounds = np.flatnonzero(np.diff(owners)) + 1
    spectra = zip(np.split(means, bounds), np.split(dyads, bounds))
    return [(tuple(values.tolist()), stack) for values, stack in spectra]


def spectral_decompose(
    operator, pol: TolerancePolicy = DEFAULT_POLICY
) -> list[tuple[float, Projection]]:
    """The ``_spectral_stacks`` entry of a Hermitian matrix, validated as
    one, as (eigenvalue, validated Projection) pairs."""
    matrix = _as_square_matrix(operator)
    _check_hermitian(matrix, DEFAULT_POLICY.op_tol)
    eigenvalues, stack = _spectral_stacks(matrix[None], pol)[0]
    return [(value, Projection(projection)) for value, projection in zip(eigenvalues, stack)]


def _commutator_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|ab - ba|_F over (..., d, d) stacks of matrices that broadcast."""
    return _frobenius_norms(a @ b - b @ a)


def _range_kets(projections: np.ndarray) -> np.ndarray:
    """A unit vector in the range of each nonzero projection of an (n, d, d)
    stack, from one ``eigh`` call: its eigenvector of lowest index whose
    eigenvalue exceeds 1/2, as the rows of an (n, d) array."""
    eigenvalues, eigenvectors = np.linalg.eigh(projections)
    return eigenvectors[np.arange(len(projections)), :, np.argmax(eigenvalues > 0.5, axis=-1)]


def _leading_dyads(bases: np.ndarray, ranks) -> np.ndarray:
    """For each (d, c) basis of a (..., d, c) stack, the sum of the dyads of
    its first ``ranks[...]`` columns, as one (..., d, d) stack, not yet
    validated. One product serves every basis of the same rank, as in
    ``lattice._range_cuts``; each product sees the row-major columns that
    a single basis's slice would, so its bits do not depend on the stack."""
    ranks = np.asarray(ranks)
    dyads = np.empty((*bases.shape[:-1], bases.shape[-2]), dtype=np.complex128)
    for rank in set(ranks.ravel().tolist()):
        chosen = ranks == rank
        columns = bases[chosen][..., :rank]
        dyads[chosen] = columns @ columns.conj().mT
    return dyads


def _span_dyads(columns: np.ndarray, pol: TolerancePolicy) -> np.ndarray:
    """Projections onto the column span of each d x k array of a (..., d, k)
    stack, not yet validated: the dyads of the left singular vectors whose
    singular value exceeds ``pol.eig_gap``, so the rank does not depend on
    the column order."""
    u, singular, _ = np.linalg.svd(columns, full_matrices=False)
    return _leading_dyads(u, np.count_nonzero(singular > pol.eig_gap, axis=-1))
