"""Projection lattice: order, meet, join, orthocomplement, checkers for the
structural laws, and labelled property families with JSON serialization."""

from __future__ import annotations

import functools
import json
import numbers

import numpy as np

from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _frobenius_norms,
    _matrix_of,
    _ranks,
    validated_projections,
)

__all__ = [
    "leq",
    "meet",
    "join",
    "orthocomplement",
    "is_atom",
    "covering_holds",
    "de_morgan_gaps",
    "orthomodular_holds",
    "family_laws",
    "PropertyFamily",
]

# Each lattice operation and law check has one definition, over (..., d, d)
# arrays of projection matrices that broadcast against each other; a single
# (d, d) matrix is the one-element case.


def leq(p: np.ndarray, q: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Range inclusion: p <= q iff q @ p == p within op_tol."""
    return _frobenius_norms(q @ p - p) < pol.op_tol


def orthocomplement(p: np.ndarray) -> np.ndarray:
    return validated_projections(np.eye(p.shape[-1], dtype=np.complex128) - p)


def _sum_ranges(sums: np.ndarray, floor: float) -> np.ndarray:
    """Projections onto the eigenvectors with eigenvalue above floor, for
    each matrix of a (..., d, d) stack of sums p + q; not yet validated.

    The spectrum of p + q lies in [0, 2]: range(p) & range(q) is the
    eigenspace of 2 and range(p) + range(q) the range. An eigenbasis is
    rank-revealing, so both stay stable for nearly parallel subspaces.
    ``eigh`` sorts the eigenvalues in ascending order, so the kept columns
    are the last k; one product serves every matrix of the same rank k.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(sums)
    kept = eigenvalues > floor
    if sums.ndim == 2:
        columns = eigenvectors[:, kept]
        return columns @ columns.conj().mT
    dim = sums.shape[-1]
    ranks = np.count_nonzero(kept, axis=-1)
    ranges = np.empty_like(sums)
    for rank in set(ranks.ravel().tolist()):
        chosen = ranks == rank
        columns = eigenvectors[chosen, ..., dim - rank :]
        ranges[chosen] = columns @ columns.conj().mT
    return ranges


def meet(p: np.ndarray, q: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Validated p ^ q, the projection onto the intersection of the ranges:
    the top eigenspace of p + q, counting eigenvalues within eig_gap of 2."""
    return validated_projections(_sum_ranges(p + q, 2.0 - pol.eig_gap))


def join(p: np.ndarray, q: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Validated p v q, the projection onto the span of the ranges: the range
    of p + q, counting eigenvalues below eig_gap as zero."""
    return validated_projections(_sum_ranges(p + q, pol.eig_gap))


def is_atom(p: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """True where the projection has rank one."""
    return _ranks(p, pol.eig_gap) == 1


def orthomodular_holds(
    p: np.ndarray, q: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Where p <= q, q == p v (q ^ p_perp); vacuously true elsewhere."""
    rebuilt = join(p, meet(q, orthocomplement(p), pol), pol)
    return ~leq(p, q, pol) | (_frobenius_norms(rebuilt - q) < pol.op_tol)


def de_morgan_gaps(
    p: np.ndarray, q: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """The Frobenius distance between p ^ q and (p_perp v q_perp)_perp."""
    dual = join(orthocomplement(p), orthocomplement(q), pol)
    return _frobenius_norms(meet(p, q, pol) - orthocomplement(dual))


def family_laws(
    family: PropertyFamily, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[np.ndarray, np.ndarray]:
    """The laws on every member pair (a, b) of the family: the De Morgan
    gaps, one per unordered pair, and the orthomodular law on
    (a, a v b), one per ordered pair.

    Meet, join and the gap are symmetric bit for bit, since p + q == q + p,
    so only the orthomodular law needs both orders.
    """
    stack = family.projection_stack
    first, second = np.triu_indices(len(stack))
    gaps = de_morgan_gaps(stack[first], stack[second], pol)
    pair = np.empty((len(stack), len(stack)), dtype=np.intp)
    pair[first, second] = pair[second, first] = np.arange(first.size)
    joins = join(stack[first], stack[second], pol)[pair]
    return gaps, orthomodular_holds(stack[:, None], joins, pol)


def covering_holds(
    atom: np.ndarray, p: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Covering law for an atom over p.

    Either the atom already lies below p, or p v atom sits exactly one rank
    above p. In the lattice of subspaces of a finite-dimensional space the
    rank identity is equivalent to the absence of any strictly intermediate
    projection, so no search over intermediates is needed.
    """
    if not is_atom(atom, pol).all():
        raise ValueError("first argument must be a rank-one projection")
    return leq(atom, p, pol) | (_ranks(join(p, atom, pol), pol.eig_gap) == _ranks(p, pol.eig_gap) + 1)


class PropertyFamily:
    """Finite labelled family of properties on one space, held as one
    read-only (n, d, d) projection stack whose row k carries label k.

    The constructor parses its entries and takes the one-family result of
    ``_families``, the one rule that validates, deduplicates and adjoins the
    zero and identity projections when absent. Members are deduplicated with
    the repo-wide equality notion: a projection within op_tol (Frobenius) of
    an earlier kept member is dropped together with its label.
    """

    def __init__(self, entries, *, dim: int | None = None, pol: TolerancePolicy = DEFAULT_POLICY):
        labels: list[str] = []
        matrices: list[np.ndarray] = []
        for label, raw in entries:
            matrix = _matrix_of(raw)
            if dim is None:
                dim = matrix.shape[0]
            if matrix.shape[0] != dim:
                raise ValueError(
                    f"member {label!r} has dimension {matrix.shape[0]}, expected {dim}"
                )
            labels.append(label)
            matrices.append(matrix)
        if dim is None:
            raise ValueError("cannot build an empty family without an explicit dimension")
        stack = np.asarray(matrices, dtype=np.complex128).reshape(1, len(matrices), dim, dim)
        vars(self).update(vars(_families([labels], stack, pol)[0]))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def projection_stack(self) -> np.ndarray:
        """The member matrices as one read-only (n, d, d) array, in label order."""
        return self._stack

    def index(self, label: str) -> int:
        """The row of the labelled member in ``projection_stack``."""
        if label not in self._rows:
            raise ValueError(f"unresolved label {label!r}")
        return self._rows[label]

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._rows

    def __repr__(self) -> str:
        return f"PropertyFamily(dim={self._dim}, labels={list(self._labels)!r})"

    def to_json_dict(self) -> dict:
        return {
            "dim": self._dim,
            "members": [
                {"label": label, "matrix": _encode_matrix(row)}
                for label, row in zip(self._labels, self._stack)
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, document: dict, pol: TolerancePolicy = DEFAULT_POLICY) -> "PropertyFamily":
        try:
            dim = _checked_dim(document["dim"])
            entries = [
                (member["label"], _decode_matrix(member["matrix"]))
                for member in document["members"]
            ]
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed family document: {exc!r}") from None
        return cls(entries, dim=dim, pol=pol)

    @classmethod
    def loads(cls, text: str, pol: TolerancePolicy = DEFAULT_POLICY) -> "PropertyFamily":
        return cls.from_json_dict(json.loads(text), pol=pol)


# Differences per call of a distance table: at most 1 MiB of complex128 at
# d = 8, so a table's memory does not grow with the number of pairs.
_DIFFERENCE_ROWS = 1024


def _close_pairs(matrices: np.ndarray, left: np.ndarray, right: np.ndarray, pol: TolerancePolicy) -> np.ndarray:
    """Whether matrices[left[p]] lies within op_tol (Frobenius) of
    matrices[right[p]], for each pair p of index arrays into an (N, d, d)
    stack, in calls of at most ``_DIFFERENCE_ROWS`` differences."""
    close = np.empty(left.size, dtype=bool)
    for start in range(0, left.size, _DIFFERENCE_ROWS):
        chosen = slice(start, start + _DIFFERENCE_ROWS)
        differences = matrices.take(left[chosen], axis=0) - matrices.take(right[chosen], axis=0)
        close[chosen] = _frobenius_norms(differences) < pol.op_tol
    return close


@functools.lru_cache(maxsize=256)
def _lower_triangle(rows: int, count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The row pairs (later, earlier) that the greedy rule can read in each of
    ``count`` distance tables of ``rows`` rows, numbered as the rows of one
    (count * rows, d, d) stack: table k's pairs are ``np.tril_indices(rows,
    -1)``, in row-major order, plus k * rows. Read-only, since the arrays
    are shared."""
    offsets = (np.arange(count) * rows)[:, None]
    pairs = tuple((offsets + index).ravel() for index in np.tril_indices(rows, -1))
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _greedy_rows(close: list, start: int, stop: int) -> list[int]:
    """The greedy dedup rule over rows start to stop - 1, with every row
    below start kept: a row is kept unless it is close to a row kept before
    it. ``close`` lists, row by row from ``start``, the row's closeness to
    each earlier row: the strict lower triangle of the rows' distance
    table, in the row-major order of ``_lower_triangle(stop)``."""
    kept, offset = list(range(start)), start * (start - 1) // 2
    for row in range(start, stop):
        near = close[row * (row - 1) // 2 - offset : row * (row + 1) // 2 - offset]
        # Until a row is dropped, the kept rows are all the earlier ones.
        if not (any(near) if len(kept) == row else any(near[k] for k in kept)):
            kept.append(row)
    return kept


def _families(labels, stacks: np.ndarray, pol: TolerancePolicy) -> list[PropertyFamily]:
    """The ``PropertyFamily`` of each of K label lists and the rows of a
    (K, n, d, d) stack, family k from labels[k] and stacks[k].

    The labels must be nonempty strings, distinct within a family. One
    ``validated_projections`` call checks every member, and names a bad one
    by its label. Each family then gets 0 and I appended and keeps its rows
    greedily in order, so each bound is adjoined only when no member is
    close to it, under the label "0" or "I", or "zero" or "identity" when a
    member holds that label. The closeness comes from one distance table
    over every family's strict lower triangle, the only pairs the rule can
    read."""
    count, n, dim = len(stacks), stacks.shape[1], stacks.shape[-1]
    for names in labels:
        seen: set[str] = set()
        for label in names:
            if not isinstance(label, str) or not label:
                raise ValueError(f"labels must be nonempty strings, got {label!r}")
            if label in seen:
                raise ValueError(f"duplicate label {label!r}")
            seen.add(label)
    members = validated_projections(
        stacks.reshape(count * n, dim, dim),
        names=[f"member {label!r}" for names in labels for label in names],
    )
    rows = n + 2
    bounded = np.empty((count, rows, dim, dim), dtype=np.complex128)
    bounded[:, :n] = members.reshape(count, n, dim, dim)
    bounded[:, n] = 0.0
    bounded[:, n + 1] = np.eye(dim)
    close = _close_pairs(bounded.reshape(count * rows, dim, dim), *_lower_triangle(rows, count), pol)
    bounds = {n: ("0", "zero"), n + 1: ("I", "identity")}
    families = []
    for names, stack, near in zip(labels, bounded, close.reshape(count, -1).tolist()):
        kept = _greedy_rows(near, 0, rows)
        kept_names = [names[row] for row in kept if row < n]
        for fallbacks in (bounds[row] for row in kept if row in bounds):
            label = next((name for name in fallbacks if name not in kept_names), None)
            if label is None:
                raise ValueError(f"no available label for the adjoined {fallbacks[1]} projection")
            kept_names.append(label)
        family = object.__new__(PropertyFamily)
        family._dim, family._labels = dim, tuple(kept_names)
        family._stack = stack[kept]
        family._stack.setflags(write=False)
        family._rows = {label: row for row, label in enumerate(kept_names)}
        families.append(family)
    return families


def _checked_dim(value) -> int:
    """A "dim" input, of a run config or a family or state document: an
    integer, not a bool, in [2, 8], the one range that every input accepts."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"dim must be an integer, got {value!r}")
    if not 2 <= value <= 8:
        raise ValueError(f"dim must be in [2, 8], got {value}")
    return int(value)


def _encode_matrix(matrix: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _decode_complex(entry) -> complex:
    """One ``[re, im]`` entry of a document as ``complex(re, im)``, which keeps
    the bits of both parts; ValueError unless it is a list of two non-bool reals
    within the float range."""
    if not (isinstance(entry, list) and len(entry) == 2) or any(
        isinstance(part, bool) or not isinstance(part, numbers.Real) for part in entry
    ):
        raise ValueError(f"entries must be [re, im] pairs of numbers, got {entry!r}")
    try:
        return complex(entry[0], entry[1])
    except OverflowError:
        raise ValueError("entries must be [re, im] pairs within the float range") from None


def _decode_matrix(rows) -> np.ndarray:
    """A document's rows of ``[re, im]`` entries as a complex array with the
    bits of ``complex(re, im)``: once one scan finds lists of one nonempty
    length of two-element lists of exact ints or floats (so no bool), one
    float64 array of the pairs viewed as complex128. Anything else, or a part
    beyond the float range, goes through ``_decode_complex`` entry by entry."""
    if type(rows) is list and rows and all(
        type(row) is list and len(row) == len(rows[0]) > 0 and all(
            type(entry) is list and len(entry) == 2
            and type(entry[0]) in (int, float) and type(entry[1]) in (int, float) for entry in row
        )
        for row in rows
    ):
        try:
            return np.array(rows, dtype=np.float64).view(np.complex128)[..., 0]
        except OverflowError:
            pass
    return np.array(
        [[_decode_complex(entry) for entry in row] for row in rows],
        dtype=np.complex128,
    )
