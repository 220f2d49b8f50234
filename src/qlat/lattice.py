"""Projection lattice: order, meet, join, orthocomplement, checkers for the
structural laws, and labelled property families with JSON serialization."""

from __future__ import annotations

import json
import numbers
from functools import cached_property

import numpy as np

from .numerics import (
    DEFAULT_POLICY,
    Projection,
    TolerancePolicy,
    _frobenius_norms,
    identity_projection,
    matrices_close,
    validated_projections,
    zero_projection,
)

__all__ = [
    "leq",
    "meet",
    "join",
    "orthocomplement",
    "leq_stack",
    "meet_stack",
    "join_stack",
    "orthocomplement_stack",
    "is_atom",
    "check_orthomodular",
    "check_covering",
    "de_morgan_gap",
    "de_morgan_gaps",
    "orthomodular_holds",
    "family_laws",
    "PropertyFamily",
]

# Each lattice operation and law check has one definition, over (..., d, d)
# stacks of projection matrices that broadcast against each other. The
# functions on Projection objects are its one-pair case, through the same
# code, and give the same bits.


def _check_dims(p: Projection, q: Projection) -> None:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def leq_stack(p: np.ndarray, q: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Range inclusion over stacks: p <= q iff q @ p == p within op_tol."""
    return _frobenius_norms(q @ p - p) < pol.op_tol


def leq(p: Projection, q: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Range inclusion: p <= q iff q @ p == p within op_tol."""
    _check_dims(p, q)
    return bool(leq_stack(p.matrix, q.matrix, pol))


def orthocomplement_stack(p: np.ndarray) -> np.ndarray:
    return validated_projections(np.eye(p.shape[-1], dtype=np.complex128) - p)


def orthocomplement(p: Projection) -> Projection:
    return Projection(np.eye(p.dim, dtype=np.complex128) - p.matrix)


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


def meet_stack(p: np.ndarray, q: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Validated p ^ q over stacks: the top eigenspace of p + q, counting
    eigenvalues within eig_gap of 2."""
    return validated_projections(_sum_ranges(p + q, 2.0 - pol.eig_gap))


def join_stack(p: np.ndarray, q: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Validated p v q over stacks: the range of p + q, counting eigenvalues
    below eig_gap as zero."""
    return validated_projections(_sum_ranges(p + q, pol.eig_gap))


def meet(p: Projection, q: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> Projection:
    """Projection onto the intersection of the two ranges (see meet_stack)."""
    _check_dims(p, q)
    return Projection(_sum_ranges(p.matrix + q.matrix, 2.0 - pol.eig_gap))


def join(p: Projection, q: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> Projection:
    """Projection onto the span of the union of ranges (see join_stack)."""
    _check_dims(p, q)
    return Projection(_sum_ranges(p.matrix + q.matrix, pol.eig_gap))


def is_atom(p: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True iff the projection has rank one."""
    trace = float(np.trace(p.matrix).real)
    if abs(trace - round(trace)) > pol.eig_gap:
        raise ValueError(f"projection trace {trace!r} is not near an integer rank")
    return p.rank == 1


def orthomodular_holds(
    p: np.ndarray, q: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Over stacks: where p <= q, q == p v (q ^ p_perp); vacuously true
    elsewhere."""
    rebuilt = join_stack(p, meet_stack(q, orthocomplement_stack(p), pol), pol)
    return ~leq_stack(p, q, pol) | (_frobenius_norms(rebuilt - q) < pol.op_tol)


def check_orthomodular(
    p: Projection, q: Projection, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """If p <= q, verify q == p v (q ^ p_perp); vacuously true otherwise."""
    _check_dims(p, q)
    return bool(orthomodular_holds(p.matrix, q.matrix, pol))


def de_morgan_gaps(
    p: np.ndarray, q: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Over stacks: the Frobenius distance between p ^ q and
    (p_perp v q_perp)_perp."""
    dual = join_stack(orthocomplement_stack(p), orthocomplement_stack(q), pol)
    return _frobenius_norms(meet_stack(p, q, pol) - orthocomplement_stack(dual))


def de_morgan_gap(p: Projection, q: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Frobenius distance between p ^ q and (p_perp v q_perp)_perp."""
    _check_dims(p, q)
    return float(de_morgan_gaps(p.matrix, q.matrix, pol))


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
    joins = join_stack(stack[first], stack[second], pol)[pair]
    return gaps, orthomodular_holds(stack[:, None], joins, pol)


def check_covering(
    atom: Projection, p: Projection, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Covering law for an atom over p.

    Either the atom already lies below p, or p v atom sits exactly one rank
    above p. In the lattice of subspaces of a finite-dimensional space the
    rank identity is equivalent to the absence of any strictly intermediate
    projection, so no search over intermediates is needed.
    """
    if not is_atom(atom, pol):
        raise ValueError("first argument must be a rank-one projection")
    _check_dims(atom, p)
    if leq(atom, p, pol):
        return True
    return join(p, atom, pol).rank == p.rank + 1


class PropertyFamily:
    """Finite labelled family of properties on one space.

    The zero and identity projections are adjoined on construction when
    absent. Members are deduplicated with the repo-wide equality notion: a
    projection within op_tol (Frobenius) of an earlier member is dropped
    together with its label.
    """

    def __init__(self, entries, *, dim: int | None = None, pol: TolerancePolicy = DEFAULT_POLICY):
        members: list[Projection] = []
        labels: list[str] = []
        for label, raw in entries:
            if not isinstance(label, str) or not label:
                raise ValueError(f"labels must be nonempty strings, got {label!r}")
            projection = raw if isinstance(raw, Projection) else Projection(raw)
            if dim is None:
                dim = projection.dim
            if projection.dim != dim:
                raise ValueError(
                    f"member {label!r} has dimension {projection.dim}, expected {dim}"
                )
            if label in labels:
                raise ValueError(f"duplicate label {label!r}")
            if any(matrices_close(projection, m, pol) for m in members):
                continue
            labels.append(label)
            members.append(projection)
        if dim is None:
            raise ValueError("cannot build an empty family without an explicit dimension")
        for fallbacks, special in (
            (("0", "zero"), zero_projection(dim)),
            (("I", "identity"), identity_projection(dim)),
        ):
            if any(matrices_close(special, m, pol) for m in members):
                continue
            label = next((name for name in fallbacks if name not in labels), None)
            if label is None:
                raise ValueError(f"no available label for the adjoined {fallbacks[1]} projection")
            labels.append(label)
            members.append(special)
        self._dim = dim
        self._labels = tuple(labels)
        self._members = tuple(members)
        self._by_label = dict(zip(labels, members))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def members(self) -> tuple[Projection, ...]:
        return self._members

    @cached_property
    def projection_stack(self) -> np.ndarray:
        """The member matrices as one read-only (n, d, d) array, in label order."""
        stack = np.stack([member.matrix for member in self._members])
        stack.setflags(write=False)
        return stack

    def pairs(self) -> tuple[tuple[str, Projection], ...]:
        return tuple(zip(self._labels, self._members))

    def get(self, label: str) -> Projection:
        try:
            return self._by_label[label]
        except KeyError:
            raise ValueError(f"unresolved label {label!r}") from None

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, label: str) -> bool:
        return label in self._by_label

    def __repr__(self) -> str:
        return f"PropertyFamily(dim={self._dim}, labels={list(self._labels)!r})"

    def to_json_dict(self) -> dict:
        return {
            "dim": self._dim,
            "members": [
                {"label": label, "matrix": _encode_matrix(member.matrix)}
                for label, member in self.pairs()
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, document: dict, pol: TolerancePolicy = DEFAULT_POLICY) -> "PropertyFamily":
        try:
            dim = _document_dim(document)
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


def _document_dim(document: dict) -> int:
    """The "dim" of a family or state document: an integer, and not a bool."""
    value = document["dim"]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"dim must be an integer, got {value!r}")
    return int(value)


def _encode_matrix(matrix: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _decode_matrix(rows) -> np.ndarray:
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in rows],
        dtype=np.complex128,
    )
