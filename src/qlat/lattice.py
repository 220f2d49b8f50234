"""Projection lattice: order, meet, join, orthocomplement, checkers for the
structural laws, and labelled property families with JSON serialization."""

from __future__ import annotations

import json

import numpy as np

from .numerics import (
    DEFAULT_POLICY,
    Projection,
    TolerancePolicy,
    frobenius_distance,
    identity_projection,
    matrices_close,
    zero_projection,
)

__all__ = [
    "leq",
    "meet",
    "join",
    "orthocomplement",
    "is_atom",
    "check_orthomodular",
    "check_covering",
    "de_morgan_gap",
    "PropertyFamily",
]


def _check_dims(p: Projection, q: Projection) -> None:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def leq(p: Projection, q: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Range inclusion: p <= q iff q @ p == p within op_tol."""
    _check_dims(p, q)
    return float(np.linalg.norm(q.matrix @ p.matrix - p.matrix)) < pol.op_tol


def orthocomplement(p: Projection) -> Projection:
    return Projection(np.eye(p.dim, dtype=np.complex128) - p.matrix)


def _sum_eigenspace(p: Projection, q: Projection, floor: float) -> Projection:
    """Projection onto the eigenvectors of p + q with eigenvalue above floor.

    The spectrum of p + q lies in [0, 2]: range(p) & range(q) is the
    eigenspace of 2 and range(p) + range(q) the range. An eigenbasis is
    rank-revealing, so both stay stable for nearly parallel subspaces.
    """
    _check_dims(p, q)
    eigenvalues, eigenvectors = np.linalg.eigh(p.matrix + q.matrix)
    return Projection.from_basis(eigenvectors[:, eigenvalues > floor])


def meet(p: Projection, q: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> Projection:
    """Projection onto the intersection of the two ranges: the top eigenspace
    of p + q, counting eigenvalues within eig_gap of 2."""
    return _sum_eigenspace(p, q, 2.0 - pol.eig_gap)


def join(p: Projection, q: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> Projection:
    """Projection onto the span of the union of ranges: the range of p + q,
    counting eigenvalues below eig_gap as zero."""
    return _sum_eigenspace(p, q, pol.eig_gap)


def is_atom(p: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True iff the projection has rank one."""
    trace = float(np.trace(p.matrix).real)
    if abs(trace - round(trace)) > pol.eig_gap:
        raise ValueError(f"projection trace {trace!r} is not near an integer rank")
    return p.rank == 1


def check_orthomodular(
    p: Projection, q: Projection, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """If p <= q, verify q == p v (q ^ p_perp); vacuously true otherwise."""
    if not leq(p, q, pol):
        return True
    rebuilt = join(p, meet(q, orthocomplement(p), pol), pol)
    return matrices_close(rebuilt, q, pol)


def de_morgan_gap(p: Projection, q: Projection, pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Frobenius distance between p ^ q and (p_perp v q_perp)_perp."""
    return frobenius_distance(
        meet(p, q, pol), orthocomplement(join(orthocomplement(p), orthocomplement(q), pol))
    )


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
            dim = int(document["dim"])
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


def _encode_matrix(matrix: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _decode_matrix(rows) -> np.ndarray:
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in rows],
        dtype=np.complex128,
    )
