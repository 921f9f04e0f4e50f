"""Projector calculus: properties, compatibility, and state membership.

A property of a system is an orthogonal projector on its Hilbert space
(equivalently, the subspace it projects onto).  A state has the property
when its support lies inside the range, lacks it when the support lies in
the orthogonal complement, and otherwise the property is meaningless for
that state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import Tolerances
from .doubleket import swap_operator
from .linalg import PSD_SLACK, UNIT_SLACK, frob, hermitian


class Verdict(Enum):
    HAS = "has"
    HAS_NOT = "has_not"
    MEANINGLESS = "meaningless"


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of a membership judgment.

    ``overlap`` is ``Tr(P rho)``, attached for diagnostics only; the verdict
    never depends on it.
    """

    verdict: Verdict
    overlap: float


def smaller_side(dim: int, rank: int) -> tuple[int, bool]:
    """How a basis-built rank-``rank`` projector on ``C^dim`` is stored: ``(k, complement)``.

    A projector and its complement answer the same yes/no question, so it is
    stored by a basis of its smaller side, ``k = min(rank, dim - rank)``
    columns: the complement when ``2 rank > dim``, else the range (a tie
    keeps the range), as in the Grassmann coordinates of Edelman, Arias and Smith.
    """
    if 2 * rank > dim:
        return dim - rank, True
    return rank, False


class Property:
    """Orthogonal projector with cached rank.

    A projector from :meth:`from_basis` also keeps the orthonormal columns
    ``basis`` it was built from: it is ``B B^dag``, or ``I - B B^dag`` when
    ``complement``.  A matrix, checked Hermitian and idempotent against the
    fixed ``tol_herm`` and ``tol_recon``, has ``basis`` None.
    """

    __slots__ = ("matrix", "rank", "basis", "complement")

    def __init__(self, matrix):
        m, w = hermitian(matrix, name="property matrix")
        # idempotency bounds each eigenvalue's distance to {0, 1} by 2 (tol_recon + 2 tol_herm)
        if frob(m @ m - m) > Tolerances.tol_recon:
            raise ValueError("property matrix is not idempotent within tolerance")
        self.matrix = m
        self.rank = int(np.sum(w > 0.5))
        self.basis = None
        self.complement = False

    @classmethod
    def from_basis(cls, basis, complement: bool = False) -> "Property":
        """Projector ``B B^dag``, or ``I - B B^dag`` with ``complement``, from orthonormal columns ``B``.

        ``B`` is a ``(dim, cols)`` array with ``cols <= dim``.  Trusted: the
        columns come from an SVD or a unitary, so the Hermiticity and
        idempotency checks are skipped (witnesses built this way
        are replayed instead).  ``B`` may have zero columns: the zero
        projector, or the identity with ``complement``.  Equal ``B`` give equal
        matrices bit for bit, so a printed basis rebuilds the projector used.
        """
        b = np.array(basis, dtype=complex, order="C")
        m = b @ b.conj().T
        if complement:
            m = np.eye(b.shape[0], dtype=complex) - m
        b.setflags(write=False)
        m.setflags(write=False)
        self = object.__new__(cls)
        self.matrix = m
        self.rank = b.shape[0] - b.shape[1] if complement else b.shape[1]
        self.basis = b
        self.complement = bool(complement)
        return self

    @classmethod
    def from_unitary(cls, u: np.ndarray, rank: int) -> "Property":
        """Projector onto the first ``rank`` columns of the unitary ``u``, stored by its :func:`smaller_side`."""
        _, complement = smaller_side(u.shape[0], rank)
        return cls.from_basis(u[:, rank:] if complement else u[:, :rank], complement)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"Property(dim={self.dim}, rank={self.rank})"


class State:
    """Density matrix: Hermitian, positive semidefinite (within ``PSD_SLACK``), unit trace."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m, w = hermitian(matrix, name="state matrix")
        if np.any(w < -PSD_SLACK):
            raise ValueError("state matrix is not positive semidefinite")
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > UNIT_SLACK:
            raise ValueError(f"state trace must be 1, got {tr!r}")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def property_from_span(vectors, dim: int, *, tols: Tolerances = Tolerances()) -> Property:
    """Orthogonal projector onto the span of the given vectors.

    Linearly dependent inputs are harmless; the rank of the result is the
    dimension of the span.  An empty or all-zero list yields the zero
    property, which is trivial by construction.  The result is built by
    :meth:`Property.from_basis`, so ``io.property_to_json_dict`` prints it.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"span dimension must be positive, got {dim}")
    cols = []
    for v in vectors:
        c = np.asarray(v, dtype=complex).reshape(-1)
        if c.size != dim:
            raise ValueError(f"span vector has length {c.size}, expected {dim}")
        n = float(np.linalg.norm(c))
        if n > tols.tol_rank:
            cols.append(c / n)
    if not cols:
        return Property.from_basis(np.zeros((dim, 0)))
    u, s, _ = np.linalg.svd(np.column_stack(cols), full_matrices=False)
    return Property.from_basis(u[:, : int(np.sum(s > tols.tol_rank))])


def is_nontrivial(p: Property) -> bool:
    """True when the projector is neither zero nor the identity."""
    return 0 < p.rank < p.dim


def _check_same_dim(p: Property, q: Property) -> None:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def compatible(p: Property, q: Property) -> tuple[bool, float]:
    """Commutation test; returns (flag, commutator Frobenius norm)."""
    _check_same_dim(p, q)
    norm = frob(p.matrix @ q.matrix - q.matrix @ p.matrix)
    return norm <= Tolerances.tol_compat, norm


def mutually_exclusive(p: Property, q: Property) -> bool:
    """True when PQ = QP = 0, a special case of compatibility."""
    _check_same_dim(p, q)
    return (
        frob(p.matrix @ q.matrix) <= Tolerances.tol_compat
        and frob(q.matrix @ p.matrix) <= Tolerances.tol_compat
    )


def has_property(rho: State, p: Property) -> PropertyCheck:
    """Three-valued membership judgment of a state against a property.

    Support inclusion is tested as ``||P rho P - rho|| <= tol_support``
    rather than by eigendecomposing ``rho``, which avoids rank decisions on
    near-zero state eigenvalues.
    """
    if rho.dim != p.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim} vs property {p.dim}")
    pm, rm = p.matrix, rho.matrix
    overlap = float(np.real(np.trace(pm @ rm)))
    if frob(pm @ rm @ pm - rm) <= Tolerances.tol_support:
        return PropertyCheck(Verdict.HAS, overlap)
    comp = np.eye(p.dim, dtype=complex) - pm
    if frob(comp @ rm @ comp - rm) <= Tolerances.tol_support:
        return PropertyCheck(Verdict.HAS_NOT, overlap)
    return PropertyCheck(Verdict.MEANINGLESS, overlap)


def symmetric_projector(d: int) -> Property:
    """Projector onto the swap-invariant subspace of ``H_d (x) H_d``.

    Rank is ``d (d + 1) / 2``; idempotency follows from the swap operator
    being an involution.
    """
    if d < 2:
        raise ValueError("symmetric projector needs dimension >= 2")
    e = swap_operator(d)
    return Property((np.eye(d * d, dtype=complex) + e) / 2.0)
