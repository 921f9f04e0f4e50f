"""Vectorization calculus pairing bipartite state vectors with matrices.

A ``d_a x d_b`` matrix ``M`` and the vector ``sum_ij M[i, j] |i>|j>`` carry
the same data; flattening is row-major so that the correspondence locks to
``linalg.kron``'s index convention.  The identity everything downstream
leans on is

    kron(a, b) @ vec(m) == vec(a @ m @ b.T)

with a plain (unconjugated) transpose on ``b``.  A conformance test guards
this pairing; if you change one convention you must change both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SystemDims, as_matrix, frob

# Largest |Tr(m^dag m) - 1| an amplitude matrix may carry.  A construction
# check, not a verdict: matrices scaled by ``normalized`` land within ~1e-15,
# and this still admits entries written out to about nine digits.
UNIT_NORM_SLACK = 1e-9
# Norm below which ``normalized`` refuses to scale: the direction of such a
# matrix is set by the rounding of its entries, not by the data.
NORMALIZE_MIN_NORM = 1e-12


@dataclass(frozen=True)
class DoubleKet:
    """Vector on a bipartite space, tagged with its factor dimensions."""

    vector: np.ndarray
    dims: SystemDims

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("double-ket vector contains non-finite entries")
        dims = SystemDims(int(self.dims[0]), int(self.dims[1]))
        if v.size != dims.d_a * dims.d_b:
            raise ValueError(
                f"vector length {v.size} does not match dims {dims.d_a}x{dims.d_b}"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "dims", dims)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


class AmplitudeMatrix:
    """Coefficient matrix of a bipartite pure state, unit Hilbert-Schmidt norm.

    The singular values (squared, the Schmidt weights) are cached at
    construction together with the singular subspaces used by the holism
    certifier.
    """

    __slots__ = ("matrix", "singular_values", "_u", "_v")

    def __init__(self, matrix):
        m = as_matrix(matrix, name="amplitude matrix")
        hs_sq = float(np.vdot(m, m).real)
        if abs(hs_sq - 1.0) > UNIT_NORM_SLACK:
            raise ValueError(
                f"amplitude matrix must have unit Hilbert-Schmidt norm, got Tr(m^dag m) = {hs_sq!r}"
            )
        m = m.copy()
        m.setflags(write=False)
        u, s, vh = np.linalg.svd(m, full_matrices=True)
        s = s.copy()
        s.setflags(write=False)
        self.matrix = m
        self.singular_values = s
        self._u = u
        self._v = vh.conj().T

    @classmethod
    def normalized(cls, matrix) -> "AmplitudeMatrix":
        """Build from any nonzero matrix by scaling to unit norm."""
        m = as_matrix(matrix, name="amplitude matrix")
        n = frob(m)
        if n < NORMALIZE_MIN_NORM:
            raise ValueError("cannot normalize a zero matrix")
        return cls(m / n)

    @property
    def dims(self) -> SystemDims:
        return SystemDims(self.matrix.shape[0], self.matrix.shape[1])

    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached decomposition ``matrix = u @ diag(s) @ v.conj().T``."""
        return self._u, self.singular_values, self._v

    def __repr__(self) -> str:
        d_a, d_b = self.dims
        return f"AmplitudeMatrix({d_a}x{d_b}, schmidt={np.round(self.singular_values, 6)})"


def vec(amp: AmplitudeMatrix) -> DoubleKet:
    """Row-major flattening of the amplitude matrix; a unit vector."""
    return DoubleKet(amp.matrix.reshape(-1), amp.dims)


def unvec(ket: DoubleKet) -> AmplitudeMatrix:
    """Inverse of :func:`vec`; rejects vectors that are not unit norm."""
    return AmplitudeMatrix(np.asarray(ket.vector).reshape(ket.dims))


def swap_operator(d: int) -> np.ndarray:
    """Unitary on ``H_d (x) H_d`` exchanging the factors.

    Hermitian, involutory 0/1 permutation matrix with partial trace equal to
    the identity on either side.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    e = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            e[b * d + a, a * d + b] = 1.0
    return e


def apply_local(a, b, amp: AmplitudeMatrix) -> DoubleKet:
    """Act with ``a (x) b`` on the vectorized amplitude matrix.

    Computed on the matrix side as ``a @ amp @ b.T``; equals the Kronecker
    route ``kron(a, b) @ vec(amp)``.  ``a`` and ``b`` may be rectangular, in
    which case the output dims follow their row counts.
    """
    a = as_matrix(a, name="a")
    b = as_matrix(b, name="b")
    d_a, d_b = amp.dims
    if a.shape[1] != d_a:
        raise ValueError(f"a has {a.shape[1]} columns, expected {d_a}")
    if b.shape[1] != d_b:
        raise ValueError(f"b has {b.shape[1]} columns, expected {d_b}")
    out = a @ amp.matrix @ b.T
    return DoubleKet(out.reshape(-1), SystemDims(a.shape[0], b.shape[0]))
