"""Amplitude matrices of bipartite pure states, and the swap operator.

A ``d_a x d_b`` matrix ``M`` carries the same data as the state vector
``sum_ij M[i, j] |i>|j>``, flattened row-major so that the correspondence
locks to ``np.kron``'s index convention (first factor slow):

    np.kron(a, b) @ m.reshape(-1) == (a @ m @ b.T).reshape(-1)

with a plain (unconjugated) transpose on ``b``.  The certifier's replay
leans on this identity, and a conformance test guards it.
"""

from __future__ import annotations

import numpy as np

from .linalg import UNIT_SLACK, SystemDims, as_matrix, frob, stacked_singular_values

# Norm below which ``normalized`` refuses to scale: the direction of such a
# matrix is set by the rounding of its entries, not by the data.
NORMALIZE_MIN_NORM = 1e-12


class AmplitudeMatrix:
    """Coefficient matrix of a bipartite pure state, unit Hilbert-Schmidt norm.

    A checked value: the read-only ``matrix`` and its singular values
    (squared, the Schmidt weights), computed at construction by
    :func:`stacked_singular_values`.  Singular subspaces are not kept; the
    certifier computes them for a co-occurring witness alone.
    """

    __slots__ = ("matrix", "singular_values")

    def __init__(self, matrix):
        m = as_matrix(matrix, name="amplitude matrix")
        hs_sq = float(np.vdot(m, m).real)
        if abs(hs_sq - 1.0) > UNIT_SLACK:
            raise ValueError(
                f"amplitude matrix must have unit Hilbert-Schmidt norm, got Tr(m^dag m) = {hs_sq!r}"
            )
        s = stacked_singular_values(m)
        s.setflags(write=False)
        self.matrix = m
        self.singular_values = s

    @classmethod
    def normalized(cls, matrix) -> "AmplitudeMatrix":
        """Build from any nonzero matrix of finite norm by scaling to unit norm."""
        m = as_matrix(matrix, name="amplitude matrix")
        # finite entries can still square past the largest double; no rescaling,
        # so every finite-norm input keeps its bits
        with np.errstate(over="ignore"):
            n = frob(m)
        if not np.isfinite(n):
            raise ValueError("cannot normalize: the norm of the amplitude matrix overflows")
        if n < NORMALIZE_MIN_NORM:
            raise ValueError("cannot normalize a zero matrix")
        return cls(m / n)

    @property
    def dims(self) -> SystemDims:
        return SystemDims(self.matrix.shape[0], self.matrix.shape[1])

    def __repr__(self) -> str:
        d_a, d_b = self.dims
        return f"AmplitudeMatrix({d_a}x{d_b}, schmidt={np.round(self.singular_values, 6)})"


def swap_operator(d: int) -> np.ndarray:
    """Unitary on ``H_d (x) H_d`` exchanging the factors.

    Hermitian, involutory 0/1 permutation matrix with partial trace equal to
    the identity on either side.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    # row a*d + b of the identity moves to b*d + a
    return np.eye(d * d, dtype=complex)[np.arange(d * d).reshape(d, d).T.ravel()]
