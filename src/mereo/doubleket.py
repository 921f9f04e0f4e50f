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

from .linalg import SystemDims, as_matrix, frob, stacked_singular_values

# Largest |Tr(m^dag m) - 1| an amplitude matrix may carry.  A construction
# check, not a verdict: matrices scaled by ``normalized`` land within ~1e-15,
# and this still admits entries written out to about nine digits.
UNIT_NORM_SLACK = 1e-9
# Norm below which ``normalized`` refuses to scale: the direction of such a
# matrix is set by the rounding of its entries, not by the data.
NORMALIZE_MIN_NORM = 1e-12


class AmplitudeMatrix:
    """Coefficient matrix of a bipartite pure state, unit Hilbert-Schmidt norm.

    The singular values (squared, the Schmidt weights) are computed at
    construction by :func:`stacked_singular_values`; the singular subspaces
    only on the first :meth:`svd` call, which the certifier makes for a
    co-occurring witness alone.
    """

    __slots__ = ("matrix", "singular_values", "_u", "_v")

    def __init__(self, matrix):
        m = as_matrix(matrix, name="amplitude matrix")
        hs_sq = float(np.vdot(m, m).real)
        if abs(hs_sq - 1.0) > UNIT_NORM_SLACK:
            raise ValueError(
                f"amplitude matrix must have unit Hilbert-Schmidt norm, got Tr(m^dag m) = {hs_sq!r}"
            )
        s = stacked_singular_values(m)
        s.setflags(write=False)
        self.matrix = m
        self.singular_values = s
        self._u = self._v = None

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

    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decomposition ``matrix = u @ diag(s) @ v.conj().T``, ``u`` and ``v`` computed once, read-only.

        ``s`` is :attr:`singular_values`; the full SVD's own values may differ
        from it in the last bit and are dropped.
        """
        if self._u is None:
            u, _, vh = np.linalg.svd(self.matrix, full_matrices=True)
            v = vh.conj().T
            u.setflags(write=False)
            v.setflags(write=False)
            self._u, self._v = u, v
        return self._u, self.singular_values, self._v

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
    e = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            e[b * d + a, a * d + b] = 1.0
    return e
