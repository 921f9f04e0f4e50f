"""Vectorization helpers that only the tests use, as references.

A ``d_a x d_b`` matrix ``M`` and the vector ``sum_ij M[i, j] |i>|j>`` carry
the same data; flattening is row-major so that the correspondence locks to
the Kronecker convention of ``kron`` (first factor slow).  The identity the
library's matrix-side replay leans on is

    kron(a, b) @ vec(m) == vec(a @ m @ b.T)

with a plain (unconjugated) transpose on ``b``.  ``tests/test_doubleket.py``
guards this pairing; if you change one convention you must change both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mereo import AmplitudeMatrix, SystemDims
from mereo.linalg import as_matrix


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


def vec(amp: AmplitudeMatrix) -> DoubleKet:
    """Row-major flattening of the amplitude matrix; a unit vector."""
    return DoubleKet(amp.matrix.reshape(-1), amp.dims)


def unvec(ket: DoubleKet) -> AmplitudeMatrix:
    """Inverse of :func:`vec`; rejects vectors that are not unit norm."""
    return AmplitudeMatrix(np.asarray(ket.vector).reshape(ket.dims))


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


def kron(a, b) -> np.ndarray:
    """Kronecker product of two validated matrices, first factor slow."""
    return np.kron(as_matrix(a, name="a"), as_matrix(b, name="b"))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product ``Tr(a^dag b)``."""
    a = as_matrix(a, name="a")
    b = as_matrix(b, name="b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))
