"""Dense complex linear algebra at small dimension.

Plain complex numpy arrays are the carrier for every operator in the
library; the wrappers here add the shape/finiteness validation the rest of
the code relies on.  Index conventions are fixed once: Kronecker products
are row-major with the first factor slow, i.e. ``kron(a, b)`` maps the
basis pair ``(i, k), (j, l)`` to entry ``(i * rows_b + k, j * cols_b + l)``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class SystemDims(NamedTuple):
    """Dimensions of the two tensor factors of a bipartite system."""

    d_a: int
    d_b: int


def as_matrix(value, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    m = np.asarray(value, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def frob(a) -> float:
    """Frobenius (Hilbert-Schmidt) norm."""
    return float(np.linalg.norm(np.asarray(a)))


def kron(a, b) -> np.ndarray:
    return np.kron(as_matrix(a, name="a"), as_matrix(b, name="b"))


def partial_trace(m, dims: SystemDims, which: str = "first") -> np.ndarray:
    """Trace out one tensor factor of an operator on a bipartite space.

    ``which="first"`` returns the ``d_b x d_b`` operator left after tracing
    the first factor; ``which="second"`` the ``d_a x d_a`` one.
    """
    m = as_matrix(m)
    d_a, d_b = int(dims[0]), int(dims[1])
    n = d_a * d_b
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for dims {d_a}x{d_b}, got {m.shape}")
    t = m.reshape(d_a, d_b, d_a, d_b)
    if which == "first":
        return np.einsum("ijik->jk", t)
    if which == "second":
        return np.einsum("ijkj->ik", t)
    raise ValueError("which must be 'first' or 'second'")


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product ``Tr(a^dag b)``."""
    a = as_matrix(a, name="a")
    b = as_matrix(b, name="b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def ginibre(dims: SystemDims, rng: np.random.Generator) -> np.ndarray:
    """Matrix of i.i.d. standard complex Gaussian entries."""
    d_a, d_b = int(dims[0]), int(dims[1])
    return (rng.standard_normal((d_a, d_b)) + 1j * rng.standard_normal((d_a, d_b))) / np.sqrt(2.0)
