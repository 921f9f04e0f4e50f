"""Dense complex linear algebra at small dimension.

Plain complex numpy arrays are the carrier for every operator in the
library; the wrappers here hold the array rules every checked type shares:
the validated read-only copy, the Hermitian check, the construction slack,
the size and seed rules and the Ginibre draw.
Index conventions are fixed once: Kronecker products are row-major with the
first factor slow, i.e. ``np.kron(a, b)`` maps the basis pair ``(i, k),
(j, l)`` to entry ``(i * rows_b + k, j * cols_b + l)``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import Tolerances

# Slack of the construction checks against 1: the squared norm of an
# amplitude matrix, the trace of a state (both exactly 1) and the top
# eigenvalue of sum K^dag K (at most 1).  Not a verdict thresholded by
# ``Tolerances``: built in floating point such a quantity lands within
# ~1e-15 of 1, and this still admits entries written to about nine digits.
UNIT_SLACK = 1e-9
# Slack of the positivity checks of a state and a Choi matrix, also fixed:
# their zero eigenvalues come out of eigvalsh near -1e-16, and this still
# admits entries written to about seven digits.
PSD_SLACK = 1e-7


class SystemDims(NamedTuple):
    """Dimensions of the two tensor factors of a bipartite system."""

    d_a: int
    d_b: int


def as_sizes(values) -> tuple[int, ...]:
    """``values`` as ints, rejecting with ``ValueError`` any that ``int()`` would change.

    ``int()`` truncates 2.7, takes True as 1 and parses "2"; a size must
    already be an integer, as a Python or numpy int or an integral float.
    """
    try:
        sizes = tuple(map(int, values))
        exact = sizes == tuple(values) and not any(isinstance(v, (bool, np.bool_)) for v in values)
    except (TypeError, ValueError, OverflowError):  # int(None), int("a"), int(inf)
        exact = False
    if not exact:
        raise ValueError(f"sizes must be integers, got {'x'.join(map(repr, values))}")
    return sizes


def as_seed(value) -> int:
    """A random seed: an int under the rule of :func:`as_sizes`, and not negative."""
    (seed,) = as_sizes((value,))
    if seed < 0:
        raise ValueError(f"seeds must be non-negative, got {seed}")
    return seed


def as_matrix(value, *, name: str = "matrix") -> np.ndarray:
    """Read-only 2-D complex copy of ``value``, rejecting non-finite entries.

    The copy is frozen, so a checked type that stores it cannot be changed
    through the caller's array or through its own attribute.
    """
    m = np.array(value, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    m.setflags(write=False)
    return m


def hermitian(value, *, name: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`as_matrix` of a square matrix Hermitian within ``Tolerances.tol_herm``, and its eigenvalues.

    The eigenvalues are ``eigvalsh`` of the Hermitian part ``(m + m^dag) / 2``.
    """
    m = as_matrix(value, name=name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    if frob(m - m.conj().T) > Tolerances.tol_herm:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return m, np.linalg.eigvalsh((m + m.conj().T) / 2.0)


def frob(a) -> float:
    """Frobenius (Hilbert-Schmidt) norm."""
    return float(np.linalg.norm(np.asarray(a)))


def stacked_singular_values(stack) -> np.ndarray:
    """Singular values of each matrix of a ``(..., m, n)`` stack, descending.

    The values-only LAPACK route: it gives each matrix the same bits in a
    stack as alone.  Every Schmidt coefficient of the library comes from it;
    ``properties.property_from_span`` cuts its span rank on a thin SVD's.
    """
    return np.linalg.svd(stack, compute_uv=False)


def partial_trace(m, dims: SystemDims, which: str = "first") -> np.ndarray:
    """Trace out one tensor factor of an operator on a bipartite space.

    ``which="first"`` returns the ``d_b x d_b`` operator left after tracing
    the first factor; ``which="second"`` the ``d_a x d_a`` one.
    """
    m = as_matrix(m)
    d_a, d_b = as_sizes(dims)
    n = d_a * d_b
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for dims {d_a}x{d_b}, got {m.shape}")
    t = m.reshape(d_a, d_b, d_a, d_b)
    if which == "first":
        return np.einsum("ijik->jk", t)
    if which == "second":
        return np.einsum("ijkj->ik", t)
    raise ValueError("which must be 'first' or 'second'")


def ginibre(dims: SystemDims, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Matrix of i.i.d. standard complex Gaussian entries, or a ``(count, d_a, d_b)`` stack of them.

    Each matrix takes one ``(2, d_a, d_b)`` block of ``rng``: real parts,
    then imaginary parts, over ``sqrt(2)``.  So a stack of ``count`` equals
    ``count`` successive single draws bit for bit.
    """
    shape = as_sizes(dims)
    block = rng.standard_normal((2, *shape) if count is None else (count, 2, *shape))
    return (block[..., 0, :, :] + 1j * block[..., 1, :, :]) / np.sqrt(2.0)
