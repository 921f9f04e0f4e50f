"""Holism certification for rank-1 joint properties.

The joint projector onto a vectorized amplitude matrix commutes with a
factorized projector pair ``P (x) Q`` only in two situations, because the
vectorized amplitude must be an eigenvector of the (idempotent) pair:

* co-occurring solutions, ``P @ amp @ Q.T == amp`` (eigenvalue 1);
* exclusive solutions, ``P @ amp @ Q.T == 0`` (eigenvalue 0).

The certifier decides both branches analytically from the singular value
decomposition of the amplitude matrix and emits explicit, replayable
witnesses.  A joint property with no nontrivial co-occurring witness is
reported as holistic; whether "nontrivial" means one or both factors is a
first-class parameter, since the two readings part ways on rectangular
amplitude matrices.

Witnesses are replayed on the matrix side only, through
``(P (x) Q) vec(amp) == vec(P @ amp @ Q.T)``; no operator on the joint space
is formed.  The composite-space route is kept as a conformance test.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import InvariantViolation, Tolerances, active_tolerances
from .doubleket import AmplitudeMatrix, vec
from .linalg import SystemDims, as_matrix, frob, ginibre, hs_inner
from .properties import Property, is_nontrivial


class NontrivialityConvention(Enum):
    """Which factors of a witness pair must be nontrivial projectors."""

    AT_LEAST_ONE = "atleastone"
    BOTH = "both"

    @classmethod
    def from_flag(cls, flag: str) -> "NontrivialityConvention":
        for member in cls:
            if member.value == flag:
                return member
        raise ValueError(f"unknown convention {flag!r}")


@dataclass(frozen=True)
class ProductProperty:
    """Factorized projector pair ``p (x) q``, nontrivial per the convention."""

    p: Property
    q: Property
    convention: NontrivialityConvention

    def __post_init__(self):
        p_ok = is_nontrivial(self.p)
        q_ok = is_nontrivial(self.q)
        if self.convention is NontrivialityConvention.AT_LEAST_ONE:
            if not (p_ok or q_ok):
                raise ValueError("at least one factor must be a nontrivial projector")
        else:
            if not (p_ok and q_ok):
                raise ValueError("both factors must be nontrivial projectors")


@dataclass(frozen=True)
class HolismVerdict:
    """Result of the analytic certifier for one amplitude matrix.

    ``holistic`` is True exactly when no co-occurring witness exists under
    the declared convention.  ``strictly_no_commuting_product`` additionally
    requires the exclusive branch to be empty, which never happens for
    factor dimensions >= 2.
    """

    lambda1_witness: ProductProperty | None
    lambda0_witness: ProductProperty | None
    holistic: bool
    strictly_no_commuting_product: bool
    rank: int
    dims: SystemDims
    convention: NontrivialityConvention


def make_holistic(amp: AmplitudeMatrix, *, tols: Tolerances | None = None) -> Property:
    """Rank-1 projector onto the vectorized amplitude matrix."""
    v = vec(amp).vector
    return Property(np.outer(v, v.conj()), tols=tols)


def product_commutator_norm(
    amp: AmplitudeMatrix,
    pair: "ProductProperty | tuple[Property, Property]",
    *,
    tols: Tolerances | None = None,
) -> float:
    """Frobenius norm of the commutator of ``p (x) q`` with the joint dyad.

    Computed on the matrix side, without forming any ``d_a d_b``-square
    operator: ``(p (x) q) vec(amp) = vec(W)`` with ``W = p @ amp @ q.T``, and
    with ``c = <amp, W>_HS`` and ``R = W - c amp`` (orthogonal to ``amp``)
    the commutator splits into three orthogonal parts, so

        ||[p (x) q, dyad]||_F^2 = 2 ||R||_F^2 + 4 (Im c)^2

    exactly for unit-norm ``amp``.  Unlike ``2 ||W||^2 - 2 Re(c^2)`` this
    form does not cancel, so it resolves norms far below ``tol_compat``.
    ``tols`` is accepted for signature stability; no threshold applies.

    Accepts a bare ``(p, q)`` tuple as well, since the norm is defined for
    trivial pairs too.
    """
    p, q = (pair.p, pair.q) if isinstance(pair, ProductProperty) else pair
    d_a, d_b = amp.dims
    if p.dim != d_a or q.dim != d_b:
        raise ValueError(
            f"pair dims ({p.dim}, {q.dim}) do not match amplitude dims ({d_a}, {d_b})"
        )
    w = p.matrix @ amp.matrix @ q.matrix.T
    c = complex(np.vdot(amp.matrix, w))
    return float(np.sqrt(2.0 * frob(w - c * amp.matrix) ** 2 + 4.0 * c.imag * c.imag))


def certify_rank1(
    amp: AmplitudeMatrix,
    convention: NontrivialityConvention = NontrivialityConvention.AT_LEAST_ONE,
    *,
    tols: Tolerances | None = None,
) -> HolismVerdict:
    """Decide whether the joint dyad commutes with any nontrivial pair.

    Rank decisions come from the singular values against ``tol_rank``; with
    ``r = rank(amp)``:

    * Co-occurring branch.  Solutions of ``P @ amp @ Q.T == amp`` force
      ``P`` to contain the column space and ``Q.T`` the row space, so the
      minimal solution projects onto the leading singular subspaces.  It is
      reported iff the declared convention can be met, i.e. ``r < d_a`` or
      ``r < d_b`` (at-least-one) resp. ``r < d_a`` and ``r < d_b`` (both).
    * Exclusive branch.  For ``d_a, d_b >= 2`` a both-nontrivial pair always
      exists: take the first canonical basis column with a nonzero image,
      project onto it on the right and onto the image's orthogonal
      complement on the left.

    Every reported witness is replayed through
    :func:`product_commutator_norm`; a replay above ``tol_compat`` raises
    :class:`InvariantViolation`.
    """
    tols = tols or active_tolerances()
    d_a, d_b = amp.dims
    if d_a < 2 or d_b < 2:
        raise ValueError("holism certification needs both factor dimensions >= 2")
    u, s, v = amp.svd()
    r = int(np.sum(s > tols.tol_rank))

    if convention is NontrivialityConvention.AT_LEAST_ONE:
        lambda1_exists = r < d_a or r < d_b
    else:
        lambda1_exists = r < d_a and r < d_b

    lambda1 = None
    if lambda1_exists:
        ur = u[:, :r]
        vr = v[:, :r]
        p1 = Property(ur @ ur.conj().T, tols=tols)
        q1 = Property((vr @ vr.conj().T).T.copy(), tols=tols)
        lambda1 = ProductProperty(p1, q1, convention)

    lambda0 = _exclusive_witness(amp, convention, tols)

    for witness in (lambda1, lambda0):
        if witness is None:
            continue
        replay = product_commutator_norm(amp, witness, tols=tols)
        if replay > tols.tol_compat:
            raise InvariantViolation(
                f"witness replay failed: commutator norm {replay!r} > {tols.tol_compat!r}"
            )

    return HolismVerdict(
        lambda1_witness=lambda1,
        lambda0_witness=lambda0,
        holistic=lambda1 is None,
        strictly_no_commuting_product=lambda1 is None and lambda0 is None,
        rank=r,
        dims=SystemDims(d_a, d_b),
        convention=convention,
    )


def _exclusive_witness(
    amp: AmplitudeMatrix, convention: NontrivialityConvention, tols: Tolerances
) -> ProductProperty:
    """Both-nontrivial pair with ``P @ amp @ Q.T == 0``, built deterministically."""
    d_a, d_b = amp.dims
    col = None
    for j in range(d_b):
        if np.linalg.norm(amp.matrix[:, j]) > tols.tol_rank:
            col = j
            break
    if col is None:
        # unreachable for unit-norm amplitudes; keep the contract total
        p = np.zeros((d_a, d_a), dtype=complex)
        p[0, 0] = 1.0
        q = np.zeros((d_b, d_b), dtype=complex)
        q[0, 0] = 1.0
        return ProductProperty(Property(p, tols=tols), Property(q, tols=tols), convention)
    image = amp.matrix[:, col]
    image = image / np.linalg.norm(image)
    p = np.eye(d_a, dtype=complex) - np.outer(image, image.conj())
    q = np.zeros((d_b, d_b), dtype=complex)
    q[col, col] = 1.0
    return ProductProperty(Property(p, tols=tols), Property(q, tols=tols), convention)


def _project_out(residual: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Remove the HS components along an orthonormal ``basis``.

    Two passes, so orthogonality holds at machine precision.
    """
    for _ in range(2):
        for b in basis:
            residual = residual - hs_inner(b, residual) * b
    return residual


def gram_schmidt_hs(
    candidates, dims: SystemDims, *, tols: Tolerances | None = None
) -> list[AmplitudeMatrix]:
    """Orthonormalize matrices under the Hilbert-Schmidt inner product.

    Linearly dependent inputs are dropped with a warning; an input list
    that spans nothing raises.
    """
    tols = tols or active_tolerances()
    d_a, d_b = int(dims[0]), int(dims[1])
    basis: list[np.ndarray] = []
    dropped = 0
    for cand in candidates:
        m = as_matrix(cand, name="seed matrix")
        if m.shape != (d_a, d_b):
            raise ValueError(f"seed matrix has shape {m.shape}, expected ({d_a}, {d_b})")
        residual = _project_out(m.astype(complex), basis)
        norm = frob(residual)
        if norm <= tols.tol_rank * max(1.0, frob(m)):
            dropped += 1
            continue
        basis.append(residual / norm)
    if dropped:
        warnings.warn(f"dropped {dropped} linearly dependent seed matrix(es)")
    if not basis:
        raise ValueError("seed matrices span nothing")
    return [AmplitudeMatrix(b) for b in basis]


def lattice_amplitudes(
    amp: AmplitudeMatrix, k: int, rng_seed: int, *, tols: Tolerances | None = None
) -> list[AmplitudeMatrix]:
    """Extend ``amp`` to ``k`` HS-orthonormal amplitude matrices.

    The completion is a seeded random draw, orthogonalized against the
    family built so far; results are reproducible given ``rng_seed``.
    """
    tols = tols or active_tolerances()
    d_a, d_b = amp.dims
    total = d_a * d_b
    if not 1 <= k <= total:
        raise ValueError(f"k must be between 1 and {total}, got {k}")
    rng = np.random.default_rng(rng_seed)
    family: list[np.ndarray] = [amp.matrix.astype(complex)]
    while len(family) < k:
        residual = _project_out(ginibre(amp.dims, rng), family)
        norm = frob(residual)
        if norm > 1e-6:  # dependent draws are measure zero; redraw otherwise
            family.append(residual / norm)
    return [AmplitudeMatrix(m) for m in family]


def holistic_lattice(
    amp: AmplitudeMatrix, k: int, rng_seed: int, *, tols: Tolerances | None = None
) -> list[Property]:
    """``k`` pairwise mutually exclusive rank-1 joint properties seeded by ``amp``.

    Built on HS-orthonormal amplitude matrices, so the members commute
    pairwise and for ``k == d_a * d_b`` they resolve the identity.
    """
    return [
        make_holistic(member, tols=tols)
        for member in lattice_amplitudes(amp, k, rng_seed, tols=tols)
    ]


def marginal_entropy(amp: AmplitudeMatrix) -> tuple[float, float]:
    """Von Neumann entropies (joint state, one-sided marginal), natural log.

    The joint dyad is pure, so the first entry is zero; the marginal
    entropy is computed from the Schmidt weights with ``0 ln 0 := 0``.
    """
    weights = amp.singular_values.astype(float) ** 2
    weights = weights[weights > 1e-15]
    s_part = float(-np.sum(weights * np.log(weights)))
    return 0.0, s_part
