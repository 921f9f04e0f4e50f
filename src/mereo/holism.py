"""Holism certification for rank-1 joint properties.

The joint projector onto a vectorized amplitude matrix commutes with a
factorized projector pair ``P (x) Q`` only in two situations, because the
vectorized amplitude must be an eigenvector of the (idempotent) pair:

* co-occurring solutions, ``P @ amp @ Q.T == amp`` (eigenvalue 1);
* exclusive solutions, ``P @ amp @ Q.T == 0`` (eigenvalue 0).

The certifier decides both branches analytically from the singular value
decomposition of the amplitude matrix.  A joint property with no
nontrivial co-occurring witness is reported as holistic; whether
"nontrivial" means one or both factors is a first-class parameter, since
the two readings part ways on rectangular amplitude matrices.

The input and the Schmidt rank fix both witnesses, so each is named by a
recipe: the leading singular subspaces of rank ``r``, or the image of
column ``j``.  :func:`certify` computes the rank, the one full SVD, both
witnesses and their replays once per amplitude, and decides every
convention asked of it from them: each convention adds only its rank rule
and its check that the witness factors are nontrivial.

Witnesses are replayed on the matrix side only, through
``(P (x) Q) vec(amp) == vec(P @ amp @ Q.T)``; no operator on the joint space
is formed.  The composite-space route is kept as a conformance test.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .config import InvariantViolation, Tolerances
from .doubleket import AmplitudeMatrix
from .linalg import SystemDims, as_seed, as_sizes, frob, ginibre
from .properties import Property, is_nontrivial

# A lattice completion draw whose QR diagonal entry |R_jj| (the norm of its
# residual against the family before it) is at or below this has lost most of
# its digits to cancellation.  Dependent draws are measure zero, so such a
# draw is skipped for the next one of the stream, not normalized.
LATTICE_REDRAW_NORM = 1e-6
# Schmidt weights at or below this are left out of the marginal entropy:
# weights that vanish in exact arithmetic come out of the SVD near 1e-32, not
# 0, and w ln w is at most 3.5e-14 in magnitude here, so 0 ln 0 := 0 holds.
ENTROPY_WEIGHT_CUT = 1e-15


class NontrivialityConvention(Enum):
    """Which factors of a witness pair must be nontrivial projectors.

    :meth:`admits` is the one definition of the rule: the rank rule of
    :func:`holistic_at_rank` and the witness check of :func:`certify`
    both call it.
    """

    AT_LEAST_ONE = "atleastone"
    BOTH = "both"

    def admits(self, p_nontrivial, q_nontrivial):
        """Whether a pair whose factors are nontrivial as flagged counts, elementwise."""
        if self is NontrivialityConvention.AT_LEAST_ONE:
            return p_nontrivial | q_nontrivial
        return p_nontrivial & q_nontrivial


class Witness(NamedTuple):
    """A factorized projector pair ``p (x) q`` and what its replay measured.

    ``commutator_norm`` is the norm of the pair's commutator with the joint
    dyad and ``cooccurrence_weight`` is ``||p @ amp @ q.T||_F``, both from
    the one product of :func:`product_commutator_norm`.  ``recipe`` is the
    JSON record that names how a certifier witness is rebuilt from ``amp``
    (see :func:`certify`); it is None for a pair that no recipe
    fixes, such as a search argmin.
    """

    p: Property
    q: Property
    commutator_norm: float
    cooccurrence_weight: float
    recipe: dict | None = None


@dataclass(frozen=True, eq=False)
class HolismVerdict:
    """Result of the analytic certifier for one amplitude matrix; ``==`` is identity.

    ``holistic`` is True exactly when no co-occurring witness exists under
    the declared convention.  An exclusive witness always exists for factor
    dimensions >= 2, so ``lambda0_witness`` is never None and no amplitude
    is strictly free of commuting products.  Each :class:`Witness` holds the
    replay it passed.
    """

    lambda1_witness: Witness | None
    lambda0_witness: Witness
    holistic: bool
    rank: int
    dims: SystemDims
    convention: NontrivialityConvention


def make_holistic(amp: AmplitudeMatrix) -> Property:
    """Rank-1 projector onto the row-major vectorized amplitude matrix."""
    v = amp.matrix.reshape(-1)
    return Property(np.outer(v, v.conj()))


def commutator_norm_sq(amp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``||[X, dyad]||_F^2``, ``X`` Hermitian, from ``vec(W) = X vec(amp)``, over ``w``'s leading axes.

    For a pair, ``X = P (x) Q`` and ``W = P @ amp @ Q.T``.  With ``a =
    vec(amp)`` (unit norm), ``c = <a, vec(W)>`` and ``r = vec(W) - c a``,
    orthogonal to ``a``, ``a^dag X = vec(W)^dag`` gives ``[X, a a^dag] =
    2i (Im c) a a^dag + r a^dag - a r^dag``: three HS-orthogonal terms, so

        ||[X, a a^dag]||_F^2 = 2 ||W - c amp||_F^2 + 4 (Im c)^2.

    No idempotency is assumed, and nothing cancels: a small norm comes from
    a small residual.  Each row is computed alone (``np.vecdot``).
    """
    a = amp.reshape(-1)
    x = w.reshape(w.shape[:-2] + (-1,))
    c = np.vecdot(a, x)
    r = x - c[..., None] * a
    return 2.0 * np.vecdot(r, r).real + 4.0 * c.imag * c.imag


def commutator_norm_sq_from_n2(n2):
    """:func:`commutator_norm_sq` of a projector pair in ``n2 = ||W||_F^2``: ``2 (n2 - n2^2)``.

    ``X^2 = X = X^dag`` gives ``c = ||X a||^2 = n2`` and ``||r||^2 = n2 - n2^2``.
    Kept where ``W`` has rank one and is never formed: the search kernel at
    rank-1 factors, the Bloch grid and the lattice tables (``n2 = |g_ij|^2``).
    It cancels as ``n2 -> 1``, which at ranks (1, 1) takes a nearly product
    amplitude (``n2`` is at most the top squared singular value).
    """
    return 2.0 * (n2 - n2 * n2)


def product_commutator_norm(amp: AmplitudeMatrix, p: Property, q: Property) -> Witness:
    """Replay of the pair ``p (x) q`` against the joint dyad of ``amp``.

    :func:`commutator_norm_sq` of ``W = p @ amp @ q.T``: the measured norm of
    the matrices the pair holds, with no ``d_a d_b``-square operator formed.
    It resolves norms far below ``tol_compat`` and is defined for trivial
    pairs too.  The :class:`Witness` adds ``||W||_F`` from the same product.
    """
    d_a, d_b = amp.dims
    if p.dim != d_a or q.dim != d_b:
        raise ValueError(f"pair dims ({p.dim}, {q.dim}) do not match amplitude dims ({d_a}, {d_b})")
    w = p.matrix @ amp.matrix @ q.matrix.T
    return Witness(p, q, float(np.sqrt(commutator_norm_sq(amp.matrix, w))), frob(w))


def schmidt_rank(s, tols: Tolerances):
    """Number of singular values above ``tol_rank``, along the last axis of ``s``."""
    return np.sum(np.asarray(s) > tols.tol_rank, axis=-1)


def holistic_at_rank(rank, dims, convention: NontrivialityConvention):
    """Whether no co-occurring witness exists at Schmidt rank ``rank``, elementwise.

    The witness on the leading ``r`` singular subspaces has a nontrivial
    factor on a side iff ``r`` is below that side's dimension, so one exists
    iff ``convention`` admits ``(r < d_a, r < d_b)``.  Rank 0 and factor
    dimensions below 2 are input errors.
    """
    d_a, d_b = as_sizes(dims)
    if d_a < 2 or d_b < 2:
        raise ValueError("holism certification needs both factor dimensions >= 2")
    rank = np.asarray(rank)
    if np.any(rank < 1):
        raise ValueError("no singular value above tol_rank: the amplitude has rank 0 at this tolerance")
    return ~convention.admits(rank < d_a, rank < d_b)


def certify(amp: AmplitudeMatrix, conventions, *, tols: Tolerances = Tolerances()) -> tuple[HolismVerdict, ...]:
    """One :class:`HolismVerdict` per convention, in order, from one rank and one replay per witness.

    Each verdict is :func:`holistic_at_rank` at the Schmidt rank ``r =
    schmidt_rank(s)``; when it is not holistic, the co-occurring witness
    settles it.  That witness projects onto the leading ``r`` singular
    subspaces: solutions of ``P @ amp @ Q.T == amp`` contain the column and
    row spaces.  It is built, from the one full SVD of ``amp``, only when
    some convention admits it.  An exclusive witness always exists.  Each
    witness carries its ``recipe``: ``leading_singular_subspaces`` of rank
    ``r``, or the ``column_image`` of column ``j`` (:func:`_exclusive_witness`).

    Every witness is replayed once through :func:`product_commutator_norm`;
    one whose replay exceeds ``tol_compat`` raises :class:`InvariantViolation`.
    The co-occurring bound adds ``sqrt(2) ||s[r:]||``, since truncating
    ``s[r:]`` leaves the residual ``sqrt(2 delta (1 - delta))``, ``delta =
    ||s[r:]||^2``.  A reported witness whose factors are not nontrivial
    under its convention raises :class:`InvariantViolation`.
    """
    s = amp.singular_values
    r = int(schmidt_rank(s, tols))
    holistic = [bool(holistic_at_rank(r, amp.dims, conv)) for conv in conventions]
    lambda1 = None
    if not all(holistic):
        # Q = (V_r V_r^dag)^T projects onto the columns of conj(V_r) = vh.T
        u, _, vh = np.linalg.svd(amp.matrix)
        bound = Tolerances.tol_compat + float(np.sqrt(2.0) * frob(s[r:]))
        lambda1 = _replayed(amp, Property.from_unitary(u, r), Property.from_unitary(vh.T, r), bound,
                            {"kind": "leading_singular_subspaces", "rank": r})
    col = _exclusive_column(amp, tols)
    lambda0 = _replayed(amp, *_exclusive_witness(amp, col), Tolerances.tol_compat,
                        {"kind": "column_image", "column": col})
    verdicts = []
    for conv, conv_holistic in zip(conventions, holistic):
        conv_lambda1 = None if conv_holistic else lambda1
        for witness in filter(None, (conv_lambda1, lambda0)):
            p, q = witness.p, witness.q
            if not conv.admits(is_nontrivial(p), is_nontrivial(q)):
                raise InvariantViolation(
                    f"witness factors of ranks ({p.rank}, {q.rank}) in dims ({p.dim}, {q.dim}) "
                    f"are not nontrivial under {conv.value}"
                )
        verdicts.append(HolismVerdict(
            lambda1_witness=conv_lambda1,
            lambda0_witness=lambda0,
            holistic=conv_holistic,
            rank=r,
            dims=amp.dims,
            convention=conv,
        ))
    return tuple(verdicts)


def _replayed(amp: AmplitudeMatrix, p: Property, q: Property, bound: float, recipe: dict) -> Witness:
    witness = product_commutator_norm(amp, p, q)
    if witness.commutator_norm > bound:
        raise InvariantViolation(
            f"witness replay failed: commutator norm {witness.commutator_norm!r} > {bound!r}"
        )
    return witness._replace(recipe=recipe)


def certify_rank1(
    amp: AmplitudeMatrix,
    convention: NontrivialityConvention = NontrivialityConvention.AT_LEAST_ONE,
    *,
    tols: Tolerances = Tolerances(),
) -> HolismVerdict:
    """Whether the joint dyad commutes with any nontrivial pair: :func:`certify` under one convention."""
    return certify(amp, (convention,), tols=tols)[0]


def _exclusive_column(amp: AmplitudeMatrix, tols: Tolerances) -> int:
    """The first column with norm above ``tol_rank``, else the longest (nonzero for unit-norm ``amp``)."""
    col = next((j for j in range(amp.dims[1]) if np.linalg.norm(amp.matrix[:, j]) > tols.tol_rank), None)
    return int(np.argmax(np.linalg.norm(amp.matrix, axis=0))) if col is None else col


def _exclusive_witness(amp: AmplitudeMatrix, col: int) -> tuple[Property, Property]:
    """Both-nontrivial pair ``(P, Q)`` with ``P @ amp @ Q.T == 0``, from column ``col``.

    ``Q = e_col e_col^T`` keeps the unit vector ``e_col``, and ``P = I - c c^dag``
    keeps ``c``, the normalized image ``amp[:, col]``, as its complement.
    """
    image = amp.matrix[:, col]
    image = image / np.linalg.norm(image)
    e_col = np.zeros((amp.dims[1], 1), dtype=complex)
    e_col[col, 0] = 1.0
    return Property.from_basis(image[:, None], complement=True), Property.from_basis(e_col)


def lattice_amplitudes(amp: AmplitudeMatrix, k: int, rng_seed: int) -> np.ndarray:
    """Extend ``amp`` to ``k`` HS-orthonormal amplitude matrices, stacked.

    Stream contract: draw ``j`` is the ``j``-th :func:`ginibre` matrix of one
    PCG64 stream seeded by ``rng_seed``.
    The columns ``[vec(amp), draws]`` are factored by one Householder QR,
    with each column's phase fixed so that ``R`` has a positive real
    diagonal, as Gram-Schmidt in stream order gives.  A draw dependent on
    the columns before it is skipped and the next draw of the stream takes
    its place.

    Returns a read-only ``(k, d_a, d_b)`` complex array; member 0 is
    ``amp.matrix`` bit for bit.  Members are not wrapped in
    :class:`AmplitudeMatrix`: take their singular values from one
    ``linalg.stacked_singular_values`` call.
    """
    d_a, d_b = amp.dims
    total = d_a * d_b
    (k,) = as_sizes((k,))
    if not 1 <= k <= total:
        raise ValueError(f"k must be between 1 and {total}, got {k}")
    rng = np.random.default_rng(as_seed(rng_seed))

    def draws(n: int) -> np.ndarray:
        return ginibre(amp.dims, rng, n).reshape(n, total).T

    x = np.column_stack([amp.matrix.reshape(-1), draws(k - 1)])
    while True:
        q, r = np.linalg.qr(x)
        diag = np.diagonal(r)
        dependent = np.flatnonzero(np.abs(diag) <= LATTICE_REDRAW_NORM)
        if dependent.size == 0:
            break
        # skip the first dependent draw only: the draws after it are judged
        # against a family without it, as Gram-Schmidt judges them
        x = np.column_stack([np.delete(x, dependent[0], axis=1), draws(1)])
    members = (q * (diag / np.abs(diag))).T.reshape(k, d_a, d_b)
    members[0] = amp.matrix
    members.setflags(write=False)
    return members


def marginal_entropy(amp: AmplitudeMatrix) -> tuple[float, float]:
    """Von Neumann entropies (joint state, one-sided marginal), natural log.

    The joint dyad is pure, so the first entry is zero; the marginal
    entropy is computed from the Schmidt weights with ``0 ln 0 := 0``.
    """
    weights = amp.singular_values.astype(float) ** 2
    weights = weights[weights > ENTROPY_WEIGHT_CUT]
    # 0.0 - x, not -x: a zero sum (rank 1) gives +0.0, any other the bits of -x
    s_part = float(0.0 - np.sum(weights * np.log(weights)))
    return 0.0, s_part
