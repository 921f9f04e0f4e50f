"""Numerical commutant search over factorized projector pairs.

Independent cross-check for the analytic certifier: minimize the squared
commutator norm of ``P (x) Q`` with the joint dyad over projectors of fixed
rank.  A rank-``r`` projector on ``C^d`` is described by a complex basis
``Y`` (``d x k``) of its smaller side, ``(k, complement) =
properties.smaller_side(d, r)``: ``P = Pi = Y G^-1 Y^dag`` with ``G = Y^dag
Y``, or ``P = I - Pi`` on the complement side.  The search so runs in an
unconstrained real space of ``2 d k`` coordinates per factor, and no step
needs an eigendecomposition.

The objective is ``holism``'s squared commutator norm: its general form in
``W = P amp Q^T`` wherever ``W`` is formed, which does not cancel, else its
closed form ``2 (n2 - n2^2)``, ``n2 = ||W||^2``.  The two agree for
projectors, so the gradient is that of a function of ``n2``.  With ``M_q =
amp Q^T`` and ``M_p = P amp``, ``dn2 = Re Tr[M_q M_q^dag dP] = Re Tr[M_p^T
conj(M_p) dQ]``; the basis pullback then gives

    grad_P = +-(4 - 8 n2 - h) (I - Pi_P) M_q (M_q^dag Z_P),   Z = Y G^-1,

with ``h = 2 (EXCLUDE_FLOOR - sqrt(n2)) / sqrt(n2)`` where the hinge is
active, else 0, and the sign negative on the complement side, where
``(I - Pi_P) M_q = W`` (else ``M_q - W``).  ``grad_Q`` is the same with
``(I - Pi_Q) M_p^T`` and ``conj(M_p) Z_Q``.  Every product has a ``d x k``
factor, O(d^2 k) a pair, and no ``d x d`` projector is formed.  At
``k = 1`` (ranks 1 and ``d - 1``) the Gram matrix is the scalar
``G = ||y||^2``, the sum of squares of the side's coordinates, and
``Z = y (1 / G)``; only ``k >= 2`` inverts the ``k x k`` Gram stack.  The
kernel works row by row on stacked coordinates, so restarts run as one stack.

When both factors are rank-1 projectors, ``P = y y^dag / ||y||^2`` and
``Q = u u^dag / ||u||^2``, ``W`` has rank one and the kernel needs
``d``-vectors only.  With ``v = amp conj(u)`` and ``z = y^dag v``, ``M_q =
v u^T / ||u||^2`` and ``W = (P v) u^T / ||u||^2`` with ``P v = y z /
||y||^2``, so ``n2 = |z|^2 / (||y||^2 ||u||^2)``.  In ``grad_P``, ``M_q^dag
Z_P = conj(u) conj(z) / (||u||^2 ||y||^2)`` and ``u^T conj(u) = ||u||^2``;
in ``grad_Q``, ``M_p^T conj(M_p) = amp^T P^T conj(P) conj(amp) = amp^T
conj(P amp)`` (``P^T = conj(P)``, ``P^2 = P``) acting on ``Z_Q = u /
||u||^2``.  Hence

    grad_P = (4 - 8 n2 - h) (I - Pi_P) v conj(z) / (||y||^2 ||u||^2),
    grad_Q = (4 - 8 n2 - h) (I - Pi_Q) amp^T conj(P v) / ||u||^2.

These ``d``-vector products are row-wise gufuncs (``np.vecdot``), each one
numpy call that computes every output row from its own input row alone.
Every other pair keeps the matrix form, including ranks ``(1, d - 1)``,
where ``k = 1`` on both sides but one is a complement side, and maximal
ranks, where ``W`` nears ``amp`` at the minimum and the closed form would
cancel.

The descent is monotone: a candidate ``x - step * grad`` is kept only if it
lowers the objective, else the step halves.  After a kept step the next one
is the Barzilai-Borwein step ``s.y / y.y`` (``s`` the move, ``y`` the change
of gradient) where ``s.y > 0``, else 1.5 times the last, capped at
``STEP_MAX`` either way.  A restart stops once ``grad.grad <= GRAD_TOL^2``.
That sum and ``s.y``, ``y.y`` are ``np.vecdot`` calls: one BLAS dot per
row, so a row's sums do not depend on the stack, in one call where a
product and a row sum take two.  Each restart reports how many candidates
it rejected.  The stack is compacted: it holds the live restarts only, the
accepted rows move to their candidates in place, and a restart that stops
has its final state written out and its row dropped in that iteration.

Start bases are orthonormal: each side of a raw normal row is replaced by
the ``Q`` factor of its QR, which spans the same subspace; at ``k = 1``
that is the side over its norm, up to a sign, with no QR.  The objective
does not see a basis's scale, but the step cap does: the gradient scales as
``1 / ||Y||`` and the curvature as ``1 / ||Y||^2``, so at a raw row's
``||Y||^2 ~ 2 d k`` the Barzilai-Borwein step wants to exceed ``STEP_MAX``,
and a restart held at the cap converges only linearly.  The stacked loop
runs until its slowest restart stops, so that one restart sets its cost.

With ``exclude_exclusive`` a hinge penalty keeps the search away from the
always-present exclusive solutions (``P @ amp @ Q.T == 0``), so the
restricted minimum probes the co-occurring branch only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Tolerances
from .doubleket import AmplitudeMatrix
from .holism import (
    Witness,
    commutator_norm_sq,
    commutator_norm_sq_from_n2,
    holistic_at_rank,
    product_commutator_norm,
    schmidt_rank,
)
from .linalg import SystemDims, as_seed, as_sizes, ginibre, stacked_singular_values
from .properties import Property, smaller_side

# Well above tolerances, well below typical co-occurrence weights.  It also
# sets the restricted minimum at ranks (1, 1), where the objective is
# 2x^2 - 2x^4 + (EXCLUDE_FLOOR - x)^2 in x = ||P amp Q^T||: least near
# x = EXCLUDE_FLOOR / 3, at norm sqrt(2) x sqrt(1 - x^2) = 0.0235757 for any
# amplitude whose top singular value stays below 0.9995.
EXCLUDE_FLOOR = 0.05
STEP_INIT = 0.5  # first descent step of every restart
# largest step a restart may take: it guards against Barzilai-Borwein blow-ups,
# where s.y / y.y grows without bound as the gradient barely changes (flat
# valleys, y -> 0)
STEP_MAX = 10.0
MAX_ITERS = 500  # descent steps after which a restart stops with "max_iters"
GRAD_TOL = 1e-8  # gradient norm at which a restart stops with "grad_tol"
STEP_MIN = 1e-14  # step below which a rejected restart stops with "step_underflow"
# ||W|| at or below which the hinge adds no gradient: its direction W/||W||
# is undefined at W = 0, so the quotient would divide by (near) zero
HINGE_NORM_MIN = 1e-12
# a density sample whose smallest singular value lies within this factor of
# tol_rank (either side) is counted as near the threshold: its rank, and so its
# verdict, would flip if tol_rank moved by that factor
NEAR_RANK_TOL_FACTOR = 10.0
ORACLE_RESOLUTION = 24  # the grid resolution R of the CLI's --oracle
# squared overlap below which the grid applies the hinge: EXCLUDE_FLOOR^2 with
# a margin for the rounding of the product (see brute_force_grid_d2)
_HINGE_N2_BOUND = EXCLUDE_FLOOR * EXCLUDE_FLOOR * (1.0 + 1e-12)


@dataclass(frozen=True)
class SearchConfig:
    rank_p: int = 1
    rank_q: int = 1
    restarts: int = 32
    exclude_exclusive: bool = False
    rng_seed: int = 0

    def validate(self, dims: SystemDims) -> None:
        """Raise ``ValueError`` unless both ranks are nontrivial at ``dims`` and there is a restart.

        Factor dimensions below 2 admit no nontrivial rank, and are rejected
        first; ranks, restarts and the seed must then be integers
        (:func:`linalg.as_sizes`), the seed not negative.
        """
        d_a, d_b = dims
        if d_a < 2 or d_b < 2:
            raise ValueError(f"the search needs both factor dimensions >= 2, got {d_a}x{d_b}")
        as_sizes((self.rank_p, self.rank_q, self.restarts))
        as_seed(self.rng_seed)
        if not 0 < self.rank_p < d_a:
            raise ValueError(f"rank_p must satisfy 0 < rank < {d_a}, got {self.rank_p}")
        if not 0 < self.rank_q < d_b:
            raise ValueError(f"rank_q must satisfy 0 < rank < {d_b}, got {self.rank_q}")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True)
class RestartTrace:
    """How one restart ended; ``stop_reason`` is grad_tol, step_underflow or max_iters.

    ``rejected`` counts the candidate steps that did not lower the objective
    and so halved the step.
    """

    objective: float
    iterations: int
    stop_reason: str
    rejected: int


@dataclass(frozen=True)
class SearchResult:
    """Best pair found, as a replayed :class:`Witness`: ``argmin.commutator_norm`` is the minimum."""

    argmin: Witness
    iterations_used: int
    converged: bool
    restart_trace: tuple[RestartTrace, ...]


def _adj(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _bases(params: np.ndarray, d: int, k: int) -> np.ndarray:
    """Complex ``(..., d, k)`` bases from real coordinates ``(..., 2 d k)``, (re, im) pairs row-major."""
    return np.ascontiguousarray(params).view(complex).reshape(params.shape[:-1] + (d, k))


def projector_from_coords(params, d: int, rank: int) -> Property:
    """Rank-``rank`` projector on ``C^d`` from the coordinates of a basis of its smaller side.

    Layout: ``2 d k`` reals, ``(k, complement) = smaller_side(d, rank)``,
    the (real, imaginary) parts of the entries of a complex ``d x k`` matrix
    ``Y`` in row-major order.  The projector is ``Pi = Y (Y^dag Y)^-1 Y^dag``
    onto the span of ``Y``, or its complement ``I - Pi``.  Built by
    ``Property.from_basis`` from the ``Q`` factor of ``Y = QR``, so its basis
    has ``k`` columns.
    """
    if not 0 <= rank <= d:
        raise ValueError(f"rank must be between 0 and {d}, got {rank}")
    k, complement = smaller_side(d, rank)
    params = np.asarray(params, dtype=float).reshape(-1)
    if params.size != 2 * d * k:
        raise ValueError(f"expected {2 * d * k} parameters for dimension {d}, rank {rank}, "
                         f"got {params.size}")
    return Property.from_basis(np.linalg.qr(_bases(params, d, k))[0], complement=complement)


def _layout(dims: SystemDims, cfg: SearchConfig) -> tuple[tuple, tuple, int]:
    """``(columns, d, k, complement)`` of ``P``, then of ``Q``, in the joint coordinates, and their count."""
    d_a, d_b = dims
    k_a, comp_p = smaller_side(d_a, cfg.rank_p)
    k_b, comp_q = smaller_side(d_b, cfg.rank_q)
    n_p = 2 * d_a * k_a
    n = n_p + 2 * d_b * k_b
    return (slice(0, n_p), d_a, k_a, comp_p), (slice(n_p, n), d_b, k_b, comp_q), n


def _side(x: np.ndarray, side: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Stacked bases ``Y`` and ``Z = Y G^-1`` (``G = Y^dag Y``) of one factor, from its columns of ``x``."""
    cols, d, k, _ = side
    params = x[:, cols]
    y = _bases(params, d, k)
    if k == 1:
        z = y * (1.0 / (params * params).sum(axis=-1))[:, None, None]
    else:
        z = y @ np.linalg.inv(_adj(y) @ y)
    return y, z


def _add_hinge(comm2: np.ndarray, norm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The objective with the hinge, ``comm2 + gap^2``, and ``gap = max(EXCLUDE_FLOOR - ||W||, 0)``."""
    gap = np.maximum(EXCLUDE_FLOOR - norm, 0.0)
    return comm2 + np.square(gap), gap


def _matrix_terms(
    am: np.ndarray, x: np.ndarray, side_p: tuple, side_q: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(comm2, n2, dir_P, dir_Q)`` from products with the ``d x k`` bases, at any ranks.

    ``dir = (I - Pi) M (M^dag Z)`` of the module docstring, unsigned, one
    ``(rows, d, k)`` stack per side.
    """
    y_p, z_p = _side(x, side_p)
    y_q, z_q = _side(x, side_q)
    comp_p, comp_q = side_p[3], side_q[3]
    # M_q = amp Q^T and M_p = P amp, with Pi_Q^T = conj(Z_q) Y_q^T and Pi_P = Z_p Y_p^dag;
    # a complement side is amp minus its rank-k term
    m_q = (am @ z_q.conj()) @ y_q.swapaxes(-1, -2)
    if comp_q:
        m_q = am - m_q
    y_p_adj = _adj(y_p)
    w = z_p @ (y_p_adj @ m_q)
    m_p = z_p @ (y_p_adj @ am)
    if comp_p:
        w, m_p = m_q - w, am - m_p
    n2 = np.einsum("...ik,...ik->...", w.conj(), w).real
    dir_p = (w if comp_p else m_q - w) @ (_adj(m_q) @ z_p)
    dir_q = (w if comp_q else m_p - w).swapaxes(-1, -2) @ (m_p.conj() @ z_q)
    return commutator_norm_sq(am, w), n2, dir_p, dir_q


def _rank_one_terms(
    am: np.ndarray, x_y: np.ndarray, x_u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(comm2, n2, dir_P, dir_Q)`` of ``W = P amp Q^T`` when ``P = y y^dag / ||y||^2`` and ``Q = u u^dag / ||u||^2``.

    ``x_y`` and ``x_u`` are the coordinates of ``y`` and ``u``.  The
    identities are those of the module docstring, on ``(rows, d)`` vectors.
    Every product is the row-wise gufunc ``np.vecdot(a, b)``, ``sum conj(a) b``
    over the last axis: ``||y||^2`` and ``||u||^2`` on the real coordinates,
    ``z`` and ``u^dag t`` row against row, and ``v``, ``t`` with each row
    broadcast against the rows of ``amp`` or ``amp^T``.  Each output row so
    comes from its own input row alone, where a 2-D product through BLAS
    gemm may round one row differently from a 1-row call.  Each product is
    one numpy call that conjugates and sums itself, with no ``conj`` copy
    and no product-then-row-sum pair.
    """
    gy = np.vecdot(x_y, x_y)
    gu = np.vecdot(x_u, x_u)
    y, u = x_y.view(complex), x_u.view(complex)
    # v = amp conj(u) and t = amp^T conj(P v), row by row
    v = np.vecdot(u[:, None, :], am)
    z = np.vecdot(y, v)
    p_v = y * (z / gy)[:, None]
    gyu = gy * gu
    n2 = (z.real * z.real + z.imag * z.imag) / gyu
    dir_p = (v - p_v) * (z.conj() / gyu)[:, None]
    t = np.vecdot(p_v[:, None, :], am.T)
    dir_q = t - u * (np.vecdot(u, t) / gu)[:, None]
    dir_q /= gu[:, None]
    return commutator_norm_sq_from_n2(n2), n2, dir_p, dir_q


def objective_value_and_grad(
    amp: AmplitudeMatrix, params: np.ndarray, cfg: SearchConfig
) -> tuple[float | np.ndarray, np.ndarray]:
    """Objective and its analytic gradient in the joint parameter vector.

    Parameters concatenate the basis coordinates of ``P`` (``2 d_a k_a`` reals)
    and of ``Q`` (``2 d_b k_b``), each in the layout of
    :func:`projector_from_coords`.  Leading axes stack pairs, computed row by
    row so that a row's result does not depend on the stack; 1-D gives
    ``(float, grad)``.  No ``d x d`` projector is formed: the terms come from
    ``d``-vectors where both factors are rank-1 projectors
    (:func:`_rank_one_terms`), else from products with the bases
    (:func:`_matrix_terms`), which form ``W`` and its general-form norm.
    """
    side_p, side_q, n = _layout(amp.dims, cfg)
    cols_p, _, k_a, comp_p = side_p
    cols_q, _, k_b, comp_q = side_q
    params = np.asarray(params, dtype=float)
    if params.ndim == 0 or params.shape[-1] != n:
        raise ValueError(f"expected {n} parameters, got {params.shape[-1:] or 1}")
    x = np.ascontiguousarray(params).reshape(-1, n)
    am = amp.matrix
    if k_a == k_b == 1 and not comp_p and not comp_q:
        f, n2, dir_p, dir_q = _rank_one_terms(am, x[:, cols_p], x[:, cols_q])
    else:
        f, n2, dir_p, dir_q = _matrix_terms(am, x, side_p, side_q)
    # the gradient of the module docstring, +-(4 - 8 n2 - h) dir
    scale = 4.0 - 8.0 * n2
    if cfg.exclude_exclusive:
        nw = np.sqrt(n2)
        f, gap = _add_hinge(f, nw)
        scale -= np.divide(2.0 * gap, nw, out=np.zeros_like(nw), where=nw > HINGE_NORM_MIN)
    scale = scale[:, None]
    # P's coordinates, then Q's: each side's complex entries as (re, im)
    # pairs, written through the complex view of one buffer
    grad = np.empty((len(x), n))
    grad_c = grad.view(complex)
    for (cols, d, k, comp), dr in ((side_p, dir_p), (side_q, dir_q)):
        out = grad_c[:, cols.start // 2 : cols.stop // 2]
        np.multiply(dr.reshape(len(x), d * k), -scale if comp else scale, out=out)
    grad = grad.reshape(params.shape)
    if params.ndim == 1:
        return float(f[0]), grad
    return f.reshape(params.shape[:-1]), grad


def _descend(
    amp: AmplitudeMatrix, x: np.ndarray, cfg: SearchConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """The descent of :func:`minimize` from the start rows ``x``, all restarts as one stack.

    Returns, one row per restart, its final coordinates and objective, its
    iterations (the loop counter when it stopped), its rejected candidates
    and its stop reason.
    """
    x = np.array(x, dtype=float)  # updated in place below
    f, grad = objective_value_and_grad(amp, x, cfg)
    step = np.full(x.shape[0], STEP_INIT)
    rej = np.zeros(x.shape[0], dtype=int)
    # x, f, grad, step and rej hold the live restarts only, row i for restart
    # live[i]; a restart's final state goes to the full-size outputs below
    # when it stops, and its row is dropped
    live = np.arange(x.shape[0])
    x_out, f_out = np.empty_like(x), np.empty_like(f)
    iters, rejected = np.empty_like(rej), np.empty_like(rej)
    reason = [""] * x.shape[0]

    def retire(stopped: np.ndarray, it: int, why: str) -> tuple[np.ndarray, ...]:
        """Write the stopped rows to the outputs; the live state without them."""
        rows = live[stopped]
        x_out[rows], f_out[rows], rejected[rows], iters[rows] = x[stopped], f[stopped], rej[stopped], it
        for r in rows.tolist():
            reason[r] = why
        keep = ~stopped
        return live[keep], x[keep], f[keep], grad[keep], step[keep], rej[keep]

    for it in range(1, MAX_ITERS + 1):
        done = np.vecdot(grad, grad) <= GRAD_TOL * GRAD_TOL
        if done.any():
            live, x, f, grad, step, rej = retire(done, it, "grad_tol")
        if not live.size:  # after either retirement, this one or last iteration's stall
            break
        cand = x - step[:, None] * grad
        f_cand, grad_cand = objective_value_and_grad(amp, cand, cfg)
        better = f_cand < f
        # Barzilai-Borwein step s.y / y.y from an accepted move, row by row;
        # where the curvature s.y is not positive, grow the step instead
        s, y = cand - x, grad_cand - grad
        sy = np.vecdot(s, y)
        bb = np.divide(sy, np.vecdot(y, y), out=1.5 * step, where=sy > 0.0)
        step = np.where(better, np.minimum(bb, STEP_MAX), 0.5 * step)
        # the accepted rows move to their candidates in place
        np.copyto(x, cand, where=better[:, None])
        np.copyto(f, f_cand, where=better)
        np.copyto(grad, grad_cand, where=better[:, None])
        worse = ~better
        rej += worse
        stalled = worse & (step < STEP_MIN)
        if stalled.any():
            live, x, f, grad, step, rej = retire(stalled, it, "step_underflow")
    retire(np.ones(live.size, dtype=bool), MAX_ITERS, "max_iters")
    return x_out, f_out, iters, rejected, reason


def _start_rows(dims: SystemDims, cfg: SearchConfig) -> np.ndarray:
    """Start coordinates of the restarts, one row each, with orthonormal bases.

    Row ``r`` is row ``r`` of ``default_rng(cfg.rng_seed).standard_normal((cfg.restarts, n))``
    with each side's basis ``Y`` replaced by the ``Q`` factor of its QR, so
    ``Y^dag Y = I`` (see the module docstring for why).  At ``k = 1`` that
    factor is the column over its norm, up to a sign, so the side is divided
    by the root of ``np.vecdot`` of its coordinates, one BLAS dot per row,
    instead of one stacked LAPACK call; at ``k >= 2`` LAPACK factors each
    matrix of the stack alone.  Either way more restarts only append rows.
    """
    side_p, side_q, n = _layout(dims, cfg)
    x = np.random.default_rng(cfg.rng_seed).standard_normal((cfg.restarts, n))
    for cols, d, k, _ in (side_p, side_q):
        side = x[:, cols]
        if k == 1:
            side /= np.sqrt(np.vecdot(side, side))[:, None]
        else:
            side.view(complex)[...] = np.linalg.qr(_bases(side, d, k))[0].reshape(cfg.restarts, d * k)
    return x


def minimize(amp: AmplitudeMatrix, cfg: SearchConfig) -> SearchResult:
    """Multi-restart gradient descent over the basis coordinates of the projector pair.

    Restarts start from :func:`_start_rows` and descend as one stack by the
    rule of the module docstring (:func:`_descend`); ``restart_trace`` says
    how each stopped.  Rows are computed one by one, so enlarging
    ``cfg.restarts`` only appends candidates; the first with the lowest
    objective wins, and :func:`projector_from_coords` builds its projectors.
    Its ``argmin`` is the :class:`Witness` that :func:`product_commutator_norm`
    returns, so results replay by construction.  At ranks (1, 1) with
    ``exclude_exclusive`` the minimum is 0.0235757, set by the hinge floor
    and not by the amplitude (see ``EXCLUDE_FLOOR``).
    """
    cfg.validate(amp.dims)
    d_a, d_b = amp.dims
    (cols_p, *_), (cols_q, *_), _ = _layout(amp.dims, cfg)
    x, f, iters, rejected, reason = _descend(amp, _start_rows(amp.dims, cfg), cfg)
    best = int(np.argmin(f))
    p = projector_from_coords(x[best, cols_p], d_a, cfg.rank_p)
    q = projector_from_coords(x[best, cols_q], d_b, cfg.rank_q)
    return SearchResult(
        argmin=product_commutator_norm(amp, p, q),
        iterations_used=int(iters.sum()),
        converged=reason[best] == "grad_tol",
        restart_trace=tuple(map(RestartTrace, f.tolist(), iters.tolist(), reason, rejected.tolist())),
    )


def _bloch_grid(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid vectors ``(cos(theta/2), e^{i phi} sin(theta/2))`` as columns (2, R*R), and the angles.

    Theta spans [0, pi] inclusive so the poles (and hence diagonal
    witnesses) sit exactly on the grid; phi spans [0, 2 pi) half-open.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    thetas = np.linspace(0.0, np.pi, resolution)
    phis = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    tg = tg.reshape(-1)
    pg = pg.reshape(-1)
    return np.stack([np.cos(tg / 2.0), np.exp(1j * pg) * np.sin(tg / 2.0)]), tg, pg


def brute_force_grid_d2(
    amp: AmplitudeMatrix, resolution: int, exclude_exclusive: bool
) -> tuple[float, tuple[float, float, float, float]]:
    """Exhaustive Bloch-angle scan of rank-(1,1) pairs at dims (2, 2).

    Returns the commutator norm at the grid argmin of the (possibly
    penalized) objective, together with the argmin angles
    ``(theta_p, phi_p, theta_q, phi_q)``; ties go to the first pair in
    row-major order.  A pair ``P = |a><a|``, ``Q = |b><b|`` gives
    ``W = P amp Q^T = z |a><b̄|`` with ``z = <a|amp|b̄>``, so ``n2 = |z|^2``
    and the closed form in ``n2`` applies: the scan needs only the overlaps
    ``Z = A^dag amp B̄`` of the R^2 grid vectors.  Grid row ``a = i R + j``
    has ``theta_i``, so the first component ``cos(theta_i / 2)`` of ``<a|``
    is one double across the R rows of a theta, and their first outer
    product is one row; a block holds the R rows of one theta and adds that
    row to its second outer product.  Blocks reuse buffers allocated once
    per call, so memory stays at one block of ``R x R^2`` entries, and the
    hinge is applied only where it is active.
    """
    if amp.dims != (2, 2):
        raise ValueError(f"grid oracle only supports dims (2, 2), got {tuple(amp.dims)}")
    vecs, tg, pg = _bloch_grid(resolution)
    bras = vecs.conj()  # column a holds the components of <a|
    kets = amp.matrix @ bras  # column b is amp |b̄>

    best_obj = np.inf
    best_comm = np.inf
    best_idx = (0, 0)
    n = tg.size
    # every block writes into the same buffers, which stay in cache; with
    # fresh arrays per block, which land wherever malloc puts them, the
    # scan's time varied by up to 1.5x with the heap's layout
    first = np.empty(n, dtype=complex)
    zs = np.empty((resolution, n), dtype=complex)
    n2s = np.empty((resolution, n))
    hinged = np.empty((resolution, n), dtype=bool)
    for start in range(0, n, resolution):
        # the same first outer product row for every row of this theta
        np.multiply(bras[0, start], kets[0], out=first)
        # an outer product, not a matmul: BLAS threading costs far more
        # than the product at these shapes; IEEE addition commutes, so
        # the sum keeps the bits of first + second
        z = np.multiply.outer(bras[1, start : start + resolution], kets[1], out=zs)
        z += first
        # |z|^2 = re^2 + im^2, squared in place on the interleaved parts
        parts = np.square(z.view(float), out=z.view(float))
        n2 = np.add(parts[:, 0::2], parts[:, 1::2], out=n2s)
        obj = commutator_norm_sq_from_n2(n2)
        if exclude_exclusive:
            # Only entries below the bound can have a positive gap: sqrt is
            # correctly rounded and monotone and EXCLUDE_FLOOR is a double,
            # so fl(sqrt(n2)) < EXCLUDE_FLOOR implies n2 < EXCLUDE_FLOOR^2
            # exactly, below the bound.  Every other entry would add
            # square(max(gap, 0)) = +0.0, and comm2 + 0.0 == comm2 since
            # comm2 is never -0.0 (n2 is a sum of squares, and n2 - n2^2 is
            # +0.0 where it cancels)
            hit = np.flatnonzero(np.less(n2, _HINGE_N2_BOUND, out=hinged))
            flat = obj.reshape(-1)
            flat[hit] = _add_hinge(flat[hit], np.sqrt(n2.reshape(-1)[hit]))[0]
        a_off, b_idx = divmod(int(np.argmin(obj)), n)
        if obj[a_off, b_idx] < best_obj:
            best_obj = float(obj[a_off, b_idx])
            # comm2 of the entry, which obj holds only where the hinge is off
            best_comm = float(np.sqrt(max(commutator_norm_sq_from_n2(n2[a_off, b_idx]), 0.0)))
            best_idx = (start + a_off, b_idx)
    a_idx, b_idx = best_idx
    angles = (float(tg[a_idx]), float(pg[a_idx]), float(tg[b_idx]), float(pg[b_idx]))
    return best_comm, angles


@dataclass(frozen=True, eq=False)
class DensityReport:
    """Monte Carlo scan of how often random amplitudes certify holistic; ``==`` is identity (array fields)."""

    dims: SystemDims
    samples: int
    rng_seed: int
    smallest_singular_values: np.ndarray
    holistic_at_least_one: np.ndarray
    holistic_both: np.ndarray
    fraction_at_least_one: float
    fraction_both: float
    fraction_smallest_below_rank_tol: float
    near_rank_tol_count: int
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray


def density_scan(
    dims: SystemDims, samples: int, rng_seed: int, *, tols: Tolerances = Tolerances()
) -> DensityReport:
    """Certifier verdicts on unit-norm Ginibre samples under both conventions.

    Sample ``i`` is the ``i``-th :func:`ginibre` matrix of one PCG64 stream
    seeded by ``rng_seed``, scaled to unit norm; so raising ``samples`` only
    appends samples, and the first ``n`` of a longer scan are the scan of
    ``n``.  Verdicts come from one stacked SVD through the certifier's rank rule
    (:func:`holistic_at_rank`), with no witnesses.  ``near_rank_tol_count``
    counts the samples whose smallest singular value lies within
    ``NEAR_RANK_TOL_FACTOR`` of ``tols.tol_rank`` on either side.
    """
    (samples,) = as_sizes((samples,))
    if samples < 1:
        raise ValueError("samples must be positive")
    dims = SystemDims(*as_sizes(dims))
    rng_seed = as_seed(rng_seed)
    stack = ginibre(dims, np.random.default_rng(rng_seed), samples)
    stack /= np.linalg.norm(stack, axis=(-2, -1), keepdims=True)
    s = stacked_singular_values(stack)
    rank = schmidt_rank(s, tols)
    hol_one, hol_both = holistic_at_rank(rank, dims)
    smin = s[:, -1]
    counts, edges = np.histogram(smin, bins=20, range=(0.0, 1.0))
    near = (smin >= tols.tol_rank / NEAR_RANK_TOL_FACTOR) & (smin <= NEAR_RANK_TOL_FACTOR * tols.tol_rank)
    return DensityReport(
        dims=dims,
        samples=samples,
        rng_seed=rng_seed,
        smallest_singular_values=smin,
        holistic_at_least_one=hol_one,
        holistic_both=hol_both,
        fraction_at_least_one=float(np.mean(hol_one)),
        fraction_both=float(np.mean(hol_both)),
        fraction_smallest_below_rank_tol=float(np.mean(smin < tols.tol_rank)),
        near_rank_tol_count=int(np.count_nonzero(near)),
        histogram_counts=counts,
        histogram_edges=edges,
    )
