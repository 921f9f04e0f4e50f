"""Numerical commutant search over factorized projector pairs.

Independent cross-check for the analytic certifier: minimize the squared
commutator norm of ``P (x) Q`` with the joint dyad over unitarily
parametrized projectors of fixed rank.  Projectors are generated as
``U diag(1_rank, 0) U^dag`` with ``U = exp(i H(params))``, so the search
runs in an unconstrained real parameter space.  The gradient pulls the
cotangent ``L`` of each projector back to its generator in O(d^3): with
``H = V diag(w) V^dag`` and ``G`` the divided differences (Daleckii-Krein)
of ``exp(ix)`` on ``w``, ``M = E U^dag (L + L^dag)`` maps to
``N = V ((V^dag M V) o G^T) V^dag``, whose entries are the gradient.  The
kernel works row by row on stacked parameters, so restarts run as one stack.

The descent is monotone: a candidate ``x - step * grad`` is kept only if it
lowers the objective, else the step halves.  After a kept step the next one
is the Barzilai-Borwein step ``s.y / y.y`` (``s`` the move, ``y`` the change
of gradient) where ``s.y > 0``, else 1.5 times the last, capped at
``STEP_MAX`` either way.  Each restart reports how many candidates it
rejected.

With ``exclude_exclusive`` a hinge penalty keeps the search away from the
always-present exclusive solutions (``P @ amp @ Q.T == 0``), so the
restricted minimum probes the co-occurring branch only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import Tolerances
from .doubleket import AmplitudeMatrix
from .holism import (
    NontrivialityConvention,
    ProductProperty,
    holistic_at_rank,
    product_commutator_norm,
    schmidt_rank,
)
from .linalg import SystemDims, frob, ginibre
from .properties import Property

# Well above tolerances, well below typical co-occurrence weights.  It also
# sets the restricted minimum at ranks (1, 1), where the objective is
# 2x^2 - 2x^4 + (EXCLUDE_FLOOR - x)^2 in x = ||P amp Q^T||: least near
# x = EXCLUDE_FLOOR / 3, at norm sqrt(2) x sqrt(1 - x^2) = 0.0235757 for any
# amplitude whose top singular value stays below 0.9995.
EXCLUDE_FLOOR = 0.05
STEP_INIT = 0.5  # first descent step of every restart
# largest step a restart may take: the Barzilai-Borwein step s.y / y.y blows up
# where the gradient barely changes (flat valleys, y -> 0), and U = exp(iH) is
# periodic in the generator's eigenvalues, so a longer move only wanders
STEP_MAX = 10.0
MAX_ITERS = 500  # descent steps after which a restart stops with "max_iters"
GRAD_TOL = 1e-8  # gradient norm at which a restart stops with "grad_tol"
STEP_MIN = 1e-14  # step below which a rejected restart stops with "step_underflow"
# eigenvalue gap below which a divided difference of exp(ix) takes its
# confluent (midpoint) value, off by O(gap^2); the quotient has lost ~7 digits there
CONFLUENT_GAP = 1e-9
# ||W|| at or below which the hinge adds no gradient: its direction W/||W||
# is undefined at W = 0, so the quotient would divide by (near) zero
HINGE_NORM_MIN = 1e-12
# overlap entries per grid-oracle chunk (512 KB of complex), whatever the resolution
GRID_CHUNK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SearchConfig:
    rank_p: int = 1
    rank_q: int = 1
    restarts: int = 32
    exclude_exclusive: bool = False
    rng_seed: int = 0


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
    """Best pair found; ``min_value`` is the commutator norm at the argmin."""

    min_value: float
    argmin_p: Property
    argmin_q: Property
    iterations_used: int
    converged: bool
    cooccurrence_weight: float
    restart_trace: tuple[RestartTrace, ...]


def _adj(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


@functools.cache
def _generator_layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only diagonal and ``triu_indices(d, 1)`` index arrays of the generator layout."""
    arrays = (np.arange(d), *np.triu_indices(d, 1))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def hermitian_from_params(params, d: int) -> np.ndarray:
    """Hermitian generators from real parameters of shape ``(..., d*d)``.

    Layout: d diagonal entries first, then the (real, imaginary) parts of
    ``H[i, j]`` for each off-diagonal position i < j in lexicographic order.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim == 0 or params.shape[-1] != d * d:
        raise ValueError(f"expected {d * d} parameters for dimension {d}, got {params.shape[-1:] or 1}")
    h = np.zeros(params.shape[:-1] + (d, d), dtype=complex)
    diag, i, j = _generator_layout(d)
    h.real[..., diag, diag] = params[..., :d]
    h.real[..., i, j] = h.real[..., j, i] = params[..., d::2]
    h.imag[..., i, j] = params[..., d + 1 :: 2]
    h.imag[..., j, i] = -params[..., d + 1 :: 2]
    return h


def _exp_i(params: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues ``w`` and eigenvectors ``V`` of ``H(params)``, and ``U = exp(i H)``."""
    w, v = np.linalg.eigh(hermitian_from_params(params, d))
    return w, v, (v * np.exp(1j * w)[..., None, :]) @ _adj(v)


def parametrize_projector(params, d: int, rank: int) -> Property:
    """Rank-``rank`` projector ``U diag(1_rank, 0) U^dag`` with ``U = exp(i H(params))``.

    Built by ``Property.from_unitary``: from the columns of ``U`` on its
    smaller side, so above ``rank = d / 2`` as ``I - U_c U_c^dag``.
    """
    if not 0 <= rank <= d:
        raise ValueError(f"rank must be between 0 and {d}, got {rank}")
    return Property.from_unitary(_exp_i(np.asarray(params, dtype=float).reshape(-1), d)[2], rank)


def _pullback(w: np.ndarray, v: np.ndarray, ur: np.ndarray, lmat: np.ndarray) -> np.ndarray:
    """Gradient of ``Re Tr[L dP]`` in the generator parameters of ``P = U_r U_r^dag``.

    ``dP = dU E U^dag + h.c.`` gives ``Re Tr[M dU]``; ``M = E U^dag (L + L^dag)``
    vanishes from row ``rank`` on, so ``V^dag M = V_r^dag U_r^dag (L + L^dag)``
    with ``V_r`` the first ``rank`` rows of ``V``.  ``Re Tr[N dH]`` then reads
    ``Re N_ii`` on a diagonal unit and ``Re(N_ij + N_ji)``, ``Im(N_ij - N_ji)``
    on the off-diagonal pair of :func:`hermitian_from_params`.
    """
    d, rank = w.shape[-1], ur.shape[-1]
    phase = np.exp(1j * w)
    # divided differences of x -> exp(ix) on the spectrum; the confluent
    # limit handles (near-)degenerate eigenvalue pairs
    dw = w[..., :, None] - w[..., None, :]
    confluent = 1j * np.exp(1j * (w[..., :, None] + w[..., None, :]) / 2.0)
    near = np.abs(dw) < CONFLUENT_GAP
    g = np.where(near, confluent, (phase[..., :, None] - phase[..., None, :]) / np.where(near, 1.0, dw))
    vmv = _adj(v[..., :rank, :]) @ (_adj(ur) @ (lmat + _adj(lmat))) @ v
    n = v @ (vmv * g.swapaxes(-1, -2)) @ _adj(v)
    _, i, j = _generator_layout(d)
    grad = np.empty(w.shape[:-1] + (d * d,))
    grad[..., :d] = np.diagonal(n, axis1=-2, axis2=-1).real
    grad[..., d::2] = (n[..., i, j] + n[..., j, i]).real
    grad[..., d + 1 :: 2] = (n[..., i, j] - n[..., j, i]).imag
    return grad


def _objective_terms(
    amp_matrix: np.ndarray, w: np.ndarray, exclude_exclusive: bool
) -> tuple[np.ndarray, ...]:
    """``(objective, comm2, n2, c)`` of stacked ``W = P amp Q^T``, per leading index.

    ``comm2 = 2 n2 - 2 Re(c^2)`` is the squared commutator norm, ``n2 = ||W||^2``,
    ``c = <amp, W>_HS``; the objective adds the hinge when ``exclude_exclusive``.
    """
    n2 = np.einsum("...ik,...ik->...", w.conj(), w).real
    c = np.einsum("ik,...ik->...", amp_matrix.conj(), w)
    comm2 = 2.0 * n2 - 2.0 * (c.real**2 - c.imag**2)
    return _with_hinge(comm2, n2, exclude_exclusive), comm2, n2, c


def _with_hinge(comm2: np.ndarray, n2: np.ndarray, exclude_exclusive: bool) -> np.ndarray:
    """Objective from ``comm2`` and ``n2 = ||W||^2``: the hinge is added when ``exclude_exclusive``."""
    if not exclude_exclusive:
        return comm2
    return comm2 + np.maximum(0.0, EXCLUDE_FLOOR - np.sqrt(n2)) ** 2


def objective(amp: AmplitudeMatrix, p: Property, q: Property, cfg: SearchConfig) -> float:
    """Search objective for a concrete pair: ``||[P (x) Q, dyad]||_F^2``.

    With ``cfg.exclude_exclusive`` a hinge penalty
    ``max(0, floor - ||P @ amp @ Q.T||)^2`` is added, floor 0.05.
    """
    d_a, d_b = amp.dims
    if p.dim != d_a or q.dim != d_b:
        raise ValueError(f"pair dims ({p.dim}, {q.dim}) do not match amplitude dims ({d_a}, {d_b})")
    w = p.matrix @ amp.matrix @ q.matrix.T
    return float(_objective_terms(amp.matrix, w, cfg.exclude_exclusive)[0])


def objective_value_and_grad(
    amp: AmplitudeMatrix, params: np.ndarray, cfg: SearchConfig
) -> tuple[float | np.ndarray, np.ndarray]:
    """Objective and its analytic gradient in the joint parameter vector.

    Parameters concatenate the generator of ``P`` (length ``d_a^2``) and of
    ``Q`` (length ``d_b^2``).  Leading axes stack pairs, computed row by row so
    that a row's result does not depend on the stack; 1-D gives ``(float, grad)``.
    """
    d_a, d_b = amp.dims
    n_p = d_a * d_a
    params = np.asarray(params, dtype=float)
    if params.ndim == 0 or params.shape[-1] != n_p + d_b * d_b:
        raise ValueError(f"expected {n_p + d_b * d_b} parameters, got {params.shape[-1:] or 1}")
    x = params.reshape(-1, params.shape[-1])
    w_p, v_p, u_p = _exp_i(x[:, :n_p], d_a)
    w_q, v_q, u_q = _exp_i(x[:, n_p:], d_b)
    ur_p, ur_q = u_p[..., : cfg.rank_p], u_q[..., : cfg.rank_q]
    proj_p, proj_q_t = ur_p @ _adj(ur_p), (ur_q @ _adj(ur_q)).swapaxes(-1, -2)

    am = amp.matrix
    w = proj_p @ am @ proj_q_t
    f, _, n2, c = _objective_terms(am, w, cfg.exclude_exclusive)
    k = 4.0 * (w - np.conj(c)[:, None, None] * am)
    if cfg.exclude_exclusive:
        nw = np.sqrt(n2)
        gap = EXCLUDE_FLOOR - nw
        hinged = (gap > 0.0) & (nw > HINGE_NORM_MIN)
        k = k - np.where(hinged, 2.0 * gap / np.where(hinged, nw, 1.0), 0.0)[:, None, None] * w

    # d f = Re Tr[K^dag dW] with dW = dP (amp Q^T), so L_P = amp Q^T K^dag;
    # resp. dW = (P amp) dQ^T, so L_Q = (K^dag P amp)^T
    grad_p = _pullback(w_p, v_p, ur_p, am @ proj_q_t @ _adj(k))
    grad_q = _pullback(w_q, v_q, ur_q, (_adj(k) @ proj_p @ am).swapaxes(-1, -2))
    grad = np.concatenate([grad_p, grad_q], axis=-1).reshape(params.shape)
    if params.ndim == 1:
        return float(f[0]), grad
    return f.reshape(params.shape[:-1]), grad


def minimize(amp: AmplitudeMatrix, cfg: SearchConfig) -> SearchResult:
    """Multi-restart gradient descent over the projector parameters.

    Restarts descend as one stack, each halving its step on non-decrease
    (counted in ``RestartTrace.rejected``) and taking the Barzilai-Borwein
    step ``s.y / y.y``, or 1.5 times the last where ``s.y <= 0``, capped at
    ``STEP_MAX``, on acceptance, until ``GRAD_TOL``, a step below
    ``STEP_MIN`` or ``MAX_ITERS`` steps (``restart_trace`` says which).  They
    are seeded by index and computed row by row, so enlarging ``cfg.restarts``
    only ever adds candidates; the first with the lowest objective wins.
    ``min_value`` is the commutator norm of that pair from
    :func:`product_commutator_norm`, which also gives ``cooccurrence_weight``,
    not the square root of the objective, whose cancellation hides norms below
    about 1e-8; results replay by construction.  At ranks (1, 1) with
    ``exclude_exclusive`` the minimum is 0.0235757, set by the hinge floor
    and not by the amplitude (see ``EXCLUDE_FLOOR``).
    """
    d_a, d_b = amp.dims
    if not 0 < cfg.rank_p < d_a:
        raise ValueError(f"rank_p must satisfy 0 < rank < {d_a}, got {cfg.rank_p}")
    if not 0 < cfg.rank_q < d_b:
        raise ValueError(f"rank_q must satisfy 0 < rank < {d_b}, got {cfg.rank_q}")
    if cfg.restarts < 1:
        raise ValueError("restarts must be positive")
    n_params = d_a * d_a + d_b * d_b

    rngs = [np.random.default_rng([cfg.rng_seed, r]) for r in range(cfg.restarts)]
    x = np.stack([rng.normal(0.0, 1.5, size=n_params) for rng in rngs])
    f, grad = objective_value_and_grad(amp, x, cfg)
    step = np.full(cfg.restarts, STEP_INIT)
    iters = np.zeros(cfg.restarts, dtype=int)
    rejected = np.zeros(cfg.restarts, dtype=int)
    reason = np.full(cfg.restarts, "max_iters", dtype=object)
    live = np.arange(cfg.restarts)
    for _ in range(MAX_ITERS):
        iters[live] += 1
        done = np.linalg.norm(grad[live], axis=-1) <= GRAD_TOL
        reason[live[done]] = "grad_tol"
        live = live[~done]
        if not live.size:
            break
        cand = x[live] - step[live, None] * grad[live]
        f_cand, grad_cand = objective_value_and_grad(amp, cand, cfg)
        better = f_cand < f[live]
        acc = live[better]
        # Barzilai-Borwein step s.y / y.y from the accepted move, row by row;
        # where the curvature s.y is not positive, grow the step instead
        s, y = cand[better] - x[acc], grad_cand[better] - grad[acc]
        sy, yy = (s * y).sum(axis=-1), (y * y).sum(axis=-1)
        bb = np.divide(sy, yy, out=1.5 * step[acc], where=sy > 0.0)
        step[acc] = np.minimum(bb, STEP_MAX)
        x[acc], f[acc], grad[acc] = cand[better], f_cand[better], grad_cand[better]
        rejected[live[~better]] += 1
        step[live[~better]] *= 0.5
        stalled = ~better & (step[live] < STEP_MIN)
        reason[live[stalled]] = "step_underflow"
        live = live[~stalled]

    best = int(np.argmin(f))
    p = parametrize_projector(x[best, : d_a * d_a], d_a, cfg.rank_p)
    q = parametrize_projector(x[best, d_a * d_a :], d_b, cfg.rank_q)
    min_value, weight = product_commutator_norm(amp, p, q)
    return SearchResult(
        min_value=min_value,
        argmin_p=p,
        argmin_q=q,
        iterations_used=int(iters.sum()),
        converged=reason[best] == "grad_tol",
        cooccurrence_weight=weight,
        restart_trace=tuple(
            RestartTrace(float(f[r]), int(iters[r]), str(reason[r]), int(rejected[r]))
            for r in range(cfg.restarts)
        ),
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


def bloch_projectors(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-1 qubit projectors on the (theta, phi) grid, stacked (R*R, 2, 2), and the angles."""
    (amp0, amp1), tg, pg = _bloch_grid(resolution)
    proj = np.empty((tg.size, 2, 2), dtype=complex)
    proj[:, 0, 0] = amp0 * amp0
    proj[:, 0, 1] = amp0 * np.conj(amp1)
    proj[:, 1, 0] = amp1 * amp0
    proj[:, 1, 1] = amp1 * np.conj(amp1)
    return proj, tg, pg


def brute_force_grid_d2(
    amp: AmplitudeMatrix, resolution: int, exclude_exclusive: bool
) -> tuple[float, tuple[float, float, float, float]]:
    """Exhaustive Bloch-angle scan of rank-(1,1) pairs at dims (2, 2).

    Returns the commutator norm at the grid argmin of the (possibly
    penalized) objective, together with the argmin angles
    ``(theta_p, phi_p, theta_q, phi_q)``; ties go to the first pair in
    row-major order.  A pair ``P = |a><a|``, ``Q = |b><b|`` gives
    ``W = P amp Q^T = z |a><b̄|`` with ``z = <a|amp|b̄>``, so ``n2 = c = |z|^2``
    and ``comm2 = 2|z|^2 - 2|z|^4``: the scan needs only the overlaps
    ``Z = A^dag amp B̄`` of the R^2 grid vectors, built a block of rows at a
    time so memory stays at ``GRID_CHUNK_ENTRIES`` entries.
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
    chunk = max(1, GRID_CHUNK_ENTRIES // n)
    for start in range(0, n, chunk):
        # two outer products: a rank-2 matmul would go through BLAS, whose
        # threading costs far more than the product at these shapes
        z = np.multiply.outer(bras[0, start : start + chunk], kets[0])
        z += np.multiply.outer(bras[1, start : start + chunk], kets[1])
        n2 = z.real**2 + z.imag**2
        comm2 = 2.0 * (n2 - n2 * n2)
        obj = _with_hinge(comm2, n2, exclude_exclusive)
        a_off, b_idx = divmod(int(np.argmin(obj)), n)
        if obj[a_off, b_idx] < best_obj:
            best_obj = float(obj[a_off, b_idx])
            best_comm = float(np.sqrt(max(comm2[a_off, b_idx], 0.0)))
            best_idx = (start + a_off, b_idx)
    a_idx, b_idx = best_idx
    angles = (float(tg[a_idx]), float(pg[a_idx]), float(tg[b_idx]), float(pg[b_idx]))
    return best_comm, angles


@dataclass(frozen=True)
class DensityReport:
    """Monte Carlo scan of how often random amplitudes certify holistic."""

    dims: SystemDims
    samples: int
    rng_seed: int
    smallest_singular_values: np.ndarray
    holistic_at_least_one: np.ndarray
    holistic_both: np.ndarray
    fraction_at_least_one: float
    fraction_both: float
    fraction_smallest_below_rank_tol: float
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray


def density_scan(
    dims: SystemDims, samples: int, rng_seed: int, *, tols: Tolerances = Tolerances()
) -> DensityReport:
    """Certifier verdicts on unit-norm Ginibre samples under both conventions.

    Verdicts come from one stacked SVD through the certifier's rank rule
    (:func:`holistic_at_rank`), with no witnesses.  Samples are seeded by
    index, so the scan can be sharded without changing the aggregate.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    dims = SystemDims(int(dims[0]), int(dims[1]))
    stack = np.empty((samples, *dims), dtype=complex)
    for i in range(samples):
        g = ginibre(dims, np.random.default_rng([rng_seed, i]))
        stack[i] = g / frob(g)
    s = np.linalg.svd(stack)[1]
    rank = schmidt_rank(s, tols)
    hol_one = holistic_at_rank(rank, dims, NontrivialityConvention.AT_LEAST_ONE)
    hol_both = holistic_at_rank(rank, dims, NontrivialityConvention.BOTH)
    smin = s[:, -1]
    counts, edges = np.histogram(smin, bins=20, range=(0.0, 1.0))
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
        histogram_counts=counts,
        histogram_edges=edges,
    )


def random_product_pair(
    dims: SystemDims,
    rank_p: int,
    rank_q: int,
    rng: np.random.Generator,
    convention: NontrivialityConvention = NontrivialityConvention.BOTH,
) -> ProductProperty:
    """Haar-ish random factorized pair of the given ranks, for testing."""
    d_a, d_b = int(dims[0]), int(dims[1])
    p = parametrize_projector(rng.normal(size=d_a * d_a), d_a, rank_p)
    q = parametrize_projector(rng.normal(size=d_b * d_b), d_b, rank_q)
    return ProductProperty(p, q, convention)
