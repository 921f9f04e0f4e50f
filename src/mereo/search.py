"""Numerical commutant search over factorized projector pairs.

Independent cross-check for the analytic certifier: minimize the squared
commutator norm of ``P (x) Q`` with the joint dyad over unitarily
parametrized projectors of fixed rank.  Projectors are generated as
``U diag(1_rank, 0) U^dag`` with ``U = exp(i H(params))``, so the search
runs in an unconstrained real parameter space; gradients go through the
divided-difference (Daleckii-Krein) differential of the matrix exponential
and are validated against central finite differences.

With ``exclude_exclusive`` a hinge penalty keeps the search away from the
always-present exclusive solutions (``P @ amp @ Q.T == 0``), so the
restricted minimum probes the co-occurring branch only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import Tolerances, active_tolerances
from .doubleket import AmplitudeMatrix
from .holism import (
    NontrivialityConvention,
    ProductProperty,
    certify_rank1,
    product_commutator_norm,
)
from .linalg import SystemDims, frob, ginibre
from .properties import Property

EXCLUDE_FLOOR = 0.05  # well above tolerances, well below typical co-occurrence weights


@dataclass(frozen=True)
class SearchConfig:
    rank_p: int = 1
    rank_q: int = 1
    restarts: int = 32
    max_iters: int = 500
    step_init: float = 0.5
    grad_tol: float = 1e-8
    exclude_exclusive: bool = False
    rng_seed: int = 0


@dataclass(frozen=True)
class SearchResult:
    """Best pair found; ``min_value`` is the commutator norm at the argmin."""

    min_value: float
    argmin_p: Property
    argmin_q: Property
    iterations_used: int
    converged: bool
    cooccurrence_weight: float


@lru_cache(maxsize=None)
def _hermitian_basis(d: int) -> np.ndarray:
    """Real-parameter basis of d x d Hermitian matrices, shape (d*d, d, d).

    Layout: d diagonal units first, then (real, imaginary) pairs for each
    off-diagonal position i < j in lexicographic order.
    """
    mats = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        mats.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = 1.0
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0j
            m[j, i] = -1.0j
            mats.append(m)
    out = np.stack(mats)
    out.setflags(write=False)
    return out


def hermitian_from_params(params, d: int) -> np.ndarray:
    """Assemble the Hermitian generator from a real parameter vector."""
    params = np.asarray(params, dtype=float).reshape(-1)
    if params.size != d * d:
        raise ValueError(f"expected {d * d} parameters for dimension {d}, got {params.size}")
    return np.tensordot(params, _hermitian_basis(d), axes=(0, 0))


def parametrize_projector(params, d: int, rank: int, *, tols: Tolerances | None = None) -> Property:
    """Rank-``rank`` projector ``U diag(1_rank, 0) U^dag`` with ``U = exp(i H(params))``."""
    if not 0 <= rank <= d:
        raise ValueError(f"rank must be between 0 and {d}, got {rank}")
    h = hermitian_from_params(params, d)
    w, vmat = np.linalg.eigh(h)
    u = (vmat * np.exp(1j * w)) @ vmat.conj().T
    ur = u[:, :rank]
    return Property(ur @ ur.conj().T, tols=tols)


def _projector_and_tangents(params: np.ndarray, d: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Projector plus its derivative against every parameter, shape (d*d, d, d)."""
    basis = _hermitian_basis(d)
    h = np.tensordot(params, basis, axes=(0, 0))
    w, vmat = np.linalg.eigh(h)
    phase = np.exp(1j * w)
    # divided differences of x -> exp(ix) on the spectrum; the confluent
    # limit handles (near-)degenerate eigenvalue pairs
    dw = w[:, None] - w[None, :]
    confluent = 1j * np.exp(1j * (w[:, None] + w[None, :]) / 2.0)
    near = np.abs(dw) < 1e-9
    g = np.where(near, confluent, (phase[:, None] - phase[None, :]) / np.where(near, 1.0, dw))
    u = (vmat * phase) @ vmat.conj().T
    ur = u[:, :rank]
    proj = ur @ ur.conj().T
    m = np.einsum("ij,pjk,kl->pil", vmat.conj().T, basis, vmat)
    du = np.einsum("ij,pjk,kl->pil", vmat, g[None, :, :] * m, vmat.conj().T)
    dur = du[:, :, :rank]
    dproj = np.einsum("pik,jk->pij", dur, ur.conj()) + np.einsum("ik,pjk->pij", ur, dur.conj())
    return proj, dproj


def _pair_objective(amp_matrix: np.ndarray, proj_p: np.ndarray, proj_q: np.ndarray,
                    exclude_exclusive: bool) -> float:
    """Squared commutator norm, via the matrix-side identity, plus hinge."""
    w = proj_p @ amp_matrix @ proj_q.T
    n2 = float(np.vdot(w, w).real)
    c = complex(np.vdot(amp_matrix, w))
    f = 2.0 * n2 - 2.0 * (c.real * c.real - c.imag * c.imag)
    if exclude_exclusive:
        gap = EXCLUDE_FLOOR - np.sqrt(n2)
        if gap > 0.0:
            f += gap * gap
    return f


def objective(amp: AmplitudeMatrix, p: Property, q: Property, cfg: SearchConfig) -> float:
    """Search objective for a concrete pair: ``||[P (x) Q, dyad]||_F^2``.

    With ``cfg.exclude_exclusive`` a hinge penalty
    ``max(0, floor - ||P @ amp @ Q.T||)^2`` is added, floor 0.05.
    """
    d_a, d_b = amp.dims
    if p.dim != d_a or q.dim != d_b:
        raise ValueError(f"pair dims ({p.dim}, {q.dim}) do not match amplitude dims ({d_a}, {d_b})")
    return _pair_objective(amp.matrix, p.matrix, q.matrix, cfg.exclude_exclusive)


def objective_value_and_grad(
    amp: AmplitudeMatrix, params: np.ndarray, cfg: SearchConfig
) -> tuple[float, np.ndarray]:
    """Objective and its analytic gradient in the joint parameter vector.

    Parameters concatenate the generator of ``P`` (length ``d_a^2``) and of
    ``Q`` (length ``d_b^2``).
    """
    d_a, d_b = amp.dims
    n_p = d_a * d_a
    params = np.asarray(params, dtype=float).reshape(-1)
    if params.size != n_p + d_b * d_b:
        raise ValueError(f"expected {n_p + d_b * d_b} parameters, got {params.size}")
    proj_p, dp = _projector_and_tangents(params[:n_p], d_a, cfg.rank_p)
    proj_q, dq = _projector_and_tangents(params[n_p:], d_b, cfg.rank_q)

    am = amp.matrix
    w = proj_p @ am @ proj_q.T
    n2 = float(np.vdot(w, w).real)
    c = complex(np.vdot(am, w))
    f = 2.0 * n2 - 2.0 * (c.real * c.real - c.imag * c.imag)
    k = 4.0 * (w - np.conj(c) * am)
    if cfg.exclude_exclusive:
        nw = np.sqrt(n2)
        gap = EXCLUDE_FLOOR - nw
        if gap > 0.0:
            f += gap * gap
            if nw > 1e-12:
                k = k - (2.0 * gap / nw) * w

    # d f = Re Tr[K^dag dW] with dW = dP @ (amp Q^T) resp. (P amp) @ dQ^T
    gq = am @ proj_q.T
    lp = gq @ k.conj().T
    grad_p = np.real(np.einsum("ij,pji->p", lp, dp))
    pg = proj_p @ am
    y = k.conj().T @ pg
    grad_q = np.real(np.einsum("ij,pij->p", y, dq))
    return f, np.concatenate([grad_p, grad_q])


def minimize(amp: AmplitudeMatrix, cfg: SearchConfig, *, tols: Tolerances | None = None) -> SearchResult:
    """Multi-restart gradient descent over the projector parameters.

    Step control is plain halving on non-decrease with mild growth on
    acceptance; restarts are seeded independently by index, so enlarging
    ``cfg.restarts`` only ever adds candidates.  ``min_value`` is the
    commutator norm of the best pair from :func:`product_commutator_norm`,
    not the square root of the objective, whose cancellation hides norms
    below about 1e-8; results replay by construction.
    """
    d_a, d_b = amp.dims
    if not 0 < cfg.rank_p < d_a:
        raise ValueError(f"rank_p must satisfy 0 < rank < {d_a}, got {cfg.rank_p}")
    if not 0 < cfg.rank_q < d_b:
        raise ValueError(f"rank_q must satisfy 0 < rank < {d_b}, got {cfg.rank_q}")
    if cfg.restarts < 1 or cfg.max_iters < 1:
        raise ValueError("restarts and max_iters must be positive")
    n_params = d_a * d_a + d_b * d_b

    best_f = np.inf
    best_params = None
    best_converged = False
    total_iters = 0
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.rng_seed, restart])
        x = rng.normal(0.0, 1.5, size=n_params)
        f, grad = objective_value_and_grad(amp, x, cfg)
        step = cfg.step_init
        converged = False
        for _ in range(cfg.max_iters):
            total_iters += 1
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= cfg.grad_tol:
                converged = True
                break
            cand = x - step * grad
            f_cand, grad_cand = objective_value_and_grad(amp, cand, cfg)
            if f_cand < f:
                x, f, grad = cand, f_cand, grad_cand
                step = min(step * 1.5, 10.0)
            else:
                step *= 0.5
                if step < 1e-14:
                    break
        if f < best_f:
            best_f = f
            best_params = x
            best_converged = converged

    assert best_params is not None  # restarts >= 1 by construction
    p = parametrize_projector(best_params[: d_a * d_a], d_a, cfg.rank_p, tols=tols)
    q = parametrize_projector(best_params[d_a * d_a :], d_b, cfg.rank_q, tols=tols)
    min_value = product_commutator_norm(amp, (p, q))
    weight = frob(p.matrix @ amp.matrix @ q.matrix.T)
    return SearchResult(
        min_value=min_value,
        argmin_p=p,
        argmin_q=q,
        iterations_used=total_iters,
        converged=best_converged,
        cooccurrence_weight=weight,
    )


def bloch_projectors(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-1 qubit projectors on a (theta, phi) grid, stacked (R*R, 2, 2).

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
    amp0 = np.cos(tg / 2.0)
    amp1 = np.exp(1j * pg) * np.sin(tg / 2.0)
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
    ``(theta_p, phi_p, theta_q, phi_q)``.
    """
    if amp.dims != (2, 2):
        raise ValueError(f"grid oracle only supports dims (2, 2), got {tuple(amp.dims)}")
    proj, tg, pg = bloch_projectors(resolution)
    qt = proj.transpose(0, 2, 1)  # transpose without conjugation
    gqt = np.einsum("ij,bjk->bik", amp.matrix, qt)
    conj_amp = amp.matrix.conj()

    best_obj = np.inf
    best_comm = np.inf
    best_idx = (0, 0)
    chunk = max(1, min(proj.shape[0], 256))
    for start in range(0, proj.shape[0], chunk):
        block = proj[start : start + chunk]
        w = np.einsum("aij,bjk->abik", block, gqt)
        n2 = np.einsum("abik,abik->ab", w.conj(), w).real
        c = np.einsum("ik,abik->ab", conj_amp, w)
        f = 2.0 * n2 - 2.0 * (c.real**2 - c.imag**2)
        comm = np.sqrt(np.maximum(f, 0.0))
        obj = f
        if exclude_exclusive:
            obj = obj + np.maximum(0.0, EXCLUDE_FLOOR - np.sqrt(n2)) ** 2
        flat = int(np.argmin(obj))
        a_off, b_idx = divmod(flat, obj.shape[1])
        if obj[a_off, b_idx] < best_obj:
            best_obj = float(obj[a_off, b_idx])
            best_comm = float(comm[a_off, b_idx])
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
    dims: SystemDims, samples: int, rng_seed: int, *, tols: Tolerances | None = None
) -> DensityReport:
    """Certify unit-norm Ginibre samples under both nontriviality conventions.

    Samples are seeded by index, so the scan is deterministic for a given
    seed and can be sharded across workers without changing the aggregate.
    """
    tols = tols or active_tolerances()
    if samples < 1:
        raise ValueError("samples must be positive")
    dims = SystemDims(int(dims[0]), int(dims[1]))
    smin = np.empty(samples, dtype=float)
    hol_one = np.empty(samples, dtype=bool)
    hol_both = np.empty(samples, dtype=bool)
    for i in range(samples):
        rng = np.random.default_rng([rng_seed, i])
        g = ginibre(dims, rng)
        amp = AmplitudeMatrix.normalized(g)
        smin[i] = float(amp.singular_values[-1])
        hol_one[i] = certify_rank1(amp, NontrivialityConvention.AT_LEAST_ONE, tols=tols).holistic
        hol_both[i] = certify_rank1(amp, NontrivialityConvention.BOTH, tols=tols).holistic
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
    *,
    tols: Tolerances | None = None,
) -> ProductProperty:
    """Haar-ish random factorized pair of the given ranks, for testing."""
    d_a, d_b = int(dims[0]), int(dims[1])
    p = parametrize_projector(rng.normal(size=d_a * d_a), d_a, rank_p, tols=tols)
    q = parametrize_projector(rng.normal(size=d_b * d_b), d_b, rank_q, tols=tols)
    return ProductProperty(p, q, convention)
