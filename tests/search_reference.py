"""Search helpers that only the tests use, as references for the stacked kernel.

``objective`` evaluates the search objective at a concrete pair of
projectors, where the library only evaluates it at basis coordinates;
``parametrize_projector`` builds a projector through the exponential map,
a random-projector source independent of the search's coordinates;
``random_product_pair`` draws a factorized pair of given ranks;
``bloch_projectors`` stacks the projectors of the oracle's Bloch grid;
``grid_scan`` is the oracle's scan in one unblocked pass over all R^4 pairs,
the bit-for-bit reference for its blocked loop;
``dense_objective_value_and_grad`` is the search kernel on dense ``d x d``
projectors, with the cotangent of ``W = P amp Q^T`` pulled back through
``S = (L + L^dag) / 2``, the reference for the library's closed form in
``n2 = ||W||^2``; ``descend_one_by_one`` is the descent of ``minimize``, one
restart at a time in plain Python, the reference for its stacked loop.
"""

import numpy as np

from mereo import (
    AmplitudeMatrix,
    Property,
    SearchConfig,
    SystemDims,
    search,
)
from mereo.properties import smaller_side
from mereo.search import EXCLUDE_FLOOR, HINGE_NORM_MIN, _adj, _bases, _bloch_grid


def hermitian_from_params(params, d: int) -> np.ndarray:
    """Hermitian generators from real parameters of shape ``(..., d*d)``.

    Layout: d diagonal entries first, then the (real, imaginary) parts of
    ``H[i, j]`` for each off-diagonal position i < j in lexicographic order.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim == 0 or params.shape[-1] != d * d:
        raise ValueError(f"expected {d * d} parameters for dimension {d}, got {params.shape[-1:] or 1}")
    h = np.zeros(params.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    i, j = np.triu_indices(d, 1)
    h.real[..., diag, diag] = params[..., :d]
    h.real[..., i, j] = h.real[..., j, i] = params[..., d::2]
    h.imag[..., i, j] = params[..., d + 1 :: 2]
    h.imag[..., j, i] = -params[..., d + 1 :: 2]
    return h


def parametrize_projector(params, d: int, rank: int) -> Property:
    """Rank-``rank`` projector ``U diag(1_rank, 0) U^dag`` with ``U = exp(i H(params))``.

    Built by ``Property.from_unitary``: from the columns of ``U`` on its
    smaller side, so above ``rank = d / 2`` as ``I - U_c U_c^dag``.
    """
    if not 0 <= rank <= d:
        raise ValueError(f"rank must be between 0 and {d}, got {rank}")
    w, v = np.linalg.eigh(hermitian_from_params(np.asarray(params, dtype=float).reshape(-1), d))
    return Property.from_unitary((v * np.exp(1j * w)) @ v.conj().T, rank)


def _projectors(params: np.ndarray, d: int, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked projectors ``P`` from basis coordinates, and ``Pi``, ``Z = Y G^-1`` for the gradient."""
    y = _bases(params, d, smaller_side(d, rank)[0])
    z = y @ np.linalg.inv(_adj(y) @ y)
    pi = z @ _adj(y)
    return (np.eye(d) - pi if 2 * rank > d else pi), pi, z


def _basis_gradient(pi: np.ndarray, z: np.ndarray, lmat: np.ndarray, complement: bool) -> np.ndarray:
    """Gradient of ``Re Tr[L dP]`` in the basis coordinates of ``P``, one row per stacked pair.

    ``dPi = (I - Pi) dY G^-1 Y^dag + h.c.`` gives ``Re Tr[L dPi] = Re Tr[grad^dag dY]``
    with ``grad = 2 (I - Pi) S Y G^-1`` and ``S = (L + L^dag) / 2``; ``dP = -dPi``
    on the complement side.  The real gradient reads ``(Re, Im)`` of ``grad``
    in the layout of ``projector_from_coords``.
    """
    sz = (lmat + _adj(lmat)) @ z
    grad = sz - pi @ sz
    if complement:
        grad = -grad
    return grad.reshape(grad.shape[0], -1).view(float)


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
    f = comm2 + np.maximum(0.0, EXCLUDE_FLOOR - np.sqrt(n2)) ** 2 if exclude_exclusive else comm2
    return f, comm2, n2, c


def dense_objective_value_and_grad(
    amp: AmplitudeMatrix, params: np.ndarray, cfg: SearchConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Objective and gradient of stacked coordinate rows ``(rows, n)`` through dense projectors.

    ``d f = Re Tr[K^dag dW]`` with ``K = 4 (W - conj(c) amp)``, less the hinge
    term; ``dW = dP (amp Q^T)`` gives ``L_P = amp Q^T K^dag`` and
    ``dW = (P amp) dQ^T`` gives ``L_Q = (K^dag P amp)^T``.
    """
    d_a, d_b = amp.dims
    n_p = 2 * d_a * smaller_side(d_a, cfg.rank_p)[0]
    x = np.asarray(params, dtype=float)
    proj_p, pi_p, z_p = _projectors(x[:, :n_p], d_a, cfg.rank_p)
    proj_q, pi_q, z_q = _projectors(x[:, n_p:], d_b, cfg.rank_q)
    proj_q_t = proj_q.swapaxes(-1, -2)

    am = amp.matrix
    w = proj_p @ am @ proj_q_t
    f, _, n2, c = _objective_terms(am, w, cfg.exclude_exclusive)
    k = 4.0 * (w - np.conj(c)[:, None, None] * am)
    if cfg.exclude_exclusive:
        nw = np.sqrt(n2)
        gap = EXCLUDE_FLOOR - nw
        hinged = (gap > 0.0) & (nw > HINGE_NORM_MIN)
        k = k - np.where(hinged, 2.0 * gap / np.where(hinged, nw, 1.0), 0.0)[:, None, None] * w

    grad_p = _basis_gradient(pi_p, z_p, am @ proj_q_t @ _adj(k), 2 * cfg.rank_p > d_a)
    grad_q = _basis_gradient(pi_q, z_q, (_adj(k) @ proj_p @ am).swapaxes(-1, -2), 2 * cfg.rank_q > d_b)
    return f, np.concatenate([grad_p, grad_q], axis=-1)


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


def random_product_pair(
    dims: SystemDims, rank_p: int, rank_q: int, rng: np.random.Generator
) -> tuple[Property, Property]:
    """Factorized pair ``(p, q)`` of the given ranks from normal generator parameters."""
    d_a, d_b = int(dims[0]), int(dims[1])
    p = parametrize_projector(rng.normal(size=d_a * d_a), d_a, rank_p)
    q = parametrize_projector(rng.normal(size=d_b * d_b), d_b, rank_q)
    return p, q


def bloch_projectors(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-1 qubit projectors on the (theta, phi) grid, stacked (R*R, 2, 2), and the angles."""
    (amp0, amp1), tg, pg = _bloch_grid(resolution)
    proj = np.empty((tg.size, 2, 2), dtype=complex)
    proj[:, 0, 0] = amp0 * amp0
    proj[:, 0, 1] = amp0 * np.conj(amp1)
    proj[:, 1, 0] = amp1 * amp0
    proj[:, 1, 1] = amp1 * np.conj(amp1)
    return proj, tg, pg


def grid_scan(
    amp: AmplitudeMatrix, resolution: int, exclude_exclusive: bool
) -> tuple[float, tuple[float, float, float, float]]:
    """``brute_force_grid_d2`` as one pass over the full R^2 x R^2 overlap matrix.

    The same arithmetic per entry: ``z = a0 k0 + a1 k1`` from two outer
    products, ``n2 = re^2 + im^2``, ``comm2 = 2 (n2 - n2^2)``, the hinge
    ``max(EXCLUDE_FLOOR - sqrt(n2), 0)^2`` added to every entry, and the
    first minimum in row-major order.
    """
    vecs, tg, pg = _bloch_grid(resolution)
    bras = vecs.conj()
    kets = amp.matrix @ bras
    z = np.multiply.outer(bras[0], kets[0]) + np.multiply.outer(bras[1], kets[1])
    n2 = np.square(z.real) + np.square(z.imag)
    comm2 = 2.0 * (n2 - n2 * n2)
    obj = comm2 + np.square(np.maximum(EXCLUDE_FLOOR - np.sqrt(n2), 0.0)) if exclude_exclusive else comm2
    a, b = divmod(int(np.argmin(obj)), tg.size)
    return float(np.sqrt(max(comm2[a, b], 0.0))), (float(tg[a]), float(pg[a]), float(tg[b]), float(pg[b]))


def descend_one_by_one(amp: AmplitudeMatrix, starts: np.ndarray, cfg: SearchConfig) -> list[tuple]:
    """Per start row, ``(final coordinates, objective, iterations, stop_reason, rejected)``.

    The rule of ``search.minimize`` for a single restart: stop at a gradient
    norm of ``GRAD_TOL``; else try ``x - step * grad``, keep it if it lowers
    the objective and take the Barzilai-Borwein step ``s.y / y.y`` (1.5 times
    the last where ``s.y <= 0``) capped at ``STEP_MAX``, else halve the step
    and stop below ``STEP_MIN``; stop after ``MAX_ITERS`` iterations.  The
    stop test and the ``s.y``, ``y.y`` sums are the ``np.vecdot`` calls of the
    stacked loop, so the arithmetic is the same: on real rows ``vecdot`` is a
    BLAS dot, which rounds a cancelling ``s.y`` differently from a row sum.
    """
    kernel = search.objective_value_and_grad
    out = []
    for x in starts:
        f, grad = kernel(amp, x, cfg)
        step, rejected, reason, iterations = search.STEP_INIT, 0, "max_iters", search.MAX_ITERS
        for it in range(1, search.MAX_ITERS + 1):
            if np.vecdot(grad, grad) <= search.GRAD_TOL * search.GRAD_TOL:
                reason, iterations = "grad_tol", it
                break
            cand = x - step * grad
            f_cand, grad_cand = kernel(amp, cand, cfg)
            if f_cand < f:
                s, y = cand - x, grad_cand - grad
                sy = np.vecdot(s, y)
                step = min(sy / np.vecdot(y, y) if sy > 0.0 else 1.5 * step, search.STEP_MAX)
                x, f, grad = cand, f_cand, grad_cand
            else:
                rejected += 1
                step *= 0.5
                if step < search.STEP_MIN:
                    reason, iterations = "step_underflow", it
                    break
        out.append((x, f, iterations, reason, rejected))
    return out
