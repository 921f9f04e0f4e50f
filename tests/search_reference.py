"""Search helpers that only the tests use, as references for the stacked kernel.

``objective`` evaluates the search objective at a concrete pair of
projectors, where the library only evaluates it at basis coordinates;
``parametrize_projector`` builds a projector through the exponential map,
a random-projector source independent of the search's coordinates;
``random_product_pair`` draws a factorized pair of given ranks;
``bloch_projectors`` stacks the projectors of the oracle's Bloch grid.
"""

import numpy as np

from mereo import AmplitudeMatrix, NontrivialityConvention, ProductProperty, Property, SearchConfig, SystemDims
from mereo.search import _bloch_grid, _objective_terms


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
    dims: SystemDims,
    rank_p: int,
    rank_q: int,
    rng: np.random.Generator,
    convention: NontrivialityConvention = NontrivialityConvention.BOTH,
) -> ProductProperty:
    """Factorized pair of the given ranks from normal generator parameters."""
    d_a, d_b = int(dims[0]), int(dims[1])
    p = parametrize_projector(rng.normal(size=d_a * d_a), d_a, rank_p)
    q = parametrize_projector(rng.normal(size=d_b * d_b), d_b, rank_q)
    return ProductProperty(p, q, convention)


def bloch_projectors(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-1 qubit projectors on the (theta, phi) grid, stacked (R*R, 2, 2), and the angles."""
    (amp0, amp1), tg, pg = _bloch_grid(resolution)
    proj = np.empty((tg.size, 2, 2), dtype=complex)
    proj[:, 0, 0] = amp0 * amp0
    proj[:, 0, 1] = amp0 * np.conj(amp1)
    proj[:, 1, 0] = amp1 * amp0
    proj[:, 1, 1] = amp1 * np.conj(amp1)
    return proj, tg, pg
