"""Lattice and Gram-Schmidt helpers that only the tests use, as references.

``mgs_lattice`` is the draw-by-draw completion that ``lattice_amplitudes``
replaced with one QR: two passes of modified Gram-Schmidt per draw, redrawing
dependent draws from the same stream.  ``pairwise_tables_loop`` is the
row-by-row form of the lattice report's commutator and product tables.
``gram_schmidt_hs`` and ``holistic_lattice`` are the general Gram-Schmidt and
the d_a*d_b-square dyad lattice, which the command line does not use.
``lattice_results_loop`` is the ``lattice`` command's ``results`` built one
``AmplitudeMatrix`` per member, each with its own SVD;
``rank2_3x3_matrix`` is a rank-deficient input for it.
``lattice_from_report`` rebuilds a ``lattice`` report's members from its
``gamma_source``, ``k`` and ``seed`` by the README's recipe, in plain numpy.
"""

import warnings

import numpy as np

from mereo import AmplitudeMatrix, Property, SystemDims, Tolerances, frob, ginibre
from mereo import NontrivialityConvention, lattice_amplitudes
from mereo.cli import _resolve_amplitude
from mereo.holism import (
    LATTICE_REDRAW_NORM,
    commutator_norm_sq_from_n2,
    holistic_at_rank,
    make_holistic,
    schmidt_rank,
)
from mereo.io import load_matrix, preset_amplitude, random_amplitude
from mereo.linalg import as_matrix


def _project_out(residual: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Remove the HS components along an orthonormal ``basis``, in two passes."""
    for _ in range(2):
        for b in basis:
            residual = residual - np.vdot(b, residual) * b
    return residual


def gram_schmidt_hs(
    candidates, dims: SystemDims, *, tols: Tolerances = Tolerances()
) -> list[AmplitudeMatrix]:
    """Orthonormalize matrices under the Hilbert-Schmidt inner product.

    Linearly dependent inputs are dropped with a warning; an input list
    that spans nothing raises.
    """
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


def mgs_lattice(amp: AmplitudeMatrix, k: int, rng_seed: int) -> list[np.ndarray]:
    """``k`` HS-orthonormal matrices from ``amp`` and successive ``ginibre`` draws."""
    rng = np.random.default_rng(rng_seed)
    family = [amp.matrix.astype(complex)]
    while len(family) < k:
        residual = _project_out(ginibre(amp.dims, rng), family)
        norm = frob(residual)
        if norm > LATTICE_REDRAW_NORM:
            family.append(residual / norm)
    return family


def rank2_3x3_matrix() -> np.ndarray:
    """A unit-norm 3x3 matrix of rank 2: its last singular value is rounding, far below ``tol_rank``."""
    rng = np.random.default_rng(17)
    u = np.linalg.qr(ginibre(SystemDims(3, 3), rng))[0]
    v = np.linalg.qr(ginibre(SystemDims(3, 3), rng))[0]
    return u[:, :2] @ np.diag([0.8, 0.6]) @ v[:, :2].conj().T


def holistic_lattice(
    amp: AmplitudeMatrix, k: int, rng_seed: int, *, tols: Tolerances = Tolerances()
) -> list[Property]:
    """``k`` pairwise mutually exclusive rank-1 joint properties seeded by ``amp``."""
    return [make_holistic(AmplitudeMatrix(m), tols=tols) for m in lattice_amplitudes(amp, k, rng_seed)]


def pairwise_tables_loop(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Commutator and product norms of the rank-1 projectors onto the rows of ``vecs``.

    One Gram row at a time: ``||P_i P_j|| = |g_ij|`` and
    ``||[P_i, P_j]|| = sqrt(2) |g_ij| ||v_j - g_ij v_i||``.
    """
    comm = np.empty((len(vecs), len(vecs)))
    prod = np.empty_like(comm)
    for i, v in enumerate(vecs):
        g = vecs @ v.conj()
        prod[i] = np.abs(g)
        comm[i] = np.sqrt(2.0) * prod[i] * np.linalg.norm(vecs - g[:, None] * v, axis=1)
    return comm, prod


def lattice_results_loop(args, tols: Tolerances) -> dict:
    """``results`` of ``mereo lattice`` for parsed ``args``, member by member."""
    amp, source = _resolve_amplitude(args)
    members = [AmplitudeMatrix(m) for m in lattice_amplitudes(amp, args.k, args.seed)]
    conv = NontrivialityConvention(args.convention)
    ranks = schmidt_rank(np.array([m.singular_values for m in members]), tols)
    holistic = holistic_at_rank(ranks, amp.dims, conv)
    vecs = np.array([m.matrix.reshape(-1) for m in members])
    prod = np.abs(vecs.conj() @ vecs.T)
    n2 = prod * prod
    np.fill_diagonal(n2, 1.0)
    comm = np.sqrt(commutator_norm_sq_from_n2(n2))
    member_records = [
        {
            "rank": int(rank),
            "holistic": bool(hol),
            "smallest_singular_value": float(m.singular_values[-1]),
        }
        for m, rank, hol in zip(members, ranks, holistic)
    ]
    return {
        "gamma_source": source,
        "dims": list(amp.dims),
        "k": args.k,
        "convention": conv.value,
        "members": member_records,
        "pairwise_commutator_norms": comm.tolist(),
        "pairwise_product_norms": prod.tolist(),
        "completeness_deviation": frob(vecs.T @ vecs.conj() - np.eye(vecs.shape[1])),
    }


def lattice_from_report(report: dict) -> tuple[np.ndarray, int]:
    """The members of a ``lattice`` report, rebuilt by the README's recipe, and the draws it skipped.

    Draw ``j`` is the ``j``-th ``(2, d_a d_b)`` block of standard normals of
    ``default_rng(seed)``, ``(re + 1j im) / sqrt(2)``.  Draws are taken in
    stream order; one whose ``|R_jj|`` in the QR of the columns kept so far
    and itself is at or below ``LATTICE_REDRAW_NORM`` is skipped.  The
    members are the columns of ``Q`` from one QR of ``[vec(amp), kept]``,
    each times the phase ``R_jj / |R_jj|``, with member 0 the input.
    """
    source, echo = report["results"]["gamma_source"], report["config_echo"]
    if source["kind"] == "preset":
        amp = preset_amplitude(source["name"]).matrix
    elif source["kind"] == "random":
        amp = random_amplitude(source["seed"], SystemDims(*source["dims"])).matrix
    else:
        amp = load_matrix(source["path"])
        amp = amp / np.linalg.norm(amp)
    k, (d_a, d_b) = echo["k"], amp.shape
    rng = np.random.default_rng(echo["seed"])
    columns, skipped = [amp.reshape(-1)], 0
    while len(columns) < k:
        block = rng.standard_normal((2, d_a * d_b))
        draw = (block[0] + 1j * block[1]) / np.sqrt(2.0)
        r = np.linalg.qr(np.column_stack([*columns, draw]))[1]
        if abs(r[-1, -1]) <= LATTICE_REDRAW_NORM:
            skipped += 1
        else:
            columns.append(draw)
    q, r = np.linalg.qr(np.column_stack(columns))
    diag = np.diagonal(r)
    members = (q * (diag / np.abs(diag))).T.reshape(k, d_a, d_b)
    members[0] = amp
    return members, skipped
