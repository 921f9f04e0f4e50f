"""Fast kernels against their reference routes.

``product_commutator_norm`` and the lattice tables never form an operator on
the ``d_a d_b``-dimensional joint space.  These tests rebuild the joint dyad
and ``kron(P, Q)`` explicitly and require both routes to agree, across
dimensions, amplitude ranks, certifier witnesses and random pairs.  The
search gradient is a pullback to the basis coordinates; it is checked against
the route that differentiates the projector along every coordinate, and the
closed form in ``n2 = ||P amp Q^T||^2`` against the kernel on dense
projectors.  The
Bloch grid oracle reads each pair's objective off one overlap; it is checked
against the route that forms every ``W = P amp Q^T`` as a 2x2 block product.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mereo import (
    AmplitudeMatrix,
    NontrivialityConvention,
    Property,
    SystemDims,
    certify_rank1,
    frob,
    SearchConfig,
    brute_force_grid_d2,
    ginibre,
    objective_value_and_grad,
    product_commutator_norm,
    projector_from_coords,
)
from mereo import cli
from mereo.holism import commutator_norm_sq, make_holistic
from mereo.search import EXCLUDE_FLOOR
from holism_reference import lattice_from_report
from search_reference import (
    _objective_terms,
    bloch_projectors,
    dense_objective_value_and_grad,
    hermitian_from_params,
    objective,
    parametrize_projector,
    random_product_pair,
)

AGREE = 1e-12


def composite_commutator_norm(amp, p, q):
    """``||[P (x) Q, |amp>><<amp|]||_F`` on the joint space."""
    joint = np.kron(p.matrix, q.matrix)
    dyad = make_holistic(amp).matrix
    return frob(joint @ dyad - dyad @ joint)


def amp_of_rank(rng, d_a, d_b, rank):
    m = ginibre(SystemDims(d_a, rank), rng) @ ginibre(SystemDims(rank, d_b), rng)
    return AmplitudeMatrix.normalized(m)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 5), (6, 6)])
def test_replay_matches_composite_route(dims):
    d_a, d_b = dims
    rng = np.random.default_rng([17, d_a, d_b])
    for rank in range(1, min(dims) + 1):
        amp = amp_of_rank(rng, d_a, d_b, rank)
        pairs = [(Property(np.eye(d_a)), Property(np.eye(d_b)))]
        for conv in NontrivialityConvention:
            verdict = certify_rank1(amp, conv)
            for witness in (verdict.lambda1_witness, verdict.lambda0_witness):
                if witness is not None:
                    pairs.append((witness.p, witness.q))
        for rank_p in range(1, d_a):
            for rank_q in range(1, d_b):
                pairs.append(random_product_pair(dims, rank_p, rank_q, rng))
        for p, q in pairs:
            matrix_side = product_commutator_norm(amp, p, q).commutator_norm
            assert abs(matrix_side - composite_commutator_norm(amp, p, q)) <= AGREE


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 3)])
def test_general_form_holds_for_hermitian_pairs(dims):
    # the general form assumes no idempotency: any Hermitian A (x) B will do
    rng = np.random.default_rng([23, *dims])
    amp = AmplitudeMatrix.normalized(ginibre(SystemDims(*dims), rng))
    dyad = make_holistic(amp).matrix
    for _ in range(5):
        a, b = (hermitian_from_params(rng.normal(size=d * d), d) for d in dims)
        joint = np.kron(a, b)
        expected = frob(joint @ dyad - dyad @ joint) ** 2
        assert abs(commutator_norm_sq(amp.matrix, a @ amp.matrix @ b.T) - expected) <= AGREE * expected


@pytest.mark.parametrize("argv", [
    ["--preset", "bell2", "--k", "4", "--seed", "3"],
    ["--preset", "maxent3", "--k", "9", "--seed", "5"],
    ["--random-seed", "2", "--dims", "4", "4", "--k", "16", "--seed", "8"],
])
def test_lattice_tables_match_projector_products(argv, tmp_path):
    out = tmp_path / "lattice.json"
    assert cli.main(["lattice", *argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    results = report["results"]
    vecs = [m.reshape(-1) for m in lattice_from_report(report)[0]]
    assert len(vecs) == len(results["members"])
    props = [np.outer(v, v.conj()) for v in vecs]
    k = len(props)
    comm = np.array(results["pairwise_commutator_norms"])
    prod = np.array(results["pairwise_product_norms"])
    for i in range(k):
        for j in range(k):
            a, b = props[i], props[j]
            assert abs(comm[i, j] - frob(a @ b - b @ a)) <= AGREE
            assert abs(prod[i, j] - frob(a @ b)) <= AGREE


@pytest.mark.parametrize("argv", [
    ["--preset", "maxent3", "--k", "4", "--seed", "5"],
    ["--preset", "maxent3", "--k", "9", "--seed", "5"],
    ["--random-seed", "3", "--dims", "4", "5", "--k", "11", "--seed", "2"],
    ["--random-seed", "3", "--dims", "4", "5", "--k", "20", "--seed", "2"],
])
def test_completeness_deviation_matches_sum_of_member_projectors(argv, tmp_path):
    out = tmp_path / "lattice.json"
    assert cli.main(["lattice", *argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    results = report["results"]
    vecs = [m.reshape(-1) for m in lattice_from_report(report)[0]]
    assert len(vecs) == len(results["members"])
    total = sum(np.outer(v, v.conj()) for v in vecs)
    reference = frob(total - np.eye(total.shape[0]))
    assert abs(results["completeness_deviation"] - reference) <= 1e-15


def projector_and_tangents(params, d, rank):
    """Projector from basis coordinates and its derivative along each real coordinate.

    ``dPi = (I - Pi) dY G^-1 Y^dag + h.c.`` with ``G^-1 Y^dag`` the pseudo-inverse
    of ``Y``, negated on the complement side (``2 rank > d``).
    """
    k = min(rank, d - rank)
    proj = projector_from_coords(params, d, rank).matrix
    complement = 2 * rank > d
    pi = np.eye(d) - proj if complement else proj
    y = params.reshape(d, k, 2) @ np.array([1.0, 1.0j])
    units = np.eye(2 * d * k).reshape(2 * d * k, d, k, 2) @ np.array([1.0, 1.0j])
    dpi = np.einsum("ij,pjk,kl->pil", np.eye(d) - pi, units, np.linalg.pinv(y))
    dpi = dpi + dpi.conj().transpose(0, 2, 1)
    return proj, -dpi if complement else dpi


def tangent_gradient(amp, params, cfg):
    """Objective gradient as ``Re Tr[K^dag dW]`` over the tangent tensors."""
    d_a, d_b = amp.dims
    n_p = 2 * d_a * min(cfg.rank_p, d_a - cfg.rank_p)
    proj_p, dp = projector_and_tangents(params[:n_p], d_a, cfg.rank_p)
    proj_q, dq = projector_and_tangents(params[n_p:], d_b, cfg.rank_q)
    am = amp.matrix
    w = proj_p @ am @ proj_q.T
    nw = frob(w)
    k = 4.0 * (w - np.conj(np.vdot(am, w)) * am)
    if cfg.exclude_exclusive and 1e-12 < nw < EXCLUDE_FLOOR:
        k = k - (2.0 * (EXCLUDE_FLOOR - nw) / nw) * w
    grad_p = np.real(np.einsum("ij,pji->p", am @ proj_q.T @ k.conj().T, dp))
    grad_q = np.real(np.einsum("ij,pij->p", k.conj().T @ proj_p @ am, dq))
    return np.concatenate([grad_p, grad_q])


@pytest.mark.parametrize("dims", [(2, 2), (3, 4), (5, 5), (6, 6)])
def test_adjoint_gradient_matches_tangent_route(dims):
    d_a, d_b = dims
    rng = np.random.default_rng([23, d_a, d_b])
    for rank_p, rank_q in {(1, 1), (d_a - 1, d_b - 1)}:
        k_a, k_b = min(rank_p, d_a - rank_p), min(rank_q, d_b - rank_q)
        n_p = 2 * d_a * k_a
        for hinge in (False, True):
            cfg = SearchConfig(rank_p=rank_p, rank_q=rank_q, exclude_exclusive=hinge)
            # random bases, the canonical ones, and bases far from
            # orthonormal, their entries scaled over two decades
            canonical = np.concatenate([
                np.eye(d_a)[:, :k_a].astype(complex).reshape(-1).view(float),
                np.eye(d_b)[:, :k_b].astype(complex).reshape(-1).view(float),
            ])
            skewed = rng.standard_normal(canonical.size) * np.geomspace(0.1, 10.0, canonical.size)
            points = [rng.standard_normal(canonical.size) for _ in range(3)] + [canonical, skewed]
            for params in points:
                g = ginibre(SystemDims(d_a, d_b), rng)
                if hinge:
                    # keep P amp Q^T under the floor, so the hinge is active
                    p = projector_from_coords(params[:n_p], d_a, rank_p).matrix
                    g = g - (1.0 - 1e-3) * (p @ g)
                amp = AmplitudeMatrix.normalized(g)
                if hinge:
                    q = projector_from_coords(params[n_p:], d_b, rank_q)
                    assert objective(amp, Property(p), q, cfg) > objective(
                        amp, Property(p), q, SearchConfig(exclude_exclusive=False)
                    )
                _, grad = objective_value_and_grad(amp, params, cfg)
                ref = tangent_gradient(amp, params, cfg)
                assert np.linalg.norm(grad - ref) <= 1e-12 * np.linalg.norm(ref)


KERNEL_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 5), (4, 4), (4, 6), (5, 5), (6, 6), (8, 8), (12, 12)]


@pytest.mark.parametrize("dims", KERNEL_DIMS)
def test_closed_form_kernel_matches_dense_projectors(dims):
    # ranks (1, 1), maximal, mixed range/complement sides and d/2, hinge off
    # and on; half the rows scaled over two decades, far from orthonormal
    d_a, d_b = dims
    for rank_p, rank_q in sorted({(1, 1), (d_a - 1, d_b - 1), (1, d_b - 1), (d_a - 1, 1), (d_a // 2, d_b // 2)}):
        for hinge in (False, True):
            rng = np.random.default_rng([29, d_a, d_b, rank_p, rank_q, hinge])
            cfg = SearchConfig(rank_p=rank_p, rank_q=rank_q, exclude_exclusive=hinge)
            n_p = 2 * d_a * min(rank_p, d_a - rank_p)
            n = n_p + 2 * d_b * min(rank_q, d_b - rank_q)
            rows = rng.standard_normal((16, n))
            rows[8:] *= np.geomspace(0.1, 10.0, n)
            g = ginibre(SystemDims(d_a, d_b), rng)
            if hinge:
                # keep row 0's P amp Q^T under the floor, so the hinge is active there
                p = projector_from_coords(rows[0, :n_p], d_a, rank_p).matrix
                g = g - (1.0 - 1e-3) * (p @ g)
            amp = AmplitudeMatrix.normalized(g)
            f, grad = objective_value_and_grad(amp, rows, cfg)
            f_ref, grad_ref = dense_objective_value_and_grad(amp, rows, cfg)
            if hinge:
                q = projector_from_coords(rows[0, n_p:], d_b, rank_q).matrix
                assert frob(p @ amp.matrix @ q.T) < EXCLUDE_FLOOR
            assert np.max(np.abs(f - f_ref)) <= 1e-14
            err = np.linalg.norm(grad - grad_ref, axis=-1)
            assert np.all(err <= 1e-11 * np.linalg.norm(grad_ref, axis=-1))


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 6)), st.integers(0, 2**32 - 1))
def test_overlap_equals_squared_cooccurrence_weight(dims, seed):
    # <amp, P amp Q^T> = ||P amp Q^T||^2 for projectors P, Q of any ranks:
    # the identity that makes the objective a function of n2 alone
    d_a, d_b = dims
    rng = np.random.default_rng(seed)
    amp = AmplitudeMatrix.normalized(ginibre(SystemDims(d_a, d_b), rng))
    pairs = [
        (parametrize_projector(rng.normal(size=d_a * d_a), d_a, int(rng.integers(0, d_a + 1))),
         parametrize_projector(rng.normal(size=d_b * d_b), d_b, int(rng.integers(0, d_b + 1))))
        for _ in range(4)
    ]
    w = np.stack([p.matrix @ amp.matrix @ q.matrix.T for p, q in pairs])
    for w_r in w:
        assert abs(np.vdot(amp.matrix, w_r) - np.vdot(w_r, w_r).real) <= 1e-14
    # the general form over a W stack is the replay of each pair, row by row
    comm2 = commutator_norm_sq(amp.matrix, w)
    assert comm2.shape == (4,)
    for c2, (p, q) in zip(comm2, pairs):
        assert np.sqrt(c2) == product_commutator_norm(amp, p, q).commutator_norm


def block_product_grid(amp, resolution):
    """Grid minimum with and without the hinge, each as ``(min_value, objective)``.

    Every pair's ``W = P amp Q^T`` is a 2x2 block product, 256 rows of pairs
    at a time; ``min_value`` is the commutator norm at the first argmin.
    """
    proj, _, _ = bloch_projectors(resolution)
    gqt = np.einsum("ij,bjk->bik", amp.matrix, proj.transpose(0, 2, 1))
    best = {False: (np.inf, np.inf), True: (np.inf, np.inf)}
    for start in range(0, proj.shape[0], 256):
        # optimize=True contracts through tensordot, ~10x faster at R = 48
        w = np.einsum("aij,bjk->abik", proj[start : start + 256], gqt, optimize=True)
        hinged, comm2, _, _ = _objective_terms(amp.matrix, w, True)
        for hinge, obj in ((False, comm2), (True, hinged)):
            idx = np.unravel_index(np.argmin(obj), obj.shape)
            if obj[idx] < best[hinge][1]:
                best[hinge] = (float(np.sqrt(max(comm2[idx], 0.0))), float(obj[idx]))
    return best


def bloch_projector(theta, phi):
    v = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    return Property(np.outer(v, v.conj()))


GRID_AMPS = {
    "bell2": np.eye(2),
    "product2": np.diag([1.0, 0.0]),
    **{f"random{k}": ginibre(SystemDims(2, 2), np.random.default_rng([41, k])) for k in range(6)},
}


@pytest.mark.parametrize("name", GRID_AMPS)
def test_closed_form_grid_matches_block_products(name):
    amp = AmplitudeMatrix.normalized(GRID_AMPS[name])
    for resolution in (12, 24, 48):
        reference = block_product_grid(amp, resolution)
        for hinge in (False, True):
            ref_value, ref_obj = reference[hinge]
            value, (theta_p, phi_p, theta_q, phi_q) = brute_force_grid_d2(amp, resolution, hinge)
            assert abs(value - ref_value) <= 1e-15
            # tied grid points may name other angles, so compare their objective
            p, q = bloch_projector(theta_p, phi_p), bloch_projector(theta_q, phi_q)
            obj = objective(amp, p, q, SearchConfig(exclude_exclusive=hinge))
            assert abs(obj - ref_obj) <= 1e-15
