"""Matrix-side commutator replay against the composite-space route.

``product_commutator_norm`` and the lattice tables never form an operator on
the ``d_a d_b``-dimensional joint space.  These tests rebuild the joint dyad
and ``kron(P, Q)`` explicitly and require both routes to agree, across
dimensions, amplitude ranks, certifier witnesses and random pairs.
"""

import json

import numpy as np
import pytest

from mereo import (
    AmplitudeMatrix,
    NontrivialityConvention,
    Property,
    SystemDims,
    certify_rank1,
    frob,
    ginibre,
    make_holistic,
    product_commutator_norm,
    random_product_pair,
)
from mereo import cli
from mereo.io import matrix_from_json_dict

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
                pair = random_product_pair(dims, rank_p, rank_q, rng)
                pairs.append((pair.p, pair.q))
        for p, q in pairs:
            matrix_side = product_commutator_norm(amp, (p, q))
            assert abs(matrix_side - composite_commutator_norm(amp, p, q)) <= AGREE


@pytest.mark.parametrize("argv", [
    ["--preset", "bell2", "--k", "4", "--seed", "3"],
    ["--preset", "maxent3", "--k", "9", "--seed", "5"],
    ["--random-seed", "2", "--dims", "4", "4", "--k", "16", "--seed", "8"],
])
def test_lattice_tables_match_projector_products(argv, tmp_path):
    out = tmp_path / "lattice.json"
    assert cli.main(["lattice", *argv, "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    props = [matrix_from_json_dict(m["projector"]) for m in results["members"]]
    k = len(props)
    comm = np.array(results["pairwise_commutator_norms"])
    prod = np.array(results["pairwise_product_norms"])
    for i in range(k):
        for j in range(k):
            a, b = props[i], props[j]
            assert abs(comm[i, j] - frob(a @ b - b @ a)) <= AGREE
            assert abs(prod[i, j] - frob(a @ b)) <= AGREE
