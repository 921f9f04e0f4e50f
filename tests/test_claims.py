"""The paper's claims beyond the certifier: classical theory is not holistic,
and a property's compatibility is the OPT one, commuting transformations.

Classical contrast.  In the classical sub-theory every property, of any rank,
is diagonal in the product basis, so any two commute; a test that enumerated
diagonal matrices would check nothing.  What can be checked is that the
certifier agrees: its pure joint states are the atoms ``e_i e_j^T``, and each
has a co-occurring witness made of the local atoms ``e_i e_i^dag`` and
``e_j e_j^T``, so none is holistic under either convention.

OPT reading.  A property is a repeatable atomic transformation
(``from_property``).  Each certifier witness ``P (x) Q``, taken as a
transformation, commutes with the joint property's transformation, compared
on Choi matrices.  The joint projector is built here with one ``np.outer``.
"""

import numpy as np
import pytest

from mereo import (
    AmplitudeMatrix,
    NontrivialityConvention,
    Property,
    SearchConfig,
    SystemDims,
    Tolerances,
    choi,
    compose,
    frob,
    from_property,
    minimize,
)
from mereo.holism import certify
from mereo.io import preset_amplitude, random_amplitude
from search_reference import random_product_pair

CONVENTIONS = tuple(NontrivialityConvention)


def atom(d_a, d_b, i, j):
    m = np.zeros((d_a, d_b))
    m[i, j] = 1.0
    return AmplitudeMatrix.normalized(m)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_classical_atoms_are_not_holistic(dims):
    d_a, d_b = dims
    basis_a, basis_b = np.eye(d_a), np.eye(d_b)
    for i in range(d_a):
        for j in range(d_b):
            for verdict in certify(atom(d_a, d_b, i, j), CONVENTIONS):
                assert not verdict.holistic and verdict.rank == 1
                witness = verdict.lambda1_witness
                assert witness.recipe == {"kind": "leading_singular_subspaces", "rank": 1}
                assert frob(witness.p.matrix - np.outer(basis_a[i], basis_a[i])) <= Tolerances.tol_compat
                assert frob(witness.q.matrix - np.outer(basis_b[j], basis_b[j])) <= Tolerances.tol_compat


def transformation_commutator(a: Property, b: Property) -> float:
    """Choi-matrix distance between the two orders of composing the transformations of ``a`` and ``b``."""
    ta, tb = from_property(a), from_property(b)
    return frob(choi(compose(ta, tb)).matrix - choi(compose(tb, ta)).matrix)


def joint_property(amp: AmplitudeMatrix) -> Property:
    v = amp.matrix.reshape(-1)
    return Property(np.outer(v, v.conj()))


def rank2_3x3():
    u = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
    return AmplitudeMatrix(u @ np.diag([0.8, 0.6, 0.0]) @ u.T)


OPT_INPUTS = {
    "bell2": preset_amplitude("bell2"),
    "draw-2x3": random_amplitude(2, SystemDims(2, 3)),
    "draw-3x2": random_amplitude(3, SystemDims(3, 2)),
    "draw-3x3": random_amplitude(4, SystemDims(3, 3)),
    "rank2-3x3": rank2_3x3(),
    "atom-2x3": atom(2, 3, 1, 2),
}


@pytest.mark.parametrize("name", OPT_INPUTS)
def test_witness_transformations_commute_with_the_joint_one(name):
    amp = OPT_INPUTS[name]
    joint = joint_property(amp)
    witnesses = [w for verdict in certify(amp, CONVENTIONS)
                 for w in (verdict.lambda1_witness, verdict.lambda0_witness) if w is not None]
    assert witnesses
    for w in witnesses:
        pair = Property(np.kron(w.p.matrix, w.q.matrix))
        assert transformation_commutator(pair, joint) <= Tolerances.tol_compat


@pytest.mark.parametrize("name", OPT_INPUTS)
def test_noncommuting_pairs_give_noncommuting_transformations(name):
    # random pairs commute in neither sense; the search argmin of a holistic
    # input, whose minimum is above 0, commutes in neither sense either
    amp = OPT_INPUTS[name]
    joint = joint_property(amp)
    rng = np.random.default_rng(list(OPT_INPUTS).index(name))
    pairs = [random_product_pair(amp.dims, 1, 1, rng) for _ in range(3)]
    if all(verdict.holistic for verdict in certify(amp, CONVENTIONS)):
        argmin = minimize(amp, SearchConfig(restarts=4, exclude_exclusive=True, rng_seed=0)).argmin
        assert argmin.commutator_norm > Tolerances.tol_compat
        pairs.append((argmin.p, argmin.q))
    for p, q in pairs:
        pair = Property(np.kron(p.matrix, q.matrix))
        projector_norm = frob(pair.matrix @ joint.matrix - joint.matrix @ pair.matrix)
        assert projector_norm > Tolerances.tol_compat
        assert transformation_commutator(pair, joint) > Tolerances.tol_compat
