"""Property calculus: construction, compatibility, and state membership."""

import numpy as np
import pytest

from mereo import (
    Property,
    State,
    Verdict,
    compatible,
    frob,
    has_property,
    is_nontrivial,
    mutually_exclusive,
    property_from_span,
    symmetric_projector,
)
from mereo.properties import smaller_side

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def basis_vec(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def random_projector(rng, d, rank):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    cols = q[:, :rank]
    return Property(cols @ cols.conj().T)


def gram_rank(vectors, tol=1e-7):
    """Independent rank oracle: eigenvalues of the Gram matrix."""
    g = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
    w = np.linalg.eigvalsh(g)
    return int(np.sum(w > tol))


class TestPropertyType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            Property(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            Property(0.5 * np.eye(2))

    def test_generated_projectors_have_binary_spectrum(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 4):
            for rank in range(0, d + 1):
                g = rng.standard_normal((d, max(rank, 1))) + 1j * rng.standard_normal((d, max(rank, 1)))
                p = property_from_span([g[:, i] for i in range(rank)], d)
                w = np.linalg.eigvalsh(p.matrix)
                assert np.all(np.minimum(np.abs(w), np.abs(w - 1)) <= 1e-7)
                assert p.rank == rank


class TestSmallerSide:
    # (2, 1) and (4, 2) are ties, which keep the range
    @pytest.mark.parametrize("d, rank", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (6, 5)])
    def test_rule_and_from_unitary_follow_it(self, d, rank):
        k, complement = min(rank, d - rank), 2 * rank > d
        assert smaller_side(d, rank) == (k, complement)
        rng = np.random.default_rng(d + rank)
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        p = Property.from_unitary(u, rank)
        assert p.basis.shape == (d, k) and p.complement is complement and p.rank == rank
        assert frob(p.matrix - u[:, :rank] @ u[:, :rank].conj().T) <= 1e-12


class TestPropertyFromSpan:
    def test_single_basis_vector(self):
        p = property_from_span([basis_vec(0, 2)], 2)
        assert np.allclose(p.matrix, np.diag([1.0, 0.0]))

    def test_even_subspace(self):
        v1 = basis_vec(0, 4) + basis_vec(2, 4)
        v2 = basis_vec(0, 4) - basis_vec(2, 4)
        p = property_from_span([v1, v2], 4)
        assert np.allclose(p.matrix, np.diag([1.0, 0.0, 1.0, 0.0]))
        assert p.rank == 2

    def test_dependent_vectors_rank_matches_gram_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c = 0.3 * a - 1.7 * b
        vectors = [a, b, c]
        p = property_from_span(vectors, 4)
        assert p.rank == 2
        assert p.rank == gram_rank(vectors)

    def test_empty_and_zero_spans_are_trivial(self):
        for vecs in ([], [np.zeros(3)]):
            p = property_from_span(vecs, 3)
            assert p.rank == 0
            assert not is_nontrivial(p)


class TestNontrivial:
    def test_zero_is_trivial(self):
        assert not is_nontrivial(Property(np.zeros((2, 2))))

    def test_identity_is_trivial(self):
        assert not is_nontrivial(Property(np.eye(3)))

    def test_proper_projector_is_nontrivial(self):
        assert is_nontrivial(Property(np.diag([1.0, 0.0])))


class TestCompatibility:
    def test_commuting_diagonals(self):
        flag, norm = compatible(Property(np.diag([1.0, 0.0])), Property(np.diag([0.0, 1.0])))
        assert flag and norm <= 1e-12

    def test_up_vs_sideways(self):
        # hand computation: PQ - QP = [[0, 1/2], [-1/2, 0]], norm 1/sqrt(2)
        up = Property(np.diag([1.0, 0.0]))
        side = Property((np.eye(2) + PAULI_X) / 2)
        flag, norm = compatible(up, side)
        assert not flag
        assert abs(norm - 0.7071067811865476) <= 1e-12

    def test_self_commutation(self):
        rng = np.random.default_rng(2)
        p = random_projector(rng, 3, 2)
        flag, norm = compatible(p, p)
        assert flag and norm <= 1e-12

    def test_symmetry_and_product_link(self):
        rng = np.random.default_rng(3)
        # commuting pairs share an eigenbasis
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q_mat, _ = np.linalg.qr(g)
        p = Property(q_mat[:, :2] @ q_mat[:, :2].conj().T)
        q = Property(q_mat[:, 1:3] @ q_mat[:, 1:3].conj().T)
        assert compatible(p, q)[0] == compatible(q, p)[0]
        # the product of commuting projectors is a projector (Property checks idempotency)
        assert compatible(p, q)[0]
        Property(p.matrix @ q.matrix)
        # non-commuting pair
        a = random_projector(rng, 4, 2)
        b = random_projector(rng, 4, 2)
        assert compatible(a, b)[0] == compatible(b, a)[0]


class TestProductIfProperty:
    def test_commuting_diagonals(self):
        p = Property(np.diag([1.0, 1.0, 0.0, 0.0]))
        q = Property(np.diag([1.0, 0.0, 1.0, 0.0]))
        assert compatible(p, q)[0]
        out = Property(p.matrix @ q.matrix)
        assert np.allclose(out.matrix, np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_incompatible_pair_product_is_not_a_property(self):
        up = Property(np.diag([1.0, 0.0]))
        side = Property((np.eye(2) + PAULI_X) / 2)
        assert not compatible(up, side)[0]
        with pytest.raises(ValueError, match="not Hermitian"):
            Property(up.matrix @ side.matrix)

    def test_identity_absorbs(self):
        rng = np.random.default_rng(4)
        p = random_projector(rng, 3, 1)
        identity = Property(np.eye(3))
        assert compatible(p, identity)[0]
        out = Property(p.matrix @ identity.matrix)
        assert frob(out.matrix - p.matrix) <= 1e-12


class TestMutualExclusion:
    def test_orthogonal_ranges(self):
        assert mutually_exclusive(Property(np.diag([1.0, 0.0])), Property(np.diag([0.0, 1.0])))

    def test_self_is_not_exclusive(self):
        p = Property(np.diag([1.0, 0.0]))
        assert not mutually_exclusive(p, p)

    def test_exclusive_implies_compatible(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q_mat, _ = np.linalg.qr(g)
        p = Property(q_mat[:, :2] @ q_mat[:, :2].conj().T)
        q = Property(q_mat[:, 2:] @ q_mat[:, 2:].conj().T)
        assert mutually_exclusive(p, q)
        assert compatible(p, q)[0]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_basis_achieves_maximum_family(self, d):
        family = [Property(np.diag([1.0 if i == j else 0.0 for j in range(d)])) for i in range(d)]
        assert len(family) == d
        for i in range(d):
            for j in range(i + 1, d):
                assert mutually_exclusive(family[i], family[j])
        # pairwise exclusivity makes the ranges orthogonal, so the ranks add
        total = sum(p.matrix for p in family)
        summed_rank = int(np.sum(np.linalg.eigvalsh(total) > 0.5))
        assert summed_rank == sum(p.rank for p in family) <= d


class TestHasProperty:
    def test_two_level_verdicts(self):
        up_state = State(np.diag([1.0, 0.0]))
        up = Property(np.diag([1.0, 0.0]))
        down = Property(np.diag([0.0, 1.0]))
        assert has_property(up_state, up).verdict is Verdict.HAS
        assert has_property(up_state, down).verdict is Verdict.HAS_NOT
        side = (basis_vec(0, 2) + basis_vec(1, 2)) / np.sqrt(2)
        side_state = State(np.outer(side, side))
        assert has_property(side_state, up).verdict is Verdict.MEANINGLESS

    def test_even_subspace_members(self):
        even = property_from_span([basis_vec(0, 4), basis_vec(2, 4)], 4)
        mixed = State(0.25 * np.diag([1.0, 0, 0, 0]) + 0.75 * np.diag([0, 0, 1.0, 0]))
        assert has_property(mixed, even).verdict is Verdict.HAS
        sup = (basis_vec(0, 4) + basis_vec(2, 4)) / np.sqrt(2)
        assert has_property(State(np.outer(sup, sup)), even).verdict is Verdict.HAS

    def test_overlap_is_diagnostic_only(self):
        side = (basis_vec(0, 2) + basis_vec(1, 2)) / np.sqrt(2)
        check = has_property(State(np.outer(side, side)), Property(np.diag([1.0, 0.0])))
        assert check.verdict is Verdict.MEANINGLESS
        assert abs(check.overlap - 0.5) <= 1e-12

    def test_pure_state_cross_check(self):
        # for pure states the support test reduces to eigenvector conditions
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_projector(rng, 4, rng.integers(1, 4))
            kind = rng.integers(3)
            if kind == 0:  # inside the range
                seed = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                v = p.matrix @ seed
            elif kind == 1:  # inside the kernel
                seed = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                v = (np.eye(4) - p.matrix) @ seed
            else:
                v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            if np.linalg.norm(v) < 1e-6:
                continue
            v = v / np.linalg.norm(v)
            verdict = has_property(State(np.outer(v, v.conj())), p).verdict
            if np.linalg.norm(p.matrix @ v - v) <= 1e-9:
                assert verdict is Verdict.HAS
            elif np.linalg.norm(p.matrix @ v) <= 1e-9:
                assert verdict is Verdict.HAS_NOT
            else:
                assert verdict is Verdict.MEANINGLESS

    def test_trichotomy_conditions_never_overlap(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_projector(rng, 3, rng.integers(1, 3))
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho_m = g @ g.conj().T
            rho_m /= np.trace(rho_m).real
            rho = State(rho_m)
            comp = np.eye(3) - p.matrix
            fires_has = frob(p.matrix @ rho_m @ p.matrix - rho_m) <= 1e-9
            fires_not = frob(comp @ rho_m @ comp - rho_m) <= 1e-9
            assert not (fires_has and fires_not)
            assert has_property(rho, p).verdict in (Verdict.HAS, Verdict.HAS_NOT, Verdict.MEANINGLESS)


class TestSymmetricProjector:
    def test_rank_and_membership(self):
        sym = symmetric_projector(2)
        assert sym.rank == 3
        both_up = np.zeros(4)
        both_up[0] = 1.0
        assert has_property(State(np.outer(both_up, both_up)), sym).verdict is Verdict.HAS

    def test_singlet_is_antisymmetric(self):
        sym = symmetric_projector(2)
        singlet = np.zeros(4)
        singlet[1] = 1.0 / np.sqrt(2)
        singlet[2] = -1.0 / np.sqrt(2)
        assert has_property(State(np.outer(singlet, singlet)), sym).verdict is Verdict.HAS_NOT

    @pytest.mark.parametrize("d", [2, 3])
    def test_idempotent_because_swap_involutes(self, d):
        sym = symmetric_projector(d)
        assert frob(sym.matrix @ sym.matrix - sym.matrix) <= 1e-12
        assert sym.rank == d * (d + 1) // 2


class TestStateValidation:
    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError):
            State(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            State(np.eye(2))

    def test_rank_deficient_states_are_fine(self):
        State(np.diag([1.0, 0.0, 0.0]))
