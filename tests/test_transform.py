"""Operational side: Kraus maps, repeatability, and the projector bijection."""

import numpy as np
import pytest

from mereo import (
    ChoiMatrix,
    Property,
    QuantumTransformation,
    SystemDims,
    Tolerances,
    choi,
    compose,
    extract_property,
    frob,
    from_property,
    ginibre,
    is_repeatable,
    partial_trace,
    swap_operator,
)
from doubleket_reference import kron
from search_reference import parametrize_projector

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_projector(rng, d, rank):
    return parametrize_projector(rng.normal(size=d * d), d, rank)


def apply_map(t, rho):
    return sum(k @ rho @ k.conj().T for k in t.kraus)


class TestChoi:
    def test_identity_map(self):
        c = choi(QuantumTransformation([np.eye(2)]))
        expected = np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
        )
        assert frob(c.matrix - expected) <= 1e-12

    def test_single_dyad_is_rank_one(self):
        c = choi(QuantumTransformation([np.diag([1.0, 0.0])]))
        w = np.linalg.eigvalsh(c.matrix)
        assert int(np.sum(w > 1e-9)) == 1

    def test_choi_equality_iff_map_equality(self):
        rng = np.random.default_rng(0)
        k1 = ginibre(SystemDims(2, 2), rng)
        k1 = k1 / np.linalg.svd(k1, compute_uv=False)[0]
        t1 = QuantumTransformation([k1])
        t2 = QuantumTransformation([k1 * np.exp(0.4j)])  # same map, phase on Kraus
        t3 = QuantumTransformation([0.5 * k1])           # different map
        units = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for idx, u in enumerate(units):
            u[idx // 2, idx % 2] = 1.0
        same12 = all(frob(apply_map(t1, u) - apply_map(t2, u)) <= 1e-12 for u in units)
        same13 = all(frob(apply_map(t1, u) - apply_map(t3, u)) <= 1e-12 for u in units)
        assert same12 and not same13
        assert frob(choi(t1).matrix - choi(t2).matrix) <= 1e-12
        assert frob(choi(t1).matrix - choi(t3).matrix) > 1e-3

    def test_psd_check_uses_callers_tolerances(self):
        slightly_negative = np.diag([1.0, -1e-8, 0.0, 0.0])
        ChoiMatrix(slightly_negative, d_in=2, d_out=2, tols=Tolerances())
        with pytest.raises(ValueError, match="positive semidefinite"):
            ChoiMatrix(slightly_negative, d_in=2, d_out=2, tols=Tolerances(tol_rank=1e-9))

    def test_callers_tolerances_skip_the_environment(self, monkeypatch):
        monkeypatch.setenv("MEREO_TOL_OVERRIDE", "{bad")
        tols = Tolerances()
        p = Property(np.diag([1.0, 0.0]), tols=tols)
        t = from_property(p)
        assert is_repeatable(t, tols=tols)
        assert frob(extract_property(t, tols=tols).matrix - p.matrix) <= 1e-12


class TestCompose:
    def test_identity_law(self):
        rng = np.random.default_rng(1)
        k = ginibre(SystemDims(2, 2), rng)
        k = k / (np.linalg.svd(k, compute_uv=False)[0] * 1.01)
        t = QuantumTransformation([k])
        ident = QuantumTransformation([np.eye(2)])
        assert frob(choi(compose(ident, t)).matrix - choi(t).matrix) <= 1e-12

    def test_projector_map_is_idempotent_under_composition(self):
        t = from_property(Property(np.diag([1.0, 0.0])))
        assert frob(choi(compose(t, t)).matrix - choi(t).matrix) <= 1e-12

    def test_x_squares_to_identity(self):
        t = QuantumTransformation([PAULI_X])
        ident = QuantumTransformation([np.eye(2)])
        assert frob(choi(compose(t, t)).matrix - choi(ident).matrix) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(QuantumTransformation([np.eye(2)]), QuantumTransformation([np.eye(3)]))


class TestIsRepeatable:
    def test_projector_conjugation(self):
        assert is_repeatable(from_property(Property(np.diag([1.0, 0.0]))))

    def test_rotation_is_not(self):
        theta = np.pi / 4
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
        )
        assert not is_repeatable(QuantumTransformation([u]))

    def test_contracted_projector_is_not(self):
        # the map scales by 1/4 under composition instead of 1/2
        assert not is_repeatable(QuantumTransformation([0.5 * np.diag([1.0, 0.0])]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_repeatable(QuantumTransformation([np.array([[1.0, 0.0]])]))

    def test_random_non_idempotent_maps(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = ginibre(SystemDims(3, 3), rng)
            k = k / (np.linalg.svd(k, compute_uv=False)[0] * 1.0001)
            t = QuantumTransformation([k])
            dist = frob(choi(compose(t, t)).matrix - choi(t).matrix)
            assert dist >= 1e-3


class TestFromProperty:
    def test_identity_property(self):
        t = from_property(Property(np.eye(2)))
        assert frob(choi(t).matrix - choi(QuantumTransformation([np.eye(2)])).matrix) <= 1e-12

    def test_action_on_matrix_units(self):
        t = from_property(Property(np.diag([1.0, 0.0])))
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                out = apply_map(t, unit)
                expected = np.zeros((2, 2), dtype=complex)
                if i == 0 and j == 0:
                    expected[0, 0] = 1.0
                assert frob(out - expected) <= 1e-12

    def test_outputs_always_repeatable(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            for rank in range(0, d + 1):
                if rank == 0:
                    p = Property(np.zeros((d, d)))
                elif rank == d:
                    p = Property(np.eye(d))
                else:
                    p = random_projector(rng, d, rank)
                assert is_repeatable(from_property(p))


class TestExtractProperty:
    def test_roundtrip_diagonal(self):
        p = Property(np.diag([1.0, 0.0]))
        assert frob(extract_property(from_property(p)).matrix - p.matrix) <= 1e-12

    def test_roundtrip_symmetric_subspace_projector(self):
        e = swap_operator(2)
        p = Property((np.eye(4) + e) / 2)
        out = extract_property(from_property(p))
        assert out.rank == 3
        assert frob(out.matrix - p.matrix) <= 1e-10

    def test_global_phase_cancels(self):
        rng = np.random.default_rng(4)
        p = random_projector(rng, 3, 2)
        t = QuantumTransformation([np.exp(1.3j) * p.matrix])
        assert frob(extract_property(t).matrix - p.matrix) <= 1e-10

    def test_bijection_over_dims_and_ranks(self):
        rng = np.random.default_rng(5)
        count = 0
        while count < 50:
            d = 2 + count % 4
            rank = 1 + count % (d - 1) if d > 1 else 1
            p = random_projector(rng, d, rank)
            back = extract_property(from_property(p))
            assert frob(back.matrix - p.matrix) <= 1e-10
            count += 1

    def test_derivation_chain_steps(self):
        rng = np.random.default_rng(6)
        for d in (2, 3, 4):
            p = random_projector(rng, d, 1 + d % (d - 1) if d > 2 else 1).matrix
            e = swap_operator(d)
            dims = SystemDims(d, d)
            pi_left = kron(p, np.eye(d))
            pi_right = kron(np.eye(d), p)
            step1 = partial_trace(pi_left @ e @ pi_left, dims, "first")
            step2 = partial_trace(e @ kron(p, p), dims, "first")
            step3 = partial_trace(e @ pi_left, dims, "first") @ p
            step4 = partial_trace(pi_right @ e, dims, "first") @ p
            step5 = p @ partial_trace(e, dims, "first") @ p
            assert frob(step1 - step2) <= 1e-10
            assert frob(step2 - step3) <= 1e-10
            assert frob(step3 - step4) <= 1e-10
            assert frob(step4 - step5) <= 1e-10
            assert frob(step5 - p) <= 1e-10
            assert frob(partial_trace(e, dims, "first") - np.eye(d)) <= 1e-10

    def test_rejects_non_atomic(self):
        t = QuantumTransformation([np.diag([1.0, 0.0]) / np.sqrt(2), np.diag([0.0, 1.0]) / np.sqrt(2)])
        with pytest.raises(ValueError):
            extract_property(t)

    def test_rejects_non_repeatable(self):
        with pytest.raises(ValueError):
            extract_property(QuantumTransformation([0.5 * np.diag([1.0, 0.0])]))


class TestAdmissibilityRigidity:
    def test_oblique_idempotent_violates_trace_condition(self):
        # K = [[1, 1], [0, 0]] squares to itself but sum K^dag K has top
        # eigenvalue 2, so it is not an admissible transformation
        oblique = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert frob(oblique @ oblique - oblique) <= 1e-12
        with pytest.raises(ValueError):
            QuantumTransformation([oblique])

    def test_admissible_repeatable_atomics_are_phased_projectors(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            p = random_projector(rng, d, int(rng.integers(1, d)))
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            t = QuantumTransformation([phase * p.matrix])
            assert is_repeatable(t)
            recovered = extract_property(t)
            assert frob(recovered.matrix - p.matrix) <= 1e-8
