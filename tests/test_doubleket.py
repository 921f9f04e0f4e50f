"""Vectorization conventions: the one spot where two index orders must agree."""

import numpy as np
import pytest

from mereo import (
    AmplitudeMatrix,
    DoubleKet,
    SystemDims,
    apply_local,
    frob,
    hs_inner,
    kron,
    swap_operator,
    symmetric_projector,
    unvec,
    vec,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_amp(rng, d_a, d_b):
    g = rng.standard_normal((d_a, d_b)) + 1j * rng.standard_normal((d_a, d_b))
    return AmplitudeMatrix(g / np.linalg.norm(g))


class TestVec:
    def test_bell_vector(self):
        ket = vec(AmplitudeMatrix(np.eye(2) / np.sqrt(2)))
        assert np.allclose(ket.vector, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_single_entry(self):
        amp = AmplitudeMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(vec(amp).vector, [1, 0, 0, 0])

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            amp = random_amp(rng, 3, 2)
            assert abs(vec(amp).norm - 1.0) <= 1e-12


class TestUnvec:
    def test_bell_vector_back(self):
        ket = DoubleKet(np.array([1, 0, 0, 1]) / np.sqrt(2), SystemDims(2, 2))
        assert np.allclose(unvec(ket).matrix, np.eye(2) / np.sqrt(2))

    def test_single_entry(self):
        ket = DoubleKet(np.array([0, 1.0, 0, 0]), SystemDims(2, 2))
        assert np.allclose(unvec(ket).matrix, [[0, 1], [0, 0]])

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            amp = random_amp(rng, 2, 3)
            back = unvec(vec(amp))
            assert np.array_equal(back.matrix, amp.matrix)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            unvec(DoubleKet(np.array([1.0, 1.0, 0, 0]), SystemDims(2, 2)))


class TestSwapOperator:
    def test_d2_permutation(self):
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert np.array_equal(swap_operator(2), expected)

    def test_maps_01_to_10(self):
        e = swap_operator(2)
        ket01 = np.array([0, 1, 0, 0], dtype=complex)
        assert np.allclose(e @ ket01, [0, 0, 1, 0])

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_involution(self, d):
        e = swap_operator(d)
        assert frob(e @ e - np.eye(d * d)) <= 1e-12

    def test_relates_to_symmetric_projector(self):
        for d in (2, 3):
            e = swap_operator(d)
            assert frob(e - (2 * symmetric_projector(d).matrix - np.eye(d * d))) <= 1e-12

    def test_unitary_hermitian_permutation(self):
        e = swap_operator(3)
        assert frob(e - e.conj().T) <= 1e-14
        assert frob(e @ e.conj().T - np.eye(9)) <= 1e-14
        assert set(np.unique(e.real)) <= {0.0, 1.0}
        assert np.all(e.imag == 0)
        assert np.all(e.real.sum(axis=0) == 1) and np.all(e.real.sum(axis=1) == 1)


class TestApplyLocal:
    def test_identity_case(self):
        rng = np.random.default_rng(2)
        amp = random_amp(rng, 2, 2)
        out = apply_local(np.eye(2), np.eye(2), amp)
        assert np.allclose(out.vector, vec(amp).vector)

    def test_one_sided_action_on_maximally_entangled(self):
        rng = np.random.default_rng(3)
        d = 3
        amp = AmplitudeMatrix(np.eye(d) / np.sqrt(d))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        out = apply_local(a, np.eye(d), amp)
        assert np.allclose(out.vector, (a / np.sqrt(d)).reshape(-1), atol=1e-12)

    def test_kron_route_agrees(self):
        rng = np.random.default_rng(4)
        amp = random_amp(rng, 3, 3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        reshape_route = apply_local(a, b, amp).vector
        kron_route = kron(a, b) @ vec(amp).vector
        assert np.linalg.norm(reshape_route - kron_route) <= 1e-12

    def test_rectangular_factors(self):
        rng = np.random.default_rng(5)
        amp = random_amp(rng, 2, 3)
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        out = apply_local(a, b, amp)
        assert out.dims == SystemDims(4, 5)
        assert np.linalg.norm(out.vector - kron(a, b) @ vec(amp).vector) <= 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        amp = random_amp(rng, 2, 3)
        with pytest.raises(ValueError):
            apply_local(np.eye(3), np.eye(3), amp)


class TestIsometry:
    def test_vec_preserves_hs_inner(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = random_amp(rng, 2, 3)
            y = random_amp(rng, 2, 3)
            matrix_side = hs_inner(x.matrix, y.matrix)
            vector_side = np.vdot(vec(x).vector, vec(y).vector)
            assert abs(matrix_side - vector_side) <= 1e-12


class TestAmplitudeMatrix:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            AmplitudeMatrix(np.eye(2))

    def test_normalized_factory(self):
        amp = AmplitudeMatrix.normalized(np.eye(2))
        assert abs(frob(amp.matrix) - 1.0) <= 1e-12

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError):
            AmplitudeMatrix.normalized(np.zeros((2, 2)))

    def test_cached_factors_reconstruct(self):
        # matrix == u @ diag(s) @ v^dag with unitary u, v, s descending
        rng = np.random.default_rng(11)
        amp = random_amp(rng, 3, 5)
        u, s, v = amp.svd()
        sigma = np.zeros((3, 5))
        sigma[:3, :3] = np.diag(s)
        assert frob(u @ sigma @ v.conj().T - amp.matrix) <= 1e-12
        assert frob(u.conj().T @ u - np.eye(3)) <= 1e-12
        assert frob(v.conj().T @ v - np.eye(5)) <= 1e-12
        assert np.all(np.diff(s) <= 0.0)

    def test_cached_singular_values_match_fresh_svd(self):
        rng = np.random.default_rng(8)
        amp = random_amp(rng, 3, 2)
        fresh = np.linalg.svd(amp.matrix, compute_uv=False)
        assert np.allclose(amp.singular_values, fresh, atol=1e-10)
