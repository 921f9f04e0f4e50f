"""Core linear algebra: fixed examples plus randomized invariants."""

import numpy as np
import pytest

from mereo import SystemDims, frob, partial_trace, swap_operator

from doubleket_reference import hs_inner, kron

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_expansion(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_mixed_product_law(self, d):
        rng = np.random.default_rng(6 + d)
        for _ in range(5):
            a, b, c, e = (random_complex(rng, (d, d)) for _ in range(4))
            lhs = kron(a, b) @ kron(c, e)
            rhs = kron(a @ c, b @ e)
            assert frob(lhs - rhs) <= 1e-12


class TestPartialTrace:
    def test_factorized_input(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (3, 3))
        m = kron(a, b)
        dims = SystemDims(2, 3)
        assert frob(partial_trace(m, dims, "first") - np.trace(a) * b) <= 1e-12
        assert frob(partial_trace(m, dims, "second") - np.trace(b) * a) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_swap_traces_to_identity(self, d):
        e = swap_operator(d)
        dims = SystemDims(d, d)
        assert frob(partial_trace(e, dims, "first") - np.eye(d)) <= 1e-12
        assert frob(partial_trace(e, dims, "second") - np.eye(d)) <= 1e-12

    def test_bell_dyad_marginals(self):
        # expand |v><v| for v = (1,0,0,1)/sqrt(2) by hand
        bell_dyad = 0.5 * np.array(
            [
                [1, 0, 0, 1],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [1, 0, 0, 1],
            ],
            dtype=complex,
        )
        dims = SystemDims(2, 2)
        assert frob(partial_trace(bell_dyad, dims, "first") - np.eye(2) / 2) <= 1e-12
        assert frob(partial_trace(bell_dyad, dims, "second") - np.eye(2) / 2) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), SystemDims(2, 3), "first")


class TestHsInner:
    def test_traceless_pair(self):
        assert abs(hs_inner(np.eye(2), PAULI_X)) <= 1e-14

    def test_matches_vectorized_dot(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            a = random_complex(rng, (3, 3))
            b = random_complex(rng, (3, 3))
            expected = np.vdot(a.reshape(-1), b.reshape(-1))
            assert abs(hs_inner(a, b) - expected) <= 1e-12

    def test_self_inner_is_squared_norm(self):
        rng = np.random.default_rng(14)
        a = random_complex(rng, (4, 4))
        val = hs_inner(a, a)
        assert abs(val.imag) <= 1e-12
        assert val.real >= 0
        assert abs(val.real - frob(a) ** 2) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(np.eye(2), np.eye(3))
