"""Core linear algebra: fixed examples plus randomized invariants."""

import numpy as np
import pytest

from mereo import (
    AmplitudeMatrix,
    ChoiMatrix,
    NontrivialityConvention,
    Property,
    QuantumTransformation,
    SearchConfig,
    State,
    SystemDims,
    density_scan,
    frob,
    ginibre,
    partial_trace,
    swap_operator,
)
from mereo.holism import holistic_at_rank, lattice_amplitudes
from mereo.io import random_amplitude
from mereo.linalg import as_sizes

from doubleket_reference import hs_inner, kron

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

_BELL = AmplitudeMatrix(np.eye(2) / np.sqrt(2.0))
_DIMS = SystemDims(3, 3)
# library entry point and argument: (call with the argument set to v, whether it is a seed)
SEEDS_COUNTS_AND_RANKS = {
    "random_amplitude.seed": (lambda v: random_amplitude(v, (2, 2)), True),
    "density_scan.samples": (lambda v: density_scan((2, 2), v, 0), False),
    "density_scan.rng_seed": (lambda v: density_scan((2, 2), 5, v), True),
    "lattice_amplitudes.k": (lambda v: lattice_amplitudes(_BELL, v, 0), False),
    "lattice_amplitudes.rng_seed": (lambda v: lattice_amplitudes(_BELL, 2, v), True),
    "SearchConfig.rank_p": (lambda v: SearchConfig(rank_p=v).validate(_DIMS), False),
    "SearchConfig.rank_q": (lambda v: SearchConfig(rank_q=v).validate(_DIMS), False),
    "SearchConfig.restarts": (lambda v: SearchConfig(restarts=v).validate(_DIMS), False),
    "SearchConfig.rng_seed": (lambda v: SearchConfig(rng_seed=v).validate(_DIMS), True),
}


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


PROJECTOR = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

# name -> (input, build the object from it, the object's arrays)
CHECKED_TYPES = {
    "Property": (PROJECTOR, Property, lambda p: [p.matrix]),
    "Property.from_basis": (
        np.array([[1.0], [1.0j]]) / np.sqrt(2.0), Property.from_basis, lambda p: [p.matrix, p.basis],
    ),
    "State": (PROJECTOR, State, lambda s: [s.matrix]),
    "ChoiMatrix": (PROJECTOR, lambda m: ChoiMatrix(m, d_in=1, d_out=2), lambda c: [c.matrix]),
    "QuantumTransformation": (PROJECTOR, lambda m: QuantumTransformation([m]), lambda t: list(t.kraus)),
    "AmplitudeMatrix": (
        np.diag([0.8, 0.6j, 0.0]), AmplitudeMatrix, lambda a: [a.matrix, a.singular_values],
    ),
}


class TestCheckedArrays:
    """Every checked type keeps a read-only copy: neither its input nor its attributes can change it."""

    @pytest.mark.parametrize("name", CHECKED_TYPES)
    def test_input_mutation_leaves_the_object_unchanged(self, name):
        source, build, arrays = CHECKED_TYPES[name]
        given = source.copy()
        obj = build(given)
        before = [a.copy() for a in arrays(obj)]
        given[...] = 7.0
        after = arrays(obj)
        for a, b in zip(after, before):
            assert a.tobytes() == b.tobytes()
        assert not any(a.flags.writeable for a in after)

    @pytest.mark.parametrize("name, label", [
        ("Property", "property matrix"), ("State", "state matrix"), ("ChoiMatrix", "Choi matrix"),
    ])
    def test_hermitian_check_names_its_type(self, name, label):
        build = CHECKED_TYPES[name][1]
        with pytest.raises(ValueError, match=f"^{label} must be square, got \\(2, 3\\)$"):
            build(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=f"^{label} is not Hermitian within tolerance$"):
            build(np.array([[0.5, 0.5], [0.0, 0.5]]))


class TestGinibre:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 5), (4, 1)])
    def test_a_stack_equals_successive_draws_bit_for_bit(self, dims):
        stack = ginibre(SystemDims(*dims), np.random.default_rng(17), 4)
        rng = np.random.default_rng(17)
        singles = np.stack([ginibre(SystemDims(*dims), rng) for _ in range(4)])
        assert stack.shape == (4, *dims)
        assert stack.tobytes() == singles.tobytes()

    def test_one_draw_is_a_real_block_then_an_imaginary_block(self):
        block = np.random.default_rng(5).standard_normal((2, 3, 2))
        g = ginibre(SystemDims(3, 2), np.random.default_rng(5))
        assert g.tobytes() == ((block[0] + 1j * block[1]) / np.sqrt(2.0)).tobytes()


class TestSizes:
    def test_integers_pass_as_python_ints(self):
        sizes = as_sizes((np.int64(2), 3.0, 4))
        assert sizes == (2, 3, 4) and all(type(v) is int for v in sizes)

    @pytest.mark.parametrize("value", [2.7, True, np.True_, "2", None, float("inf"), float("nan")])
    def test_values_int_would_change_are_rejected(self, value):
        with pytest.raises(ValueError, match="sizes must be integers"):
            as_sizes((value, 3))

    # each of these drew, scanned or answered for the truncated sizes
    @pytest.mark.parametrize("call", [
        lambda: density_scan((2.5, 2), 5, 0),
        lambda: random_amplitude(1, (2.7, 3)),
        lambda: holistic_at_rank(2, (2.9, 3.2), NontrivialityConvention.BOTH),
        lambda: random_amplitude(1, (True, 3)),
        lambda: density_scan((2, True), 5, 0),
        lambda: ginibre((3, True), np.random.default_rng(0)),
        lambda: partial_trace(np.eye(4), (2.0, 2.5)),
    ], ids=["density-scan", "random-amplitude", "holistic-at-rank", "bool-amplitude", "bool-scan",
            "bool-ginibre", "partial-trace"])
    def test_entry_points_reject_non_integral_dims(self, call):
        with pytest.raises(ValueError, match="sizes must be integers"):
            call()

    # seeds, counts and ranks follow the size rule, and seeds are non-negative:
    # a truncated seed drew the seed-2 or seed-1 matrix, and numpy rejected a
    # float count or seed with a TypeError
    @pytest.mark.parametrize("name, value", [
        (name, value)
        for name, (_, is_seed) in SEEDS_COUNTS_AND_RANKS.items()
        for value in ((2.5, True, -1) if is_seed else (2.5, True))
    ])
    def test_seeds_counts_and_ranks_follow_the_size_rule(self, name, value):
        with pytest.raises(ValueError):
            SEEDS_COUNTS_AND_RANKS[name][0](value)
