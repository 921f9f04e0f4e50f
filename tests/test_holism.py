"""Analytic holism certification: witnesses, lattices, and entropies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mereo import (
    AmplitudeMatrix,
    InvariantViolation,
    NontrivialityConvention,
    Property,
    SystemDims,
    Tolerances,
    certify_rank1,
    frob,
    ginibre,
    lattice_amplitudes,
    marginal_entropy,
    partial_trace,
    product_commutator_norm,
)
from mereo import holism
from mereo.holism import holistic_at_rank, make_holistic, schmidt_rank
from mereo.linalg import stacked_singular_values
from mereo.io import preset_amplitude, random_amplitude

from doubleket_reference import hs_inner
from holism_reference import gram_schmidt_hs, holistic_lattice, mgs_lattice, rank2_3x3_matrix

AT_LEAST_ONE = NontrivialityConvention.AT_LEAST_ONE
BOTH = NontrivialityConvention.BOTH

BELL = AmplitudeMatrix(np.eye(2) / np.sqrt(2))
PRODUCT = AmplitudeMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_amp(rng, d_a, d_b):
    g = ginibre(SystemDims(d_a, d_b), rng)
    return AmplitudeMatrix(g / np.linalg.norm(g))


def exact_rank_amp(rng, d_a, d_b, rank):
    """Unit-norm amplitude with exactly ``rank`` nonzero singular values, none near ``tol_rank``."""
    u = np.linalg.qr(ginibre(SystemDims(d_a, d_a), rng))[0][:, :rank]
    v = np.linalg.qr(ginibre(SystemDims(d_b, d_b), rng))[0][:, :rank]
    m = (u * rng.uniform(0.3, 1.0, size=rank)) @ v.conj().T
    return AmplitudeMatrix(m / frob(m))


def factors(p_mat, q_mat):
    return Property(p_mat), Property(q_mat)


class TestMakeHolistic:
    def test_bell_projector(self):
        expected = 0.5 * np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
        )
        assert frob(make_holistic(BELL).matrix - expected) <= 1e-12

    def test_factorized_dyad(self):
        out = make_holistic(PRODUCT)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert frob(out.matrix - expected) <= 1e-12

    def test_random_outputs_are_rank_one_projectors(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = make_holistic(random_amp(rng, 2, 3))
            assert p.rank == 1
            assert frob(p.matrix @ p.matrix - p.matrix) <= 1e-10


class TestProductCommutatorNorm:
    def test_identity_pair_commutes(self):
        # the norm is defined for trivial pairs, which the certifier never returns
        val = product_commutator_norm(BELL, Property(np.eye(2)), Property(np.eye(2)))
        assert val.commutator_norm <= 1e-12

    def test_bell_diag_pair_hand_value(self):
        # 4x4 hand expansion: C has entries +-1/2 at (0,3) and (3,0)
        val = product_commutator_norm(BELL, *factors(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
        assert abs(val.commutator_norm - 0.7071067811865476) <= 1e-12

    def test_bell_hand_expansion_oracle(self):
        joint = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        dyad = 0.5 * np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
        )
        oracle = np.linalg.norm(joint @ dyad - dyad @ joint)
        val = product_commutator_norm(BELL, *factors(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
        assert abs(val.commutator_norm - oracle) <= 1e-12

    def test_exclusive_pair_commutes(self):
        val = product_commutator_norm(BELL, *factors(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])))
        assert val.commutator_norm <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            product_commutator_norm(
                AmplitudeMatrix(np.eye(3) / np.sqrt(3)),
                *factors(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])),
            )


class TestCertifyRank1:
    @pytest.mark.parametrize("convention", [AT_LEAST_ONE, BOTH])
    def test_bell_is_holistic(self, convention):
        verdict = certify_rank1(BELL, convention)
        assert verdict.holistic
        assert verdict.lambda1_witness is None
        assert verdict.rank == 2
        wit = verdict.lambda0_witness
        assert wit is not None
        assert np.allclose(wit.p.matrix, np.diag([0.0, 1.0]))
        assert np.allclose(wit.q.matrix, np.diag([1.0, 0.0]))
        assert product_commutator_norm(BELL, wit.p, wit.q).commutator_norm <= 1e-12

    def test_exclusive_column_skips_columns_at_tol_rank(self):
        # column 0 is nonzero but not above tol_rank, so the recipe names column 1
        eps = 0.5 * Tolerances().tol_rank
        amp = AmplitudeMatrix.normalized(np.array([[eps, 1.0], [0.0, 0.0]]))
        assert 0.0 < np.linalg.norm(amp.matrix[:, 0]) <= Tolerances().tol_rank
        wit = certify_rank1(amp).lambda0_witness
        assert wit.recipe == {"kind": "column_image", "column": 1}
        assert wit.commutator_norm <= Tolerances.tol_compat

    def test_verdicts_compare_by_identity_and_hash(self):
        # a verdict holds witnesses, whose projectors compare by identity, so
        # its == is identity too; a field-wise hash would fail on the recipe dict
        first, second = (certify_rank1(preset_amplitude("bell2"), AT_LEAST_ONE) for _ in range(2))
        assert first == first and first != second
        assert len({first, second, first}) == 2

    def test_product_state_has_cooccurring_witness(self):
        verdict = certify_rank1(PRODUCT, AT_LEAST_ONE)
        assert not verdict.holistic
        wit = verdict.lambda1_witness
        assert wit is not None
        assert np.allclose(wit.p.matrix, np.diag([1.0, 0.0]))
        assert np.allclose(wit.q.matrix, np.diag([1.0, 0.0]))
        assert product_commutator_norm(PRODUCT, wit.p, wit.q).commutator_norm <= 1e-12

    def test_rectangular_full_rank_splits_conventions(self):
        rng = np.random.default_rng(1)
        amp = random_amp(rng, 2, 3)
        assert amp.singular_values[-1] > 1e-3

        both = certify_rank1(amp, BOTH)
        assert both.holistic and both.lambda1_witness is None

        one = certify_rank1(amp, AT_LEAST_ONE)
        assert not one.holistic
        wit = one.lambda1_witness
        assert np.allclose(wit.p.matrix, np.eye(2), atol=1e-10)
        assert wit.q.rank == 2
        assert product_commutator_norm(amp, wit.p, wit.q).commutator_norm <= 1e-10

    def test_witness_replay_scales_identity(self):
        # replaying P (.) Q^T on the witness equation must keep c in {0, 1}
        rng = np.random.default_rng(2)
        for _ in range(10):
            amp = random_amp(rng, 2, 2)
            verdict = certify_rank1(amp, AT_LEAST_ONE)
            for wit, c in ((verdict.lambda1_witness, 1.0), (verdict.lambda0_witness, 0.0)):
                if wit is None:
                    continue
                w = wit.p.matrix @ amp.matrix @ wit.q.matrix.T
                assert frob(w - c * amp.matrix) <= 1e-9
                replayed = wit.p.matrix @ w @ wit.q.matrix.T
                assert frob(replayed - c * w) <= 1e-9

    def test_square_invertible_never_emits_cooccurring_witness(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            for _ in range(20):
                amp = random_amp(rng, d, d)
                if amp.singular_values[-1] <= 1e-3:
                    continue
                for conv in (AT_LEAST_ONE, BOTH):
                    assert certify_rank1(amp, conv).lambda1_witness is None

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_exclusive_witness_always_exists(self, dims):
        rng = np.random.default_rng(4)
        for _ in range(10):
            amp = random_amp(rng, *dims)
            wit = certify_rank1(amp, BOTH).lambda0_witness
            assert wit is not None
            assert product_commutator_norm(amp, wit.p, wit.q).commutator_norm <= 1e-10
            assert frob(wit.p.matrix @ amp.matrix @ wit.q.matrix.T) <= 1e-12

    def test_rejects_trivial_factor_dimensions(self):
        with pytest.raises(ValueError):
            certify_rank1(AmplitudeMatrix(np.array([[1.0, 0.0]])), AT_LEAST_ONE)


def count_full_svds(monkeypatch) -> list:
    """Shapes passed to ``np.linalg.svd`` with ``U`` and ``V`` requested, from now on."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestSingularSubspacesOnDemand:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4), (5, 5)])
    def test_full_rank_certify_computes_no_subspaces(self, dims, monkeypatch):
        calls = count_full_svds(monkeypatch)
        amp = random_amp(np.random.default_rng(dims), *dims)
        for conv in (AT_LEAST_ONE, BOTH):
            verdict = certify_rank1(amp, conv)
            assert verdict.holistic and verdict.lambda1_witness is None
        assert calls == []

    @pytest.mark.parametrize("dims, rank", [((2, 2), 1), ((3, 3), 2), ((4, 5), 3)])
    def test_rank_deficient_certify_computes_them_once(self, dims, rank, monkeypatch):
        # once per certify: the amplitude keeps no factorization between calls
        calls = count_full_svds(monkeypatch)
        amp = exact_rank_amp(np.random.default_rng(dims), *dims, rank)
        for conv in (AT_LEAST_ONE, AT_LEAST_ONE, BOTH):
            assert certify_rank1(amp, conv).lambda1_witness is not None
        assert calls == [dims] * 3

    @pytest.mark.parametrize("dims, rank", [((2, 3), 2), ((3, 2), 2), ((4, 5), 3), ((3, 3), 2)])
    def test_conventions_share_one_svd_and_one_replay_per_witness(self, dims, rank, monkeypatch):
        amp = exact_rank_amp(np.random.default_rng(dims), *dims, rank)
        alone = {conv: certify_rank1(amp, conv) for conv in (AT_LEAST_ONE, BOTH)}
        calls = count_full_svds(monkeypatch)
        replay = holism.product_commutator_norm
        replays = []
        monkeypatch.setattr(holism, "product_commutator_norm",
                            lambda amp, p, q: replays.append(p) or replay(amp, p, q))
        rule = holism.holistic_at_rank
        rules = []
        monkeypatch.setattr(holism, "holistic_at_rank",
                            lambda rank, dims: rules.append(rank) or rule(rank, dims))
        for conventions in ((AT_LEAST_ONE, BOTH), (BOTH, AT_LEAST_ONE)):
            for log in (calls, replays, rules):
                log.clear()
            verdicts = holism.certify(amp, conventions)
            # one full SVD, one replay per witness and one rank-rule call for both readings
            assert calls == [dims] and len(replays) == 2 and rules == [rank]
            assert [verdict.convention for verdict in verdicts] == list(conventions)
            for shared in verdicts:
                verdict = alone[shared.convention]
                assert (shared.holistic, shared.rank) == (verdict.holistic, verdict.rank)
                for got, want in ((shared.lambda1_witness, verdict.lambda1_witness),
                                  (shared.lambda0_witness, verdict.lambda0_witness)):
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert got.p.matrix.tobytes() == want.p.matrix.tobytes()
                        assert got.q.matrix.tobytes() == want.q.matrix.tobytes()
                        assert got[2:] == want[2:]

    def test_conventions_part_ways_in_one_call(self, monkeypatch):
        # full rank 2x3: both has no co-occurring witness, atleastone takes P = I
        amp = random_amplitude(1, (2, 3))
        calls = count_full_svds(monkeypatch)
        assert holism.certify(amp, (BOTH,))[0].holistic
        assert calls == []
        both, at_least_one = holism.certify(amp, (BOTH, AT_LEAST_ONE))
        assert calls == [(2, 3)]
        assert both.holistic and both.lambda1_witness is None
        assert not at_least_one.holistic
        witness = at_least_one.lambda1_witness
        assert witness.recipe == {"kind": "leading_singular_subspaces", "rank": 2}
        assert (witness.p.rank, witness.q.rank) == (2, 2)
        assert both.lambda0_witness is at_least_one.lambda0_witness


class TestRankRule:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 5), (5, 3)])
    def test_rule_matches_certifier_at_every_rank(self, dims):
        rng = np.random.default_rng(6)
        tols = Tolerances()
        for rank in range(1, min(dims) + 1):
            amp = exact_rank_amp(rng, *dims, rank)
            assert schmidt_rank(amp.singular_values, tols) == rank
            readings = dict(zip(NontrivialityConvention, holistic_at_rank(rank, dims)))
            for conv in (AT_LEAST_ONE, BOTH):
                verdict = certify_rank1(amp, conv, tols=tols)
                assert verdict.rank == rank
                assert readings[conv] == verdict.holistic
                assert (verdict.lambda1_witness is None) == verdict.holistic

    @pytest.mark.parametrize("convention, table", [
        (AT_LEAST_ONE, [[False, True], [True, True]]),
        (BOTH, [[False, False], [False, True]]),
    ])
    def test_admits_truth_table(self, convention, table):
        # table[p][q]: whether a pair with p, q nontrivial counts, for flags and arrays alike
        flags = np.array([False, True])
        assert convention.admits(flags[:, None], flags[None, :]).tolist() == table
        for p in (False, True):
            for q in (False, True):
                assert convention.admits(p, q) is table[p][q]

    @pytest.mark.parametrize("reading", [0, 1])
    def test_rule_is_elementwise(self, reading):
        ranks = np.array([[1, 2, 3], [3, 2, 1]])
        out = holistic_at_rank(ranks, (3, 4))[reading]
        assert out.shape == ranks.shape
        for r, h in zip(ranks.ravel(), out.ravel()):
            assert h == holistic_at_rank(int(r), (3, 4))[reading]

    def test_readings_come_in_convention_order(self):
        # a full-rank 3x4 amplitude keeps P = I, Q nontrivial: not holistic under atleastone only
        assert [conv.value for conv in NontrivialityConvention] == ["atleastone", "both"]
        assert [bool(h) for h in holistic_at_rank(3, (3, 4))] == [False, True]
        assert [bool(h) for h in holistic_at_rank(4, (4, 4))] == [True, True]
        assert [bool(h) for h in holistic_at_rank(2, (3, 4))] == [False, False]

    def test_singular_value_at_tol_rank_is_not_counted(self):
        # the rank counts values strictly above tol_rank, and this one is tol_rank exactly
        t = Tolerances().tol_rank
        amp = AmplitudeMatrix(np.diag([np.sqrt(1.0 - t * t), t]))
        assert amp.singular_values[1] == t
        assert schmidt_rank(amp.singular_values, Tolerances()) == 1
        assert certify_rank1(amp).rank == 1

    def test_rank_counts_along_last_axis(self):
        s = np.array([[0.9, 0.4, 1e-8], [0.8, 0.6, 0.2]])
        assert schmidt_rank(s, Tolerances()).tolist() == [2, 3]
        assert schmidt_rank(s, Tolerances(tol_rank=0.5)).tolist() == [1, 2]

    def test_rank_zero_is_input_error(self):
        with pytest.raises(ValueError, match="rank 0"):
            holistic_at_rank(np.array([1, 0]), (2, 2))
        with pytest.raises(ValueError, match="rank 0"):
            certify_rank1(BELL, BOTH, tols=Tolerances(tol_rank=0.9))

    def test_rejects_trivial_factor_dimensions(self):
        with pytest.raises(ValueError, match="dimensions"):
            holistic_at_rank(1, (1, 3))


class TestCommutationCharacterization:
    def test_commutes_iff_scaled_or_killed(self):
        # [P (x) Q, dyad] small <=> P @ amp @ Q.T is amp or 0 (idempotency
        # leaves no other eigenvalue); randomized pairs at dims (2, 2)
        rng = np.random.default_rng(5)
        for _ in range(5):
            amp = random_amp(rng, 2, 2)
            for theta_p in np.linspace(0, np.pi, 7):
                for theta_q in np.linspace(0, np.pi, 7):
                    p = np.array(
                        [
                            [np.cos(theta_p / 2) ** 2, np.cos(theta_p / 2) * np.sin(theta_p / 2)],
                            [np.cos(theta_p / 2) * np.sin(theta_p / 2), np.sin(theta_p / 2) ** 2],
                        ],
                        dtype=complex,
                    )
                    q = np.array(
                        [
                            [np.cos(theta_q / 2) ** 2, np.cos(theta_q / 2) * np.sin(theta_q / 2)],
                            [np.cos(theta_q / 2) * np.sin(theta_q / 2), np.sin(theta_q / 2) ** 2],
                        ],
                        dtype=complex,
                    )
                    dyad = make_holistic(amp).matrix
                    joint = np.kron(p, q)
                    comm = frob(joint @ dyad - dyad @ joint)
                    w = p @ amp.matrix @ q.T
                    residual = min(frob(w - amp.matrix), frob(w))
                    assert (comm <= 1e-6) == (residual <= 1e-5)


class TestGramSchmidt:
    def test_dependent_pair_collapses(self):
        with pytest.warns(UserWarning):
            out = gram_schmidt_hs([np.eye(2), np.eye(2)], SystemDims(2, 2))
        assert len(out) == 1
        assert frob(out[0].matrix - np.eye(2) / np.sqrt(2)) <= 1e-12

    def test_orthogonal_pair_only_normalized(self):
        out = gram_schmidt_hs([np.eye(2), PAULI_X], SystemDims(2, 2))
        assert len(out) == 2
        assert abs(hs_inner(out[0].matrix, out[1].matrix)) <= 1e-12
        for amp in out:
            assert abs(frob(amp.matrix) - 1.0) <= 1e-12

    def test_random_seeds_pairwise_orthonormal(self):
        rng = np.random.default_rng(6)
        seeds = [ginibre(SystemDims(3, 3), rng) for _ in range(4)]
        out = gram_schmidt_hs(seeds, SystemDims(3, 3))
        assert len(out) == 4
        for i in range(4):
            for j in range(4):
                expected = 1.0 if i == j else 0.0
                assert abs(hs_inner(out[i].matrix, out[j].matrix) - expected) <= 1e-10

    def test_empty_span_raises(self):
        with pytest.raises(ValueError):
            with pytest.warns(UserWarning):
                gram_schmidt_hs([np.zeros((2, 2))], SystemDims(2, 2))


def reference_project_out(residual, basis):
    """Two modified Gram-Schmidt passes through the validating ``hs_inner``."""
    for _ in range(2):
        for b in basis:
            residual = residual - hs_inner(b, residual) * b
    return residual


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (4, 5), (5, 5)])
class TestOrthonormalizationMatchesReference:
    def test_lattice_amplitudes(self, dims):
        # one QR, not draw-by-draw Gram-Schmidt: the same members up to rounding
        amp = random_amp(np.random.default_rng(11), *dims)
        k = dims[0] * dims[1]
        out = lattice_amplitudes(amp, k, rng_seed=4)
        family = mgs_lattice(amp, k, rng_seed=4)
        assert len(out) == k
        assert max(np.abs(m - f).max() for m, f in zip(out, family)) <= 1e-13

    def test_lattice_amplitudes_repeat_bit_for_bit(self, dims):
        amp = random_amp(np.random.default_rng(11), *dims)
        k = dims[0] * dims[1]
        first = lattice_amplitudes(amp, k, rng_seed=4)
        second = lattice_amplitudes(amp, k, rng_seed=4)
        assert [m.tobytes() for m in first] == [m.tobytes() for m in second]

    def test_lattice_member_zero_is_the_input(self, dims):
        amp = random_amp(np.random.default_rng(11), *dims)
        for k in (1, 2, dims[0] * dims[1]):
            assert lattice_amplitudes(amp, k, rng_seed=4)[0].tobytes() == amp.matrix.tobytes()

    def test_seed_collision_skips_the_parallel_draw(self, dims):
        # random_amplitude(s) and lattice_amplitudes(..., rng_seed=s) seed the
        # same stream, so the first draw is parallel to the amplitude
        amp = random_amplitude(5, SystemDims(*dims))
        first_draw = ginibre(SystemDims(*dims), np.random.default_rng(5))
        assert abs(abs(hs_inner(amp.matrix, first_draw)) - frob(first_draw)) <= 1e-12
        k = dims[0] * dims[1]
        out = lattice_amplitudes(amp, k, rng_seed=5)
        family = mgs_lattice(amp, k, rng_seed=5)
        assert max(np.abs(m - f).max() for m, f in zip(out, family)) <= 1e-13
        vecs = np.array([m.reshape(-1) for m in out])
        assert np.abs(vecs.conj() @ vecs.T - np.eye(k)).max() <= 1e-14

    def test_gram_schmidt_hs(self, dims):
        rng = np.random.default_rng(12)
        seeds = [ginibre(SystemDims(*dims), rng) for _ in range(dims[0] * dims[1])]
        basis = []
        for m in seeds:
            residual = reference_project_out(m.astype(complex), basis)
            basis.append(residual / frob(residual))
        out = gram_schmidt_hs(seeds, SystemDims(*dims))
        assert [m.matrix.tobytes() for m in out] == [b.tobytes() for b in basis]


class TestStackedMembers:
    @pytest.mark.parametrize("amp, k, rank0", [
        (PRODUCT, 4, 1), (PRODUCT, 2, 1), (BELL, 4, 2), (AmplitudeMatrix(rank2_3x3_matrix()), 9, 2),
        (random_amplitude(1, SystemDims(4, 6)), 24, 4), (random_amplitude(2, SystemDims(7, 7)), 49, 7),
    ])
    def test_singular_values_are_amplitude_matrix_bytes(self, amp, k, rank0):
        # one stacked call gives each member the bits it gets alone
        members = lattice_amplitudes(amp, k, rng_seed=3)
        s = stacked_singular_values(members)
        assert s.shape == (k, min(amp.dims))
        for m, row in zip(members, s):
            assert row.tobytes() == AmplitudeMatrix(m).singular_values.tobytes()
        assert schmidt_rank(s[0], Tolerances()) == rank0

    def test_members_are_one_read_only_array(self):
        amp = random_amplitude(1, SystemDims(2, 3))
        for k in (1, 3, 6):
            members = lattice_amplitudes(amp, k, rng_seed=3)
            assert members.shape == (k, 2, 3) and members.dtype == complex
            assert not members.flags.writeable
            with pytest.raises(ValueError):
                members[0, 0, 0] = 0.0


class TestHolisticLattice:
    def test_singleton(self):
        out = holistic_lattice(BELL, 1, rng_seed=0)
        assert len(out) == 1
        assert frob(out[0].matrix - make_holistic(BELL).matrix) <= 1e-12

    def test_bell_full_lattice_resolves_identity(self):
        props = holistic_lattice(BELL, 4, rng_seed=7)
        total = sum(p.matrix for p in props)
        assert frob(total - np.eye(4)) <= 1e-9
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert frob(props[i].matrix @ props[j].matrix) <= 1e-10

    def test_members_certify_when_invertible(self):
        amps = [AmplitudeMatrix(m) for m in lattice_amplitudes(BELL, 4, rng_seed=7)]
        assert frob(amps[0].matrix - BELL.matrix) <= 1e-12
        for amp in amps:
            if amp.singular_values[-1] > 1e-7:
                assert certify_rank1(amp, AT_LEAST_ONE).holistic

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            holistic_lattice(BELL, 5, rng_seed=0)


class TestMarginalEntropy:
    def test_product_state(self):
        assert marginal_entropy(PRODUCT) == (0.0, 0.0)

    def test_bell_gives_ln2(self):
        s_whole, s_part = marginal_entropy(BELL)
        assert s_whole == 0.0
        assert abs(s_part - np.log(2)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_entangled_gives_ln_d(self, d):
        amp = AmplitudeMatrix(np.eye(d) / np.sqrt(d))
        assert abs(marginal_entropy(amp)[1] - np.log(d)) <= 1e-9

    def test_matches_partial_trace_oracle(self):
        rng = np.random.default_rng(8)
        for dims in ((2, 2), (2, 3), (3, 3)):
            amp = random_amp(rng, *dims)
            marginal = partial_trace(make_holistic(amp).matrix, SystemDims(*dims), "first")
            w = np.linalg.eigvalsh(marginal)
            w = w[w > 1e-12]
            oracle = float(-np.sum(w * np.log(w)))
            assert abs(marginal_entropy(amp)[1] - oracle) <= 1e-9

    def test_positive_iff_rank_at_least_two(self):
        rng = np.random.default_rng(9)
        assert marginal_entropy(PRODUCT)[1] == 0.0
        for _ in range(5):
            amp = random_amp(rng, 2, 2)
            if int(np.sum(amp.singular_values > 1e-7)) >= 2:
                assert marginal_entropy(amp)[1] > 0.0
        # the maximum over unit amplitudes is ln(min(d_a, d_b))
        flat = AmplitudeMatrix(np.ones((2, 3)) / np.sqrt(6))
        assert marginal_entropy(flat)[1] <= np.log(2) + 1e-12

    def test_small_weight_counts(self):
        # a Schmidt weight of 1e-13 adds -w ln w = 3.0e-12; the other weight's
        # term, 1e-13, carries the rounding of 1 - w (an ulp of 1 in the log)
        w = 1e-13
        amp = AmplitudeMatrix(np.diag([np.sqrt(1.0 - w), np.sqrt(w)]))
        expected = -w * np.log(w) - (1.0 - w) * np.log1p(-w)
        assert abs(marginal_entropy(amp)[1] - expected) <= 1e-15

    @pytest.mark.parametrize("amp", [
        PRODUCT,
        AmplitudeMatrix(np.outer([1.0, 2.0, 2.0], [0.0, 0.0, 1.0, 0.0]) / 3.0),
    ], ids=["product2", "rank1-3x4"])
    def test_rank_one_gives_positive_zero(self, amp):
        # the one Schmidt weight is exactly 1, so the sum is +0.0 and not negated
        s_part = marginal_entropy(amp)[1]
        assert s_part == 0.0 and math.copysign(1.0, s_part) > 0


IDENTITY = Property.from_basis(np.zeros((2, 0)), complement=True)
E0 = Property.from_basis(np.eye(2)[:, :1])


class TestCertifierInvariants:
    """A witness the certifier built must pass its checks; one that does not is an internal fault."""

    @pytest.mark.parametrize("amp, p_expected", [
        (PRODUCT, np.diag([1.0, 0.0])),  # co-occurring witness, replayed first
        (BELL, np.diag([0.0, 1.0])),  # holistic: the exclusive witness only
    ], ids=["cooccurring", "exclusive"])
    def test_failed_replay_raises(self, monkeypatch, amp, p_expected):
        replay = holism.product_commutator_norm
        replayed = []

        def failing(amp, p, q):
            replayed.append(p)
            return replay(amp, p, q)._replace(commutator_norm=1.0)

        monkeypatch.setattr(holism, "product_commutator_norm", failing)
        with pytest.raises(InvariantViolation, match="witness replay failed"):
            certify_rank1(amp, AT_LEAST_ONE)
        (p,) = replayed
        assert frob(p.matrix - p_expected) <= 1e-12

    @pytest.mark.parametrize("pair, convention, nontrivial", [
        ((IDENTITY, E0), AT_LEAST_ONE, True),
        ((IDENTITY, E0), BOTH, False),
        ((IDENTITY, IDENTITY), AT_LEAST_ONE, False),
    ], ids=["atleastone-one-identity", "both-one-identity", "atleastone-two-identities"])
    def test_trivial_factors_raise_per_convention(self, monkeypatch, pair, convention, nontrivial):
        # each pair commutes with the product dyad, so only the nontriviality check can fail
        monkeypatch.setattr(holism, "_exclusive_witness", lambda amp, col: pair)
        if nontrivial:
            witness = certify_rank1(PRODUCT, convention).lambda0_witness
            assert witness.p is IDENTITY and witness.q is E0
        else:
            with pytest.raises(InvariantViolation, match="not nontrivial"):
                certify_rank1(PRODUCT, convention)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(2, 5), st.integers(2, 5)).flatmap(
        lambda dims: st.tuples(st.just(dims), st.integers(1, min(dims)))
    ),
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(NontrivialityConvention)),
)
def test_certifier_follows_the_rank_rule(dims_rank, seed, conv):
    (d_a, d_b), rank = dims_rank
    amp = exact_rank_amp(np.random.default_rng(seed), d_a, d_b, rank)
    verdict = certify_rank1(amp, conv)
    assert verdict.rank == rank
    readings = holistic_at_rank(schmidt_rank(amp.singular_values, Tolerances()), (d_a, d_b))
    assert verdict.holistic == bool(dict(zip(NontrivialityConvention, readings))[conv])
    assert (verdict.lambda1_witness is None) == verdict.holistic
