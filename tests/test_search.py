"""Commutant search: parametrization, gradients, optimizer, grid oracle."""

from dataclasses import replace

import numpy as np
import pytest

from mereo import search
from mereo import (
    EXCLUDE_FLOOR,
    AmplitudeMatrix,
    NontrivialityConvention,
    SearchConfig,
    SystemDims,
    Tolerances,
    brute_force_grid_d2,
    certify_rank1,
    density_scan,
    frob,
    ginibre,
    make_holistic,
    minimize,
    objective,
    objective_value_and_grad,
    parametrize_projector,
)
from mereo.io import random_amplitude

BELL = AmplitudeMatrix(np.eye(2) / np.sqrt(2))
PRODUCT = AmplitudeMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_amp(rng, d_a, d_b):
    g = ginibre(SystemDims(d_a, d_b), rng)
    return AmplitudeMatrix(g / np.linalg.norm(g))


def fd_gradient(amp, params, cfg, h=1e-5):
    """Central-difference oracle for the analytic gradient."""
    grad = np.zeros(params.size)
    for i in range(params.size):
        plus = params.copy()
        plus[i] += h
        minus = params.copy()
        minus[i] -= h
        f_plus, _ = objective_value_and_grad(amp, plus, cfg)
        f_minus, _ = objective_value_and_grad(amp, minus, cfg)
        grad[i] = (f_plus - f_minus) / (2 * h)
    return grad


class TestParametrizeProjector:
    def test_zero_params_give_canonical_projector(self):
        for d, rank in ((2, 1), (3, 2), (4, 1)):
            p = parametrize_projector(np.zeros(d * d), d, rank)
            expected = np.diag([1.0] * rank + [0.0] * (d - rank))
            assert frob(p.matrix - expected) <= 1e-12

    def test_y_rotation_closed_form(self):
        # generator -theta/2 * Y rotates the up projector to
        # (I + cos(theta) Z + sin(theta) X) / 2
        for theta in (0.3, 1.1, 2.5):
            params = np.array([0.0, 0.0, 0.0, theta / 2])
            p = parametrize_projector(params, 2, 1)
            expected = (np.eye(2) + np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X) / 2
            assert frob(p.matrix - expected) <= 1e-12

    def test_random_params_give_exact_rank_projectors(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rank = int(rng.integers(1, d))
            p = parametrize_projector(rng.normal(size=d * d), d, rank)
            assert p.rank == rank
            assert frob(p.matrix @ p.matrix - p.matrix) <= 1e-10
            assert frob(p.matrix - p.matrix.conj().T) <= 1e-10

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            parametrize_projector(np.zeros(3), 2, 1)


class TestObjective:
    def test_bell_diag_pair_hand_value(self):
        # independent oracle: direct commutator of the 4x4 matrices
        p = parametrize_projector(np.zeros(4), 2, 1)
        q = parametrize_projector(np.zeros(4), 2, 1)
        cfg = SearchConfig(exclude_exclusive=False)
        joint = np.kron(p.matrix, q.matrix)
        dyad = make_holistic(BELL).matrix
        oracle = np.linalg.norm(joint @ dyad - dyad @ joint) ** 2
        val = objective(BELL, p, q, cfg)
        assert abs(val - oracle) <= 1e-12
        assert abs(val - 0.5) <= 1e-12

    def test_exclusive_pair_is_zero(self):
        p_down = parametrize_projector(np.array([0.0, 0.0, 0.0, np.pi / 2]), 2, 1)
        q_up = parametrize_projector(np.zeros(4), 2, 1)
        assert np.allclose(p_down.matrix, np.diag([0.0, 1.0]), atol=1e-12)
        val = objective(BELL, p_down, q_up, SearchConfig(exclude_exclusive=False))
        assert val <= 1e-12

    def test_penalty_floor_on_exclusive_pair(self):
        p_down = parametrize_projector(np.array([0.0, 0.0, 0.0, np.pi / 2]), 2, 1)
        q_up = parametrize_projector(np.zeros(4), 2, 1)
        val = objective(BELL, p_down, q_up, SearchConfig(exclude_exclusive=True))
        assert val >= EXCLUDE_FLOOR**2 - 1e-12


class TestGradient:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_against_central_differences(self, dims):
        rng = np.random.default_rng(1)
        amp = random_amp(rng, *dims)
        n = dims[0] ** 2 + dims[1] ** 2
        for trial in range(10):
            cfg = SearchConfig(rank_p=1, rank_q=1, exclude_exclusive=bool(trial % 2))
            params = rng.normal(size=n)
            _, grad = objective_value_and_grad(amp, params, cfg)
            fd = fd_gradient(amp, params, cfg)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-4

    @pytest.mark.parametrize("dims", [(2, 2), (3, 4), (6, 6)])
    def test_stacked_rows_equal_single_calls(self, dims):
        # the stacked descent relies on rows not depending on the stack
        rng = np.random.default_rng(2)
        amp = random_amp(rng, *dims)
        params = rng.normal(0.0, 1.5, size=(9, dims[0] ** 2 + dims[1] ** 2))
        for cfg in (SearchConfig(), SearchConfig(rank_p=dims[0] - 1, exclude_exclusive=True)):
            values, grads = objective_value_and_grad(amp, params, cfg)
            assert values.shape == (9,) and grads.shape == params.shape
            for r in range(9):
                value, grad = objective_value_and_grad(amp, params[r], cfg)
                assert isinstance(value, float)
                assert value == values[r] and np.array_equal(grad, grads[r])
            subset = [7, 2, 3]
            sub_values, sub_grads = objective_value_and_grad(amp, params[subset], cfg)
            assert np.array_equal(sub_values, values[subset])
            assert np.array_equal(sub_grads, grads[subset])

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            objective_value_and_grad(BELL, np.zeros((3, 7)), SearchConfig())


class TestMinimize:
    def test_bell_unrestricted_reaches_exclusive_witness(self):
        res = minimize(BELL, SearchConfig(restarts=8, rng_seed=0))
        assert res.min_value <= 1e-6

    def test_bell_restricted_minimum_is_bounded_away(self):
        res = minimize(BELL, SearchConfig(restarts=32, exclude_exclusive=True, rng_seed=0))
        assert res.min_value >= 0.01

    def test_product_restricted_finds_cooccurring_witness(self):
        res = minimize(PRODUCT, SearchConfig(restarts=16, exclude_exclusive=True, rng_seed=0))
        assert res.min_value <= 1e-6
        assert frob(res.argmin_p.matrix - np.diag([1.0, 0.0])) <= 1e-3
        assert frob(res.argmin_q.matrix - np.diag([1.0, 0.0])) <= 1e-3

    def test_results_replay(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            amp = random_amp(rng, 2, 2)
            res = minimize(amp, SearchConfig(restarts=4, rng_seed=5))
            joint = np.kron(res.argmin_p.matrix, res.argmin_q.matrix)
            dyad = make_holistic(amp).matrix
            replayed = np.linalg.norm(joint @ dyad - dyad @ joint)
            assert abs(replayed - res.min_value) <= 1e-8

    def test_more_restarts_never_hurt(self):
        rng = np.random.default_rng(3)
        amps = [BELL] + [random_amp(rng, 2, 2) for _ in range(2)]
        for amp in amps:
            for exclude in (False, True):
                values = [
                    minimize(
                        amp,
                        SearchConfig(restarts=r, exclude_exclusive=exclude, rng_seed=9),
                    ).min_value
                    for r in (4, 8, 16)
                ]
                # identical basins replay with ~grad_tol wobble in the norm;
                # genuine regressions would show at the basin scale
                assert values[0] >= values[1] - 1e-9
                assert values[1] >= values[2] - 1e-9

    def test_restart_trace(self, monkeypatch):
        cfg = SearchConfig(restarts=8, exclude_exclusive=True, rng_seed=3)
        res = minimize(BELL, cfg)
        trace = res.restart_trace
        assert len(trace) == 8
        assert sum(t.iterations for t in trace) == res.iterations_used
        assert {t.stop_reason for t in trace} <= {"grad_tol", "step_underflow", "max_iters"}
        # an iteration tries at most one candidate, and each restart keeps some
        assert all(0 <= t.rejected < t.iterations for t in trace)
        best = min(range(8), key=lambda r: trace[r].objective)
        assert res.converged == (trace[best].stop_reason == "grad_tol")
        # restarts run row by row, so a larger budget replays the first ones
        assert minimize(BELL, replace(cfg, restarts=3)).restart_trace == trace[:3]
        monkeypatch.setattr(search, "MAX_ITERS", 2)
        short = minimize(BELL, cfg).restart_trace
        assert [(t.iterations, t.stop_reason) for t in short] == [(2, "max_iters")] * 8

    @pytest.mark.parametrize("amp, cfg", [
        # unrestricted 5x5: with x1.5 step growth one restart crept to max_iters
        (random_amplitude(1, SystemDims(5, 5)), SearchConfig(restarts=16, rng_seed=1)),
        # search-crosscheck shape: full rank, hinge on, 32 restarts
        (random_amplitude(20, SystemDims(4, 4)),
         SearchConfig(restarts=32, exclude_exclusive=True, rng_seed=20)),
        (random_amplitude(11, SystemDims(6, 6)),
         SearchConfig(restarts=32, exclude_exclusive=True, rng_seed=11)),
    ], ids=["5x5", "4x4-hinge", "6x6-hinge"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_restart_converges_quickly(self, amp, cfg):
        trace = minimize(amp, cfg).restart_trace
        assert [t.stop_reason for t in trace] == ["grad_tol"] * cfg.restarts
        assert max(t.iterations for t in trace) <= 100

    @pytest.mark.parametrize("d, exclude", [(2, False), (3, False), (4, True), (6, True)])
    def test_steps_follow_the_barzilai_borwein_rule(self, d, exclude, monkeypatch):
        # reference: the step rule replayed in plain Python from the kernel
        # calls of single restarts (rows do not depend on the stack)
        calls = []
        kernel = search.objective_value_and_grad

        def recording(amp, params, cfg):
            f, grad = kernel(amp, params, cfg)
            calls.append((params[0].copy(), float(f[0]), grad[0].copy()))
            return f, grad

        monkeypatch.setattr(search, "objective_value_and_grad", recording)
        amp = random_amplitude(d, SystemDims(d, d))
        branches = {"bb": 0, "capped": 0}
        for seed in range(6):
            calls.clear()
            cfg = SearchConfig(restarts=1, exclude_exclusive=exclude, rng_seed=seed)
            (trace,) = minimize(amp, cfg).restart_trace
            (x, f, grad), step, rejected = calls[0], search.STEP_INIT, 0
            for cand, f_cand, grad_cand in calls[1:]:
                assert np.allclose(cand, x - step * grad, rtol=1e-12, atol=0.0)
                if f_cand < f:
                    s, y = cand - x, grad_cand - grad
                    if s @ y > 0.0:
                        step = s @ y / (y @ y)
                        branches["bb" if step <= search.STEP_MAX else "capped"] += 1
                    else:
                        step = 1.5 * step
                    step = min(step, search.STEP_MAX)
                    x, f, grad = cand, f_cand, grad_cand
                else:
                    step *= 0.5
                    rejected += 1
            assert trace.rejected == rejected
            assert trace.iterations == len(calls) - (trace.stop_reason != "grad_tol")
        assert branches["bb"] > 0, branches
        if not exclude:  # cases chosen so that the cap binds on some steps
            assert branches["capped"] > 0, branches

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hinge_equilibrium_is_set_by_the_floor(self, d):
        # at ranks (1, 1) the restricted objective is 2x^2 - 2x^4 + (floor - x)^2
        # in x = ||P amp Q^T||, so its minimum does not depend on the amplitude
        roots = np.roots([-8.0, 0.0, 6.0, -2.0 * EXCLUDE_FLOOR])
        x = min(r.real for r in roots if 0.0 < r.real < EXCLUDE_FLOOR)
        expected = np.sqrt(2.0) * x * np.sqrt(1.0 - x * x)
        assert abs(expected - 0.0235757) <= 1e-7
        amp = random_amp(np.random.default_rng(d), d, d)
        res = minimize(amp, SearchConfig(restarts=8, exclude_exclusive=True, rng_seed=1))
        assert abs(res.min_value - expected) <= 1e-6

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            minimize(BELL, SearchConfig(rank_p=2, rank_q=1))

    def test_cached_generator_layout_is_read_only(self):
        for d in (2, 3, 6):
            layout = search._generator_layout(d)
            assert layout is search._generator_layout(d)
            for a in layout:
                with pytest.raises(ValueError):
                    a[0] = a[0]  # the same value, so a writable cache stays intact

    def test_cached_layout_replays_uncached_descent(self, monkeypatch):
        cases = []
        for d in (2, 3, 4, 6):
            amp = random_amp(np.random.default_rng([31, d]), d, d)
            for ranks in sorted({(1, 1), (d - 1, d - 1)}):
                cfg = SearchConfig(rank_p=ranks[0], rank_q=ranks[1], restarts=4,
                                   exclude_exclusive=True, rng_seed=d)
                cases.append((amp, cfg))

        def summary(res):
            return res.min_value, res.iterations_used, res.restart_trace

        monkeypatch.setattr(search, "MAX_ITERS", 150)
        cached = [summary(minimize(amp, cfg)) for amp, cfg in cases]
        # reference: index arrays rebuilt on every call
        monkeypatch.setattr(
            search, "_generator_layout", lambda d: (np.arange(d), *np.triu_indices(d, 1))
        )
        assert [summary(minimize(amp, cfg)) for amp, cfg in cases] == cached

    def test_no_cooccurring_near_commuters_for_invertible(self):
        # invertible amplitudes admit no commuting pair with nonzero overlap
        rng = np.random.default_rng(4)
        for _ in range(5):
            amp = random_amp(rng, 2, 2)
            if amp.singular_values[-1] <= 0.05:
                continue
            res = minimize(amp, SearchConfig(restarts=8, rng_seed=11))
            if res.min_value <= 1e-6:
                assert res.cooccurrence_weight < 1e-3


class TestBruteForceGrid:
    def test_bell_unrestricted_hits_exclusive_witness(self):
        val, angles = brute_force_grid_d2(BELL, 24, False)
        assert val <= 1e-3
        theta_p, _, theta_q, _ = angles
        # exclusive witnesses for this amplitude pair antipodal angles
        assert abs(theta_p + theta_q - np.pi) <= 0.2

    def test_product_grid_min_at_poles(self):
        for resolution in (8, 16):
            val, angles = brute_force_grid_d2(PRODUCT, resolution, True)
            assert val <= 1e-10
            assert abs(angles[0]) <= 1e-12
            assert abs(angles[2]) <= 1e-12

    def test_optimizer_dominates_coarse_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            amp = random_amp(rng, 2, 2)
            grid_val, _ = brute_force_grid_d2(amp, 12, False)
            opt_val = minimize(amp, SearchConfig(restarts=8, rng_seed=13)).min_value
            assert opt_val <= grid_val + 1e-6

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            brute_force_grid_d2(AmplitudeMatrix(np.eye(3) / np.sqrt(3)), 8, False)


class TestOracleAgreement:
    def test_certifier_matches_restricted_search(self):
        # 100 amplitudes, ten deliberately singular.  The random cohort is
        # kept away from the band around sigma_min ~ 7e-3 where a 0.01
        # threshold cannot separate the two answers.
        rng = np.random.default_rng(6)
        amps = []
        while len(amps) < 90:
            amp = random_amp(rng, 2, 2)
            if amp.singular_values[-1] > 0.05:
                amps.append(amp)
        for i in range(10):
            u = np.linalg.qr(ginibre(SystemDims(2, 2), rng))[0]
            v = np.linalg.qr(ginibre(SystemDims(2, 2), rng))[0]
            amps.append(AmplitudeMatrix(np.outer(u[:, 0], v[:, 0].conj())))
        for amp in amps:
            analytic = certify_rank1(amp, NontrivialityConvention.BOTH).holistic
            # holistic amplitudes pass with any restart count (no point below
            # the threshold exists); witness-finding on singular ones needs
            # the full restart budget to cover the co-occurring basin
            restarts = 6 if analytic else 32
            cfg = SearchConfig(restarts=restarts, exclude_exclusive=True, rng_seed=17)
            numeric = minimize(amp, cfg).min_value >= 0.01
            assert analytic == numeric


def certifier_density(dims, samples, seed, tols):
    """Per-sample certifier loop: the reference ``density_scan`` must reproduce."""
    smin, one, both = [], [], []
    for i in range(samples):
        amp = AmplitudeMatrix.normalized(ginibre(dims, np.random.default_rng([seed, i])))
        smin.append(amp.singular_values[-1])
        one.append(certify_rank1(amp, NontrivialityConvention.AT_LEAST_ONE, tols=tols).holistic)
        both.append(certify_rank1(amp, NontrivialityConvention.BOTH, tols=tols).holistic)
    return np.array(smin), np.array(one), np.array(both)


class TestDensityScan:
    def test_square_dims_mostly_holistic(self):
        report = density_scan(SystemDims(2, 2), 2000, rng_seed=7)
        assert report.fraction_both >= 0.999
        assert report.fraction_at_least_one >= 0.999

    def test_rectangular_dims_split_conventions(self):
        report = density_scan(SystemDims(2, 3), 1000, rng_seed=7)
        assert report.fraction_at_least_one == 0.0
        assert report.fraction_both >= 0.999

    def test_deterministic_given_seed(self):
        a = density_scan(SystemDims(2, 2), 50, rng_seed=3)
        b = density_scan(SystemDims(2, 2), 50, rng_seed=3)
        assert np.array_equal(a.smallest_singular_values, b.smallest_singular_values)
        assert np.array_equal(a.holistic_both, b.holistic_both)

    def test_histogram_covers_samples(self):
        report = density_scan(SystemDims(2, 2), 100, rng_seed=1)
        assert int(report.histogram_counts.sum()) == 100

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 5)])
    def test_matches_certifier_loop_bit_for_bit(self, dims):
        dims = SystemDims(*dims)
        for seed in (0, 7):
            report = density_scan(dims, 200, rng_seed=seed)
            smin, one, both = certifier_density(dims, 200, seed, Tolerances())
            assert np.array_equal(report.smallest_singular_values, smin)
            assert np.array_equal(report.holistic_at_least_one, one)
            assert np.array_equal(report.holistic_both, both)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_matches_certifier_loop_at_mixed_ranks(self, dims):
        # s_max >= 1/sqrt(min(d)) > 0.3 keeps every rank >= 1, while the
        # smaller singular values fall on both sides of 0.3
        dims, tols = SystemDims(*dims), Tolerances(tol_rank=0.3)
        report = density_scan(dims, 300, rng_seed=11, tols=tols)
        smin, one, both = certifier_density(dims, 300, 11, tols)
        assert 0.0 < report.fraction_smallest_below_rank_tol < 1.0
        assert np.array_equal(report.smallest_singular_values, smin)
        assert np.array_equal(report.holistic_at_least_one, one)
        assert np.array_equal(report.holistic_both, both)

    def test_rank_zero_at_tolerance_is_input_error(self):
        with pytest.raises(ValueError, match="rank 0"):
            density_scan(SystemDims(2, 2), 50, rng_seed=0, tols=Tolerances(tol_rank=0.9))
