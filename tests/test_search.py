"""Commutant search: parametrization, gradients, optimizer, grid oracle."""

import tracemalloc
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
    minimize,
    objective_value_and_grad,
    projector_from_coords,
)
from mereo.holism import make_holistic
from mereo.io import preset_amplitude, random_amplitude
from search_reference import descend_one_by_one, grid_scan, objective, parametrize_projector

BELL = AmplitudeMatrix(np.eye(2) / np.sqrt(2))
PRODUCT = AmplitudeMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_amp(rng, d_a, d_b):
    g = ginibre(SystemDims(d_a, d_b), rng)
    return AmplitudeMatrix(g / np.linalg.norm(g))


def n_coords(d, rank):
    """Real coordinates of a rank-``rank`` projector on ``C^d``: a complex basis of its smaller side."""
    return 2 * d * min(rank, d - rank)


# (d, rank) pairs on both sides of the smaller-side rule; (2, 1) and (4, 2) are ties
SIDES = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (6, 5)]


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


class TestProjectorFromCoords:
    def test_canonical_basis_gives_canonical_projector(self):
        for d in range(2, 7):
            for rank in range(d + 1):
                k = min(rank, d - rank)
                coords = np.eye(d)[:, :k].astype(complex).reshape(-1).view(float)
                p = projector_from_coords(coords, d, rank)
                span = np.diag([1.0] * k + [0.0] * (d - k))
                expected = np.eye(d) - span if 2 * rank > d else span
                assert p.rank == rank and p.basis.shape == (d, k)
                assert frob(p.matrix - expected) <= 1e-15

    def test_depends_on_the_span_only(self):
        # Y and Y A span the same subspace for any invertible A
        rng = np.random.default_rng(0)
        for d, rank in ((2, 1), (4, 2), (5, 3), (6, 5)):
            k = min(rank, d - rank)
            y = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
            a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            p, pa = (projector_from_coords(m.reshape(-1).view(float), d, rank) for m in (y, y @ a))
            assert frob(p.matrix - pa.matrix) <= 1e-12
            assert frob(p.matrix @ p.matrix - p.matrix) <= 1e-12
            assert frob(p.matrix - p.matrix.conj().T) <= 1e-12
            # the span of Y is the range, or the kernel above d / 2
            side = p.matrix @ y if 2 * rank <= d else y - p.matrix @ y
            assert frob(side - y) <= 1e-12

    @pytest.mark.parametrize("d, rank", SIDES)
    def test_keeps_a_basis_of_the_smaller_side(self, d, rank):
        k, complement = min(rank, d - rank), 2 * rank > d
        p = projector_from_coords(np.random.default_rng(d).standard_normal(2 * d * k), d, rank)
        assert p.basis.shape == (d, k) and p.complement is complement and p.rank == rank

    def test_wrong_param_count(self):
        with pytest.raises(ValueError, match="expected 8 parameters"):
            projector_from_coords(np.zeros(6), 4, 3)


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
        n = n_coords(dims[0], 1) + n_coords(dims[1], 1)
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
        # ranks (1, 1) take the rank-one route; the others have a complement side
        # and take the matrix route, except at (2, 2), where every rank is 1
        for cfg in (
            SearchConfig(),
            SearchConfig(rank_p=dims[0] - 1, exclude_exclusive=True),
            SearchConfig(rank_q=dims[1] - 1),
            SearchConfig(rank_p=dims[0] - 1, rank_q=dims[1] - 1, exclude_exclusive=True),
        ):
            n = n_coords(dims[0], cfg.rank_p) + n_coords(dims[1], cfg.rank_q)
            params = rng.standard_normal((9, n))
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

    @pytest.mark.parametrize("dims", [(2, 3), (3, 5), (4, 6)])
    @pytest.mark.parametrize("exclude", [False, True])
    def test_exchanging_the_factors(self, dims, exclude):
        # Q amp^T P^T is the transpose of W = P amp Q^T, with the same norm, so
        # (amp, P, Q) and (amp^T, Q, P) have one objective and swapped gradients
        d_a, d_b = dims
        rng = np.random.default_rng(11)
        amp = random_amp(rng, d_a, d_b)
        amp_t = AmplitudeMatrix(amp.matrix.T)
        for rank_p, rank_q in {(1, 1), (1, d_b - 1), (d_a - 1, 1), (d_a - 1, d_b - 1), (d_a // 2, d_b // 2)}:
            cfg = SearchConfig(rank_p=rank_p, rank_q=rank_q, exclude_exclusive=exclude)
            swapped = SearchConfig(rank_p=rank_q, rank_q=rank_p, exclude_exclusive=exclude)
            n_p = n_coords(d_a, rank_p)
            # rows scaled over two decades, which the objective does not see but the gradient does
            params = rng.standard_normal((9, n_p + n_coords(d_b, rank_q))) * np.logspace(-1, 1, 9)[:, None]
            f, grad = objective_value_and_grad(amp, params, cfg)
            f_t, grad_t = objective_value_and_grad(amp_t, np.hstack([params[:, n_p:], params[:, :n_p]]), swapped)
            assert np.max(np.abs(f - f_t)) <= 1e-14
            back = np.hstack([grad_t[:, -n_p:], grad_t[:, :-n_p]])
            assert np.all(np.linalg.norm(back - grad, axis=1) <= 1e-12 * np.linalg.norm(grad, axis=1))


class TestMinimize:
    def test_bell_unrestricted_reaches_exclusive_witness(self):
        res = minimize(BELL, SearchConfig(restarts=8, rng_seed=0))
        assert res.argmin.commutator_norm <= 1e-6

    def test_bell_restricted_minimum_is_bounded_away(self):
        res = minimize(BELL, SearchConfig(restarts=32, exclude_exclusive=True, rng_seed=0))
        assert res.argmin.commutator_norm >= 0.01

    def test_product_restricted_finds_cooccurring_witness(self):
        res = minimize(PRODUCT, SearchConfig(restarts=16, exclude_exclusive=True, rng_seed=0))
        assert res.argmin.commutator_norm <= 1e-6
        assert frob(res.argmin.p.matrix - np.diag([1.0, 0.0])) <= 1e-3
        assert frob(res.argmin.q.matrix - np.diag([1.0, 0.0])) <= 1e-3

    def test_results_replay(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            amp = random_amp(rng, 2, 2)
            res = minimize(amp, SearchConfig(restarts=4, rng_seed=5))
            joint = np.kron(res.argmin.p.matrix, res.argmin.q.matrix)
            dyad = make_holistic(amp).matrix
            replayed = np.linalg.norm(joint @ dyad - dyad @ joint)
            assert abs(replayed - res.argmin.commutator_norm) <= 1e-8

    def test_more_restarts_never_hurt(self):
        rng = np.random.default_rng(3)
        amps = [BELL] + [random_amp(rng, 2, 2) for _ in range(2)]
        for amp in amps:
            for exclude in (False, True):
                values = [
                    minimize(
                        amp,
                        SearchConfig(restarts=r, exclude_exclusive=exclude, rng_seed=9),
                    ).argmin.commutator_norm
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

    @pytest.mark.parametrize("d, exclude, rank", [
        (3, False, 1), (4, True, 1), (6, False, 1), (6, True, 1), (6, False, 5),
    ], ids=["3-False", "4-True", "6-False", "6-True", "6-False-maximal"])
    def test_steps_follow_the_barzilai_borwein_rule(self, d, exclude, rank, monkeypatch):
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
            cfg = SearchConfig(rank_p=rank, rank_q=rank, restarts=1, exclude_exclusive=exclude,
                               rng_seed=seed)
            (trace,) = minimize(amp, cfg).restart_trace
            (x, f, grad), step, rejected = calls[0], search.STEP_INIT, 0
            for cand, f_cand, grad_cand in calls[1:]:
                assert np.allclose(cand, x - step * grad, rtol=1e-12, atol=0.0)
                if f_cand < f:
                    s, y = cand - x, grad_cand - grad
                    # np.vecdot, as in the stacked loop: on real rows it is a BLAS
                    # dot, which rounds a cancelling s.y differently from a row sum
                    sy = np.vecdot(s, y)
                    if sy > 0.0:
                        step = sy / np.vecdot(y, y)
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
        # from orthonormal starts the cap binds at maximal ranks, where the
        # curvature along the smallest singular direction is small
        if rank == d - 1:
            assert branches["capped"] > 0, branches

    @pytest.mark.parametrize("amp, ranks, exclude, seed, max_iters", [
        (random_amplitude(3, SystemDims(6, 6)), (1, 1), True, 3, None),
        (random_amplitude(3, SystemDims(4, 4)), (3, 3), False, 3, None),  # complement sides
        (random_amplitude(3, SystemDims(5, 5)), (2, 2), False, 3, None),  # k = 2: the inverted Gram matrix
        # grad_tol, step_underflow and max_iters in one stack
        (preset_amplitude("product2"), (1, 1), False, 0, 200),
    ], ids=["rank1-hinge", "complement", "k2", "three-stops"])
    def test_stacked_descent_replays_one_restart_at_a_time(
        self, amp, ranks, exclude, seed, max_iters, monkeypatch
    ):
        if max_iters is not None:
            monkeypatch.setattr(search, "MAX_ITERS", max_iters)
        d = amp.dims[0]
        cfg = SearchConfig(rank_p=ranks[0], rank_q=ranks[1], restarts=16,
                           exclude_exclusive=exclude, rng_seed=seed)
        starts = np.random.default_rng(cfg.rng_seed).standard_normal((16, n_coords(d, ranks[0]) * 2))
        expected = descend_one_by_one(amp, starts, cfg)
        x, f, iters, rejected, reason = search._descend(amp, starts.copy(), cfg)
        for r, (x_r, f_r, iters_r, reason_r, rejected_r) in enumerate(expected):
            assert x[r].tobytes() == x_r.tobytes()
            assert (f[r], iters[r], reason[r], rejected[r]) == (f_r, iters_r, reason_r, rejected_r)
        # minimize runs the same descent from the orthonormalized start rows
        trace = minimize(amp, cfg).restart_trace
        assert [(t.objective, t.iterations, t.stop_reason, t.rejected) for t in trace] == [
            e[1:] for e in descend_one_by_one(amp, search._start_rows(amp.dims, cfg), cfg)
        ]
        if max_iters is not None:
            assert set(reason) == {"grad_tol", "step_underflow", "max_iters"}

    def test_descent_stops_calling_the_kernel_when_no_restart_is_left(self, monkeypatch):
        # the only restart stops with step_underflow: the loop must end there,
        # not run on to MAX_ITERS on an empty stack.  From its orthonormalized
        # start the restart converges, so the descent runs from the raw row
        rows = []
        kernel = search.objective_value_and_grad

        def counting(amp, params, cfg):
            rows.append(params.shape[0])
            return kernel(amp, params, cfg)

        monkeypatch.setattr(search, "objective_value_and_grad", counting)
        start = np.random.default_rng(5).standard_normal((1, 2 * n_coords(2, 1)))
        _, _, iters, _, reason = search._descend(
            preset_amplitude("product2"), start, SearchConfig(restarts=1, rng_seed=5)
        )
        assert reason == ["step_underflow"]
        assert 0 not in rows
        assert len(rows) == iters[0] + 1

    @pytest.mark.parametrize("dims, ranks", [
        ((6, 6), (1, 1)), ((4, 4), (3, 3)), ((5, 5), (2, 2)), ((4, 5), (1, 4)), ((5, 3), (3, 1)),
    ])
    def test_start_rows_are_orthonormal_bases_of_the_raw_rows(self, dims, ranks):
        cfg = SearchConfig(rank_p=ranks[0], rank_q=ranks[1], restarts=32, rng_seed=4)
        x = search._start_rows(SystemDims(*dims), cfg)
        raw = np.random.default_rng(cfg.rng_seed).standard_normal(x.shape)
        n_p = n_coords(dims[0], ranks[0])
        for row, raw_row in zip(x, raw):
            for cols, d, rank in ((slice(None, n_p), dims[0], ranks[0]),
                                  (slice(n_p, None), dims[1], ranks[1])):
                y = row[cols].view(complex).reshape(d, -1)
                assert np.abs(y.conj().T @ y - np.eye(y.shape[1])).max() <= 1e-14
                p = projector_from_coords(row[cols], d, rank).matrix
                p_raw = projector_from_coords(raw_row[cols], d, rank).matrix
                assert np.abs(p - p_raw).max() <= 1e-14
        fewer = search._start_rows(SystemDims(*dims), replace(cfg, restarts=3))
        assert fewer.tobytes() == x[:3].tobytes()

    @pytest.mark.parametrize("side_p, side_q", zip(SIDES, SIDES[::-1]))
    def test_start_rows_hold_both_smaller_sides(self, side_p, side_q):
        (d_a, rank_p), (d_b, rank_q) = side_p, side_q
        cfg = SearchConfig(rank_p=rank_p, rank_q=rank_q, restarts=3)
        x = search._start_rows(SystemDims(d_a, d_b), cfg)
        assert x.shape == (3, n_coords(d_a, rank_p) + n_coords(d_b, rank_q))

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_longest_restart_is_short(self, d):
        # the stacked loop runs until its slowest restart stops; from raw
        # normal starts the step cap held some restarts to linear convergence
        # (longest 14, 16 and 25 iterations here)
        longest = max(
            t.iterations
            for seed in range(1, 9)
            for t in minimize(random_amplitude(seed, SystemDims(d, d)),
                              SearchConfig(restarts=32, exclude_exclusive=True,
                                           rng_seed=seed)).restart_trace
        )
        assert longest <= 13

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
        assert abs(res.argmin.commutator_norm - expected) <= 1e-6

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_maximal_ranks_reach_the_cooccurrence_gap(self, d):
        # at ranks (d - 1, d - 1) the least commutator norm of a holistic
        # amplitude is sqrt(2 delta (1 - delta)), delta = s_min^2
        for seed in range(1, 5):
            amp = random_amplitude(seed, SystemDims(d, d))
            res = minimize(amp, SearchConfig(rank_p=d - 1, rank_q=d - 1, rng_seed=seed))
            delta = amp.singular_values[-1] ** 2
            gap = np.sqrt(2.0 * delta * (1.0 - delta))
            assert abs(res.argmin.commutator_norm - gap) <= 1e-9 * gap
            assert res.converged

    def test_maximal_rank_objective_resolves_a_small_gap(self):
        # at the certifier's own subspaces of an amplitude with s_min ~ 1e-6 the
        # kernel's objective is 2 delta (1 - delta) ~ 2e-12, delta = s_min^2:
        # a closed form in n2 ~ 1 - delta would keep only ~4 of its digits
        rng = np.random.default_rng(6)
        u = np.linalg.qr(ginibre(SystemDims(3, 3), rng))[0]
        v = np.linalg.qr(ginibre(SystemDims(3, 3), rng))[0]
        amp = AmplitudeMatrix.normalized(u @ np.diag([0.8, 0.6, 1e-6]) @ v.conj().T)
        u, _, vh = np.linalg.svd(amp.matrix)
        s, v = amp.singular_values, vh.conj().T
        # P = I - |u_3><u_3| and Q = I - |conj(v_3)><conj(v_3)|: complement sides
        params = np.concatenate([u[:, 2].copy().view(float), v[:, 2].conj().view(float)])
        f, _ = objective_value_and_grad(amp, params, SearchConfig(rank_p=2, rank_q=2))
        delta = s[-1] ** 2
        expected = 2.0 * delta * (1.0 - delta)
        assert abs(f - expected) <= 1e-9 * expected

    def test_invalid_ranks(self):
        amp = random_amp(np.random.default_rng(7), 3, 4)
        for rank_p, rank_q in ((0, 1), (3, 1), (1, 0), (1, 4)):
            with pytest.raises(ValueError, match="rank_"):
                minimize(amp, SearchConfig(rank_p=rank_p, rank_q=rank_q))
        for rank in (-1, 4):
            with pytest.raises(ValueError, match="rank must be"):
                projector_from_coords(np.zeros(0), 3, rank)

    def test_no_cooccurring_near_commuters_for_invertible(self):
        # invertible amplitudes admit no commuting pair with nonzero overlap
        rng = np.random.default_rng(4)
        for _ in range(5):
            amp = random_amp(rng, 2, 2)
            if amp.singular_values[-1] <= 0.05:
                continue
            res = minimize(amp, SearchConfig(restarts=8, rng_seed=11))
            if res.argmin.commutator_norm <= 1e-6:
                assert res.argmin.cooccurrence_weight < 1e-3


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
            opt_val = minimize(amp, SearchConfig(restarts=8, rng_seed=13)).argmin.commutator_norm
            assert opt_val <= grid_val + 1e-6

    @pytest.mark.parametrize("name, resolution, exclude, value, angles", [
        ("bell2", 12, False, 2.613021139891053e-17,
         (2.8559933214452666, 0.0, 0.28559933214452665, 3.141592653589793)),
        ("bell2", 12, True, 6.338779100328612e-16,
         (1.9991953250116865, 5.235987755982988, 1.1423973285781066, 4.1887902047863905)),
        ("bell2", 24, False, 1.6520287610887036e-17,
         (0.2731819698773733, 0.0, 2.86841068371242, 3.141592653589793)),
        ("bell2", 24, True, 0.0177719105523106,
         (0.13659098493868665, 3.926990816987241, 3.0050016686511065, 5.235987755982988)),
        ("product2", 12, False, 0.0, (0.0, 0.0, 0.0, 0.0)),
        ("product2", 12, True, 0.0, (0.0, 0.0, 0.0, 0.0)),
        ("product2", 24, False, 0.0, (0.0, 0.0, 0.0, 0.0)),
        ("product2", 24, True, 0.0, (0.0, 0.0, 0.0, 0.0)),
        ("random7", 12, False, 0.0045686716154882375,
         (1.1423973285781066, 0.5235987755982988, 1.9991953250116865, 5.235987755982988)),
        ("random7", 12, True, 0.023480824487580564,
         (1.4279966607226333, 5.235987755982988, 0.8567979964335799, 2.617993877991494)),
        ("random7", 24, False, 0.0007048612345882891,
         (0.9561368945708066, 4.974188368183839, 0.8195459096321199, 2.8797932657906435)),
        ("random7", 24, True, 0.023609139266157864,
         (1.7756828042029265, 3.926990816987241, 0.5463639397547466, 2.8797932657906435)),
    ])
    def test_outputs_are_pinned_bit_for_bit(self, name, resolution, exclude, value, angles):
        # a rewrite of the scan's arithmetic must keep every bit: the Bell
        # amplitude has many tied grid points, so a rounding change moves its angles
        if name == "random7":
            amp = random_amplitude(7, SystemDims(2, 2))
        else:
            amp = preset_amplitude(name)
        assert brute_force_grid_d2(amp, resolution, exclude) == (value, angles)

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            brute_force_grid_d2(AmplitudeMatrix(np.eye(3) / np.sqrt(3)), 8, False)

    @pytest.mark.parametrize("resolution", [1, 0, -4])
    def test_rejects_resolutions_below_two(self, resolution):
        with pytest.raises(ValueError, match="at least 2"):
            brute_force_grid_d2(BELL, resolution, False)

    @pytest.mark.parametrize("resolution", [2, 3, 7, 24])
    @pytest.mark.parametrize("exclude", [False, True])
    def test_matches_the_unblocked_reference_bit_for_bit(self, resolution, exclude):
        amps = [preset_amplitude("bell2"), preset_amplitude("product2")]
        amps += [random_amplitude(seed, SystemDims(2, 2)) for seed in range(12)]
        for amp in amps:
            # repr tells -0.0 from 0.0
            assert repr(brute_force_grid_d2(amp, resolution, exclude)) == repr(
                grid_scan(amp, resolution, exclude)
            )

    def test_hinge_bound_holds_every_active_entry(self):
        # the grid adds the hinge only below the bound: every n2 whose sqrt
        # rounds below the floor must lie below it
        floor2 = EXCLUDE_FLOOR**2
        n2 = floor2 + np.arange(-8, 9) * np.spacing(floor2)
        active = np.sqrt(n2) < EXCLUDE_FLOOR
        assert active.any() and not active.all()
        assert np.all(n2[active] < search._HINGE_N2_BOUND)

    def test_memory_stays_at_a_block(self):
        # the full overlap matrix at R = 48 would take 48^4 * 16 B = 85 MB
        tracemalloc.start()
        try:
            brute_force_grid_d2(preset_amplitude("bell2"), 48, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


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
            numeric = minimize(amp, cfg).argmin.commutator_norm >= 0.01
            assert analytic == numeric


def certifier_density(dims, samples, seed, tols):
    """Per-sample certifier loop: the reference ``density_scan`` must reproduce.

    Draws sample after sample from one stream, one ``ginibre`` matrix each,
    and scales each by its own axis norm; ``AmplitudeMatrix.normalized``
    divides by the flattened norm, which differs from it in the last bit on
    about one draw in five.
    """
    rng = np.random.default_rng(seed)
    smin, one, both = [], [], []
    for _ in range(samples):
        g = ginibre(dims, rng)
        amp = AmplitudeMatrix(g / np.linalg.norm(g, axis=(-2, -1)))
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
        # == is identity: a field-by-field == would compare the arrays and raise
        assert a == a and a != b and hash(a) == hash(a)

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

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_longer_scan_extends_shorter(self, dims):
        dims = SystemDims(*dims)
        for seed in (0, 5):
            short = density_scan(dims, 100, rng_seed=seed)
            long = density_scan(dims, 300, rng_seed=seed)
            assert np.array_equal(short.smallest_singular_values, long.smallest_singular_values[:100])
            assert np.array_equal(short.holistic_at_least_one, long.holistic_at_least_one[:100])
            assert np.array_equal(short.holistic_both, long.holistic_both[:100])

    def test_near_rank_tol_band_holds_its_lower_edge(self):
        # tol_rank = 10 s puts the smallest sample s exactly on the band's lower edge
        dims = SystemDims(3, 3)
        smin = density_scan(dims, 300, rng_seed=1).smallest_singular_values
        s = min(v for v in smin.tolist() if (10.0 * v) / 10.0 == v)
        assert s == smin.min()
        report = density_scan(dims, 300, rng_seed=1, tols=Tolerances(tol_rank=10.0 * s))
        assert report.near_rank_tol_count == 300

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_near_rank_tol_count(self, dims):
        # the band [tol / 10, 10 tol] holds nearly every sample at 0.3 and splits the cohort at 0.03
        dims = SystemDims(*dims)
        for tol_rank in (0.3, 0.03):
            report = density_scan(dims, 300, rng_seed=11, tols=Tolerances(tol_rank=tol_rank))
            lo, hi = tol_rank / search.NEAR_RANK_TOL_FACTOR, tol_rank * search.NEAR_RANK_TOL_FACTOR
            expected = sum(1 for v in report.smallest_singular_values if lo <= v <= hi)
            assert 0 < report.near_rank_tol_count == expected
        assert density_scan(dims, 300, rng_seed=11).near_rank_tol_count == 0

    def test_rank_zero_at_tolerance_is_input_error(self):
        with pytest.raises(ValueError, match="rank 0"):
            density_scan(SystemDims(2, 2), 50, rng_seed=0, tols=Tolerances(tol_rank=0.9))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_smallest_singular_value_follows_its_exact_law(self, n):
        # n x n complex Ginibre at unit HS norm: n s_min^2 ~ Beta(1, n^2 - 1), i.e.
        # P(s_min^2 >= y) = (1 - n y)^(n^2 - 1) on [0, 1/n].  The Kolmogorov-Smirnov
        # bound sqrt(N) D <= 2.69 has false-alarm probability 1e-6; seed and bound
        # were fixed before the first run.  A real-Ginibre or unnormalized stream fails.
        samples = 100_000
        y = np.sort(density_scan(SystemDims(n, n), samples, rng_seed=1).smallest_singular_values ** 2)
        cdf = 1.0 - (1.0 - n * np.minimum(y, 1.0 / n)) ** (n * n - 1)
        ranks = np.arange(1, samples + 1) / samples
        d = max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / samples)))
        assert np.sqrt(samples) * d <= 2.69
