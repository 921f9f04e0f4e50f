"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to runtime
calibration.
"""

import numpy as np

from mereo import (
    AmplitudeMatrix,
    NontrivialityConvention,
    QuantumTransformation,
    SearchConfig,
    State,
    SystemDims,
    Verdict,
    brute_force_grid_d2,
    certify_rank1,
    choi,
    compose,
    density_scan,
    extract_property,
    frob,
    from_property,
    ginibre,
    has_property,
    lattice_amplitudes,
    marginal_entropy,
    minimize,
    objective_value_and_grad,
    partial_trace,
    product_commutator_norm,
    property_from_span,
    swap_operator,
    symmetric_projector,
)

from mereo.holism import make_holistic

from doubleket_reference import kron
from search_reference import bloch_projectors, parametrize_projector

AT_LEAST_ONE = NontrivialityConvention.AT_LEAST_ONE
BOTH = NontrivialityConvention.BOTH

BELL = AmplitudeMatrix(np.eye(2) / np.sqrt(2))
PRODUCT = AmplitudeMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
MAXENT3 = AmplitudeMatrix(np.eye(3) / np.sqrt(3))


def report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def sample_amp(rng, d_a, d_b, min_singular=0.0):
    while True:
        g = ginibre(SystemDims(d_a, d_b), rng)
        amp = AmplitudeMatrix(g / np.linalg.norm(g))
        if amp.singular_values[-1] > min_singular:
            return amp


def rank_deficient_amp(rng, d, rank):
    u = np.linalg.qr(ginibre(SystemDims(d, d), rng))[0][:, :rank]
    v = np.linalg.qr(ginibre(SystemDims(d, d), rng))[0][:, :rank]
    weights = np.abs(rng.standard_normal(rank)) + 0.1
    m = (u * weights) @ v.conj().T
    return AmplitudeMatrix(m / np.linalg.norm(m))


def test_criterion_1_analytic_cooccurring_branch():
    rng = np.random.default_rng(101)
    ok = True
    for d in (2, 3):
        for _ in range(100):
            amp = sample_amp(rng, d, d, min_singular=1e-3)
            for conv in (AT_LEAST_ONE, BOTH):
                verdict = certify_rank1(amp, conv)
                ok = ok and verdict.holistic and verdict.lambda1_witness is None
    for i in range(20):
        d = 2 + i % 2
        rank = 1 + (i % (d - 1))
        amp = rank_deficient_amp(rng, d, rank)
        for conv in (AT_LEAST_ONE, BOTH):
            verdict = certify_rank1(amp, conv)
            ok = ok and not verdict.holistic and verdict.lambda1_witness is not None
            witness = verdict.lambda1_witness
            replay = product_commutator_norm(amp, witness.p, witness.q).commutator_norm
            ok = ok and replay <= 1e-10
    report(1, "full-rank amplitudes certify holistic, deficient ones emit replayable witnesses", ok)


def test_criterion_2_numerical_converse_on_bell():
    cfg = SearchConfig(restarts=32, exclude_exclusive=True, rng_seed=202)
    restricted = minimize(BELL, cfg)
    grid_restricted, _ = brute_force_grid_d2(BELL, 48, True)
    unrestricted = minimize(BELL, SearchConfig(restarts=32, rng_seed=202))
    grid_unrestricted, _ = brute_force_grid_d2(BELL, 48, False)
    ok = (
        restricted.argmin.commutator_norm >= 0.01
        and grid_restricted >= 0.01
        and abs(unrestricted.argmin.commutator_norm - grid_unrestricted) <= 1e-3
    )
    report(2, "restricted Bell minimum stays above 0.01 (optimizer and 48^4 grid agree)", ok)


def test_criterion_3_exclusive_branch_existence():
    rng = np.random.default_rng(303)
    ok = True
    for dims in ((2, 2), (2, 3), (3, 3)):
        for _ in range(20):
            amp = sample_amp(rng, *dims)
            witness = certify_rank1(amp, BOTH).lambda0_witness
            ok = ok and witness is not None
            replay = product_commutator_norm(amp, witness.p, witness.q).commutator_norm
            weight = frob(witness.p.matrix @ amp.matrix @ witness.q.matrix.T)
            ok = ok and replay <= 1e-10 and weight <= 1e-12
    report(3, "constructed exclusive witnesses replay to zero commutator and zero overlap", ok)


def test_criterion_4_commutation_characterization_on_grid():
    rng = np.random.default_rng(404)
    proj, _, _ = bloch_projectors(24)
    n = proj.shape[0]
    ok = True
    for _ in range(5):
        amp = sample_amp(rng, 2, 2)
        dyad = make_holistic(amp).matrix
        qt = proj.transpose(0, 2, 1)
        chunk = 48
        for start in range(0, n, chunk):
            block = proj[start : start + chunk]
            # direct commutator route, independent of the search formulas
            joint = np.einsum("aij,bkl->abikjl", block, proj).reshape(-1, 4, 4)
            comm = np.linalg.norm(joint @ dyad - dyad @ joint, axis=(1, 2))
            w = np.einsum("aij,jk,bkl->abil", block, amp.matrix, qt).reshape(-1, 2, 2)
            resid_zero = np.linalg.norm(w, axis=(1, 2))
            resid_one = np.linalg.norm(w - amp.matrix, axis=(1, 2))
            resid = np.minimum(resid_zero, resid_one)
            ok = ok and bool(np.all((comm <= 1e-6) == (resid <= 1e-5)))
    report(4, "commutator vanishes exactly where the pair scales or kills the amplitude", ok)


def test_criterion_5_projector_transformation_bijection():
    rng = np.random.default_rng(505)
    ok = True
    count = 0
    while count < 50:
        d = 2 + count % 4
        rank = 1 + count % (d - 1)
        p = parametrize_projector(rng.normal(size=d * d), d, rank)
        back = extract_property(from_property(p))
        ok = ok and frob(back.matrix - p.matrix) <= 1e-10
        count += 1
    for d in (2, 3, 4, 5):
        p = parametrize_projector(rng.normal(size=d * d), d, max(1, d - 1)).matrix
        e = swap_operator(d)
        dims = SystemDims(d, d)
        pi_left = kron(p, np.eye(d))
        pi_right = kron(np.eye(d), p)
        steps = [
            partial_trace(pi_left @ e @ pi_left, dims, "first"),
            partial_trace(e @ kron(p, p), dims, "first"),
            partial_trace(e @ pi_left, dims, "first") @ p,
            partial_trace(pi_right @ e, dims, "first") @ p,
            p @ partial_trace(e, dims, "first") @ p,
            p,
        ]
        for left, right in zip(steps, steps[1:]):
            ok = ok and frob(left - right) <= 1e-10
        ok = ok and frob(partial_trace(e, dims, "first") - np.eye(d)) <= 1e-10
    report(5, "extract after embed recovers every projector; each derivation step holds", ok)


def test_criterion_6_repeatability():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(25):
        d = int(rng.integers(2, 5))
        rank = int(rng.integers(1, d))
        t = from_property(parametrize_projector(rng.normal(size=d * d), d, rank))
        dist = frob(choi(compose(t, t)).matrix - choi(t).matrix)
        ok = ok and dist <= 1e-10
    for _ in range(100):
        k = ginibre(SystemDims(3, 3), rng)
        k = k / (np.linalg.svd(k, compute_uv=False)[0] * 1.0001)
        t = QuantumTransformation([k])
        dist = frob(choi(compose(t, t)).matrix - choi(t).matrix)
        ok = ok and dist >= 1e-3
    report(6, "projector maps are repeatable, random atomic maps are not", ok)


def test_criterion_7_marginal_entropies():
    ok = True
    s_whole, s_part = marginal_entropy(BELL)
    ok = ok and s_whole == 0.0 and abs(s_part - np.log(2)) <= 1e-9
    ok = ok and abs(marginal_entropy(MAXENT3)[1] - np.log(3)) <= 1e-9
    ok = ok and abs(marginal_entropy(PRODUCT)[1]) <= 1e-12
    for amp in (BELL, MAXENT3, PRODUCT):
        marginal = partial_trace(make_holistic(amp).matrix, SystemDims(*amp.dims), "first")
        w = np.linalg.eigvalsh(marginal)
        w = w[w > 1e-12]
        oracle = float(-np.sum(w * np.log(w)))
        ok = ok and abs(marginal_entropy(amp)[1] - oracle) <= 1e-9
    report(7, "marginal entropies match Schmidt weights and the partial-trace oracle", ok)


def test_criterion_8_lattice_construction():
    amps = [AmplitudeMatrix(m) for m in lattice_amplitudes(BELL, 4, rng_seed=808)]
    props = [make_holistic(a) for a in amps]
    ok = frob(sum(p.matrix for p in props) - np.eye(4)) <= 1e-9
    for i in range(4):
        for j in range(4):
            if i != j:
                ok = ok and frob(props[i].matrix @ props[j].matrix) <= 1e-10
    for amp in amps:
        if amp.singular_values[-1] > 1e-7:
            ok = ok and certify_rank1(amp, AT_LEAST_ONE).holistic
    report(8, "lattice members are exclusive, resolve the identity, and certify holistic", ok)


def test_criterion_9_density_scan():
    square = density_scan(SystemDims(2, 2), 10_000, rng_seed=909)
    rect = density_scan(SystemDims(2, 3), 10_000, rng_seed=909)
    ok = (
        square.fraction_both >= 0.999
        and rect.fraction_at_least_one == 0.0
        and rect.fraction_both >= 0.999
    )
    report(9, "holistic fractions: square >= 0.999 both, rectangular splits the conventions", ok)


def test_criterion_10_gradient_check():
    rng = np.random.default_rng(1010)
    ok = True
    for dims in ((2, 2), (3, 3)):
        amp = sample_amp(rng, *dims)
        # rank-1 factors: a complex basis vector each, 2 d reals
        n = 2 * dims[0] + 2 * dims[1]
        for trial in range(50):
            cfg = SearchConfig(rank_p=1, rank_q=1, exclude_exclusive=bool(trial % 2))
            params = rng.normal(size=n)
            _, grad = objective_value_and_grad(amp, params, cfg)
            fd = np.zeros(n)
            h = 1e-5
            for i in range(n):
                plus = params.copy()
                plus[i] += h
                minus = params.copy()
                minus[i] -= h
                fd[i] = (
                    objective_value_and_grad(amp, plus, cfg)[0]
                    - objective_value_and_grad(amp, minus, cfg)[0]
                ) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            ok = ok and rel <= 1e-4
    report(10, "analytic gradient agrees with central differences to 1e-4", ok)


def test_criterion_11_worked_examples():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    up = property_from_span([e0], 2)
    down = property_from_span([e1], 2)
    up_state = State(np.outer(e0, e0))
    side = (e0 + e1) / np.sqrt(2)
    side_state = State(np.outer(side, side))
    ok = (
        has_property(up_state, up).verdict is Verdict.HAS
        and has_property(up_state, down).verdict is Verdict.HAS_NOT
        and has_property(side_state, up).verdict is Verdict.MEANINGLESS
    )

    basis4 = np.eye(4)
    even = property_from_span([basis4[0], basis4[2]], 4)
    mixed = State(0.25 * np.outer(basis4[0], basis4[0]) + 0.75 * np.outer(basis4[2], basis4[2]))
    sup_vec = (basis4[0] + basis4[2]) / np.sqrt(2)
    sup = State(np.outer(sup_vec, sup_vec))
    ok = ok and has_property(mixed, even).verdict is Verdict.HAS
    ok = ok and has_property(sup, even).verdict is Verdict.HAS

    sym = symmetric_projector(2)
    both_up = np.zeros(4)
    both_up[0] = 1.0
    singlet = np.zeros(4)
    singlet[1] = 1.0 / np.sqrt(2)
    singlet[2] = -1.0 / np.sqrt(2)
    ok = ok and has_property(State(np.outer(both_up, both_up)), sym).verdict is Verdict.HAS
    ok = ok and has_property(State(np.outer(singlet, singlet)), sym).verdict is Verdict.HAS_NOT
    report(11, "worked membership examples give (has, has-not, meaningless) as stated", ok)
