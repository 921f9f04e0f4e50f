"""Witness and projector records: every printed witness and argmin rebuilds the matrix used.

A certify witness is printed as a recipe, which names the pair in terms of
the input: the leading singular subspaces of one ``np.linalg.svd``, or the
image of one column.  A search argmin, which no recipe fixes, is printed as
projector records ``{dim, rank, complement, basis}``: the projector is
``B B^dag``, or ``I - B B^dag`` when ``complement``.  The CLI cases parse a
report, rebuild each pair with this file's own code and compare it by
``tobytes()`` with the matrices the library computed in process.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mereo import (
    AmplitudeMatrix,
    NontrivialityConvention,
    Property,
    SearchConfig,
    certify_rank1,
    cli,
    minimize,
    product_commutator_norm,
    projector_from_coords,
    property_from_span,
)
from mereo.io import (
    load_matrix,
    matrix_to_json_dict,
    property_from_json_dict,
    property_to_json_dict,
    random_amplitude,
)
from search_reference import parametrize_projector


def run_report(argv, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())["results"]


def rebuilt(record):
    return property_from_json_dict(record).matrix


def assert_same_bytes(record, prop):
    back = property_from_json_dict(record)
    assert record["rank"] == back.rank == prop.rank
    assert back.basis.tobytes() == prop.basis.tobytes()
    assert back.matrix.tobytes() == prop.matrix.tobytes()


def gamma_of_rank(tmp_path, d_a, d_b, rank, seed):
    rng = np.random.default_rng(seed)
    m = (rng.standard_normal((d_a, rank)) + 1j * rng.standard_normal((d_a, rank))) @ (
        rng.standard_normal((rank, d_b)) + 1j * rng.standard_normal((rank, d_b))
    )
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(matrix_to_json_dict(m)))
    return str(path)


def rebuilt_witness(amp, recipe):
    """The pair a certify recipe names, rebuilt from ``amp`` as the README states."""
    if recipe["kind"] == "leading_singular_subspaces":
        u, _, vh = np.linalg.svd(amp.matrix)
        return Property.from_unitary(u, recipe["rank"]), Property.from_unitary(vh.T, recipe["rank"])
    assert recipe["kind"] == "column_image"
    j = recipe["column"]
    image = amp.matrix[:, j] / np.linalg.norm(amp.matrix[:, j])
    e_j = np.zeros((amp.dims[1], 1), dtype=complex)
    e_j[j, 0] = 1.0
    return Property.from_basis(image[:, None], complement=True), Property.from_basis(e_j)


def assert_recipe_rebuilds(amp, printed, witness):
    """The printed recipe rebuilds the replayed pair bit for bit, and replays to the printed norm."""
    p, q = rebuilt_witness(amp, printed["recipe"])
    for back, used in ((p, witness.p), (q, witness.q)):
        assert back.rank == used.rank and back.complement is used.complement
        assert back.basis.tobytes() == used.basis.tobytes()
        assert back.matrix.tobytes() == used.matrix.tobytes()
    replay = product_commutator_norm(amp, p, q)
    assert replay.commutator_norm == printed["replay_commutator_norm"] == witness.commutator_norm
    assert replay.cooccurrence_weight == printed["cooccurrence_weight"]


@pytest.mark.parametrize("d, rank, side_cols, complement", [
    (4, 1, 1, False),  # r <= d/2 keeps the range
    (4, 2, 2, False),  # the tie keeps the range
    (5, 4, 1, True),  # r > d/2 keeps the complement
])
def test_certify_witnesses_rebuild_exactly(tmp_path, d, rank, side_cols, complement):
    path = gamma_of_rank(tmp_path, d, d, rank, seed=[d, rank])
    results = run_report(["certify", "--gamma", path, "--convention", "bothreport"], tmp_path)
    amp = AmplitudeMatrix.normalized(load_matrix(path))
    for conv in NontrivialityConvention:
        verdict = certify_rank1(amp, conv)
        printed = results["verdicts"][conv.value]
        lam1, lam0 = printed["lambda1_witness"], printed["lambda0_witness"]
        assert lam1["recipe"] == {"kind": "leading_singular_subspaces", "rank": rank}
        for prop in (verdict.lambda1_witness.p, verdict.lambda1_witness.q):
            assert prop.basis.shape[1] == side_cols and prop.complement is complement
        assert_recipe_rebuilds(amp, lam1, verdict.lambda1_witness)
        # the exclusive witness: P off the image of one column, Q onto that column
        assert lam0["recipe"] == {"kind": "column_image", "column": 0}
        assert_recipe_rebuilds(amp, lam0, verdict.lambda0_witness)


def test_identity_factor_is_a_complement_with_zero_columns(tmp_path):
    # a full-rank 2x3 amplitude is not holistic under atleastone: P = I
    results = run_report(["certify", "--random-seed", "1", "--dims", "2", "3"], tmp_path)
    printed = results["verdicts"]["atleastone"]["lambda1_witness"]
    assert printed["recipe"] == {"kind": "leading_singular_subspaces", "rank": 2}
    amp = random_amplitude(1, (2, 3))
    witness = certify_rank1(amp).lambda1_witness
    assert_recipe_rebuilds(amp, printed, witness)
    record = json.loads(json.dumps(property_to_json_dict(witness.p)))
    assert record == {
        "dim": 2, "rank": 2, "complement": True,
        "basis": {"rows": 2, "cols": 0, "re": [], "im": []},
    }
    assert_same_bytes(record, witness.p)
    assert rebuilt(record).tobytes() == np.eye(2, dtype=complex).tobytes()


def test_signed_zeros_survive_the_record(tmp_path):
    # this amplitude's SVD gives a co-occurring Q basis with -0.0 entries
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(matrix_to_json_dict(np.array([[0.0, 1j], [0.0, 0.0]]))))
    results = run_report(["certify", "--gamma", str(path)], tmp_path)
    amp = AmplitudeMatrix.normalized(load_matrix(path))
    witness = certify_rank1(amp).lambda1_witness
    assert_recipe_rebuilds(amp, results["verdicts"]["atleastone"]["lambda1_witness"], witness)
    record = json.loads(json.dumps(property_to_json_dict(witness.q)))
    assert "-0.0" in json.dumps(record)
    assert_same_bytes(record, witness.q)


@pytest.mark.parametrize("d, rank", [(3, 1), (3, 2), (4, 3)])
def test_search_argmin_rebuilds_exactly(tmp_path, d, rank):
    argv = ["search", "--random-seed", "7", "--dims", str(d), str(d), "--restarts", "2",
            "--rank-p", str(rank), "--rank-q", str(rank), "--seed", "5"]
    results = run_report(argv, tmp_path)
    cfg = SearchConfig(rank_p=rank, rank_q=rank, restarts=2, rng_seed=5)
    result = minimize(random_amplitude(7, (d, d)), cfg)
    for key, prop in (("argmin_p", result.argmin.p), ("argmin_q", result.argmin.q)):
        assert results[key]["complement"] is (2 * rank > d)
        assert_same_bytes(results[key], prop)
    assert results["min_value"] == result.argmin.commutator_norm


@pytest.mark.parametrize("vectors, dim", [
    ([], 3),  # the zero projector: no columns
    ([[1.0, 0.0]], 2),
    ([[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, -1.0, 0.0]], 4),
    ([[1.0, 2j, 0.0], [2.0, 4j, 0.0], [0.5, 0.0, 1j]], 3),  # a dependent pair: rank 2
])
def test_span_projector_rebuilds_exactly(vectors, dim):
    prop = property_from_span(vectors, dim)
    assert_same_bytes(json.loads(json.dumps(property_to_json_dict(prop))), prop)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda d: st.lists(st.floats(-4.0, 4.0), min_size=d * d, max_size=d * d)
))
def test_every_rank_round_trips_through_json(params):
    # the search's coordinates take 2 d min(rank, d - rank) <= d^2 of the reals
    d = int(round(len(params) ** 0.5))
    for rank in range(d + 1):
        k = min(rank, d - rank)
        for prop in (
            parametrize_projector(np.array(params), d, rank),
            projector_from_coords(np.array(params[: 2 * d * k]), d, rank),
        ):
            record = json.loads(json.dumps(property_to_json_dict(prop)))
            assert prop.rank == rank and record["basis"]["cols"] == k
            assert property_from_json_dict(record).complement == prop.complement
            assert_same_bytes(record, prop)


def good_record():
    return property_to_json_dict(parametrize_projector(np.arange(9.0) / 7.0, 3, 2))


@pytest.mark.parametrize("edit", [
    lambda r: r.update(complement=1),
    lambda r: r.update(rank=1),
    lambda r: r.update(dim=4),
    lambda r: r["basis"].update(cols=4, re=[0.0] * 12, im=[0.0] * 12),
    lambda r: r["basis"].update(re=[2.0 * x for x in r["basis"]["re"]]),
    lambda r: r["basis"].update(re=[float("nan")] * 3),
    lambda r: r.pop("basis"),
    lambda r: r["basis"].update(rows=json.loads("1e400")),  # inf, which int() cannot take
    # sizes that int() would truncate or coerce; cols True and 1.5 would read as 1
    lambda r: r["basis"].update(rows=2.7),
    lambda r: r["basis"].update(rows=True),
    lambda r: r["basis"].update(cols=True),
    lambda r: r["basis"].update(cols=1.5),
    lambda r: r["basis"].update(cols="1"),
])
def test_malformed_records_are_rejected(edit):
    record = good_record()
    edit(record)
    with pytest.raises(ValueError):
        property_from_json_dict(record)


def rank_one_record():
    """Record of ``|0><0|`` on ``C^2``: basis ``re [1.0, 0.0]``, ``im [0.0, 0.0]``."""
    return property_to_json_dict(property_from_span([[1.0, 0.0]], 2))


@pytest.mark.parametrize("edit", [
    # a bool equals 1 or 0 under ==, and np.asarray parses numeric strings and nesting
    lambda r: r.update(rank=True),
    lambda r: r["basis"].update(re=[True, False]),
    lambda r: r["basis"].update(im=[False, False]),
    lambda r: r["basis"].update(re=["1.0", "0.0"]),
    lambda r: r["basis"].update(re=[[1.0], [0.0]]),
])
def test_records_hold_numbers_not_bools_or_strings(edit):
    record = rank_one_record()
    assert property_from_json_dict(record).rank == 1
    edit(record)
    with pytest.raises(ValueError):
        property_from_json_dict(record)


@pytest.mark.parametrize("text", [
    '{"rows": 1, "cols": 2, "re": ["0.6", "0.8"], "im": [false, true]}',
    '{"rows": 1, "cols": 1, "re": "0.6", "im": [0.8]}',
    '{"rows": 1, "cols": 2, "re": [[0.6, 0.8]], "im": [[0, 0]]}',
    '{"rows": 1, "cols": 2, "re": [0.6, null], "im": [0, 0]}',
])
def test_matrix_files_hold_arrays_of_numbers(tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="malformed matrix record"):
        load_matrix(path)
    # the same entries as JSON numbers, ints among them, parse
    path.write_text('{"rows": 1, "cols": 2, "re": [0.6, 0.8], "im": [0, 1]}')
    assert load_matrix(path).tolist() == [[0.6, 0.8 + 1j]]
