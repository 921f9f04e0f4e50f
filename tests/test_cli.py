"""End-to-end CLI runs: JSON reports, CSV scans, exit codes, replay."""

import inspect
import json
import math
import os
import subprocess
import sys
import types
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mereo import (
    Property,
    SearchConfig,
    SystemDims,
    Tolerances,
    __version__,
    cli,
    density_scan,
    holism,
    lattice_amplitudes,
    minimize,
)
from mereo.io import matrix_to_json_dict, random_amplitude

from holism_reference import lattice_from_report, lattice_results_loop, pairwise_tables_loop, rank2_3x3_matrix


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def parsed_matrix(record):
    """Complex matrix from a ``{rows, cols, re, im}`` record, signed zeros kept."""
    m = np.empty(record["rows"] * record["cols"], dtype=complex)
    m.real = record["re"]
    m.imag = record["im"]
    return m.reshape(record["rows"], record["cols"])


class TestCertify:
    def test_bell_preset(self, capsys):
        code, report = run_cli(["certify", "--preset", "bell2"], capsys)
        assert code == 0
        verdict = report["results"]["verdicts"]["atleastone"]
        assert verdict["holistic"] is True
        assert verdict["lambda1_witness"] is None
        wit = verdict["lambda0_witness"]
        assert wit is not None
        assert wit["replay_commutator_norm"] <= 1e-10
        assert wit["cooccurrence_weight"] <= 1e-12

    def test_product_preset(self, capsys):
        code, report = run_cli(["certify", "--preset", "product2"], capsys)
        assert code == 0
        assert report["results"]["verdicts"]["atleastone"]["holistic"] is False

    def test_rectangular_file_both_conventions(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(matrix_to_json_dict(g)))
        code, report = run_cli(
            ["certify", "--gamma", str(path), "--convention", "bothreport"], capsys
        )
        assert code == 0
        verdicts = report["results"]["verdicts"]
        assert verdicts["both"]["holistic"] is True
        assert verdicts["atleastone"]["holistic"] is False

    @pytest.mark.parametrize("convention, verdicts", [
        ("atleastone", ["atleastone"]),
        ("bothreport", ["atleastone", "both"]),
    ])
    def test_results_hold_no_copy_of_the_input(self, tmp_path, capsys, convention, verdicts):
        # the input is fixed by gamma_source and config_echo, so results do not repeat it
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(matrix_to_json_dict(np.diag([1.0, 0.5]))))
        code, report = run_cli(["certify", "--gamma", str(path), "--convention", convention], capsys)
        assert code == 0
        results = report["results"]
        assert sorted(results) == ["dims", "gamma_source", "singular_values", "verdicts"]
        assert results["gamma_source"] == {"kind": "file", "path": str(path)}
        assert sorted(results["verdicts"]) == verdicts

    def test_zero_matrix_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(matrix_to_json_dict(np.zeros((2, 2)))))
        code, _ = run_cli(["certify", "--gamma", str(path)], capsys)
        assert code == 2

    def test_missing_source_is_input_error(self, capsys):
        code, _ = run_cli(["certify"], capsys)
        assert code == 2

    def test_replay_reproduces_results(self, capsys):
        args = ["certify", "--random-seed", "4", "--dims", "2", "2"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first["results"] == second["results"]
        assert first["config_echo"] == second["config_echo"]

    def test_invariant_violation_maps_to_exit_3(self, capsys, monkeypatch):
        from mereo.config import InvariantViolation

        def boom(args, tols):
            raise InvariantViolation("forced for the exit-code contract")

        monkeypatch.setattr(cli, "cmd_certify", boom)
        code = cli.main(["certify", "--preset", "bell2"])
        capsys.readouterr()
        assert code == 3

    @pytest.mark.parametrize("preset", ["product2", "bell2"])
    def test_failed_witness_replay_exits_3(self, capsys, monkeypatch, preset):
        # product2 fails on its co-occurring witness, bell2 on its exclusive one
        replay = holism.product_commutator_norm
        monkeypatch.setattr(
            holism, "product_commutator_norm",
            lambda amp, p, q: replay(amp, p, q)._replace(commutator_norm=1.0),
        )
        code = cli.main(["certify", "--preset", preset])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invariant violation: witness replay failed")

    def test_trivial_witness_factors_exit_3(self, capsys, monkeypatch):
        identity = Property.from_basis(np.zeros((2, 0)), complement=True)
        monkeypatch.setattr(holism, "_exclusive_witness", lambda amp, col: (identity, identity))
        code = cli.main(["certify", "--preset", "product2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invariant violation:")
        assert "not nontrivial" in lines[0]

    def test_truncated_rank_replays_within_its_bound(self, tmp_path, capsys):
        # s[1] = 5e-8 is below tol_rank, so the co-occurring witness keeps the
        # residual sqrt(2) s[1] sqrt(1 - s[1]^2), above tol_compat
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(matrix_to_json_dict(np.diag([1.0, 5e-8]))))
        code, report = run_cli(
            ["certify", "--gamma", str(path), "--convention", "bothreport"], capsys
        )
        assert code == 0
        s = report["results"]["singular_values"]
        tol_compat = report["config_echo"]["tolerances"]["tol_compat"]
        for verdict in report["results"]["verdicts"].values():
            assert verdict["rank"] == 1 and verdict["holistic"] is False
            replay = verdict["lambda1_witness"]["replay_commutator_norm"]
            assert tol_compat < replay <= tol_compat + np.sqrt(2.0) * s[1]
            assert verdict["lambda0_witness"]["replay_commutator_norm"] <= tol_compat

    def test_exclusive_witness_when_no_column_clears_tol_rank(self, tmp_path, capsys):
        # every column norm is sqrt(1/2) < 0.8, while s = (1, 0) keeps rank 1
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(matrix_to_json_dict(np.full((2, 2), 0.5))))
        code, report = run_cli(
            ["certify", "--gamma", str(path), "--convention", "bothreport", "--tol-rank", "0.8"],
            capsys,
        )
        assert code == 0
        for verdict in report["results"]["verdicts"].values():
            assert verdict["rank"] == 1
            wit = verdict["lambda0_witness"]
            assert wit["replay_commutator_norm"] <= 1e-12
            assert wit["cooccurrence_weight"] <= 1e-12
            # the longest column; all tie, so the first
            assert wit["recipe"] == {"kind": "column_image", "column": 0}

    @pytest.mark.parametrize("d_a, d_b, rank", [
        (4, 4, 2),  # square, rank-deficient
        (4, 4, 4),  # square, full rank: holistic under both conventions
        (2, 3, 2),  # full rank, wide: P = I under atleastone, holistic under both
        (3, 2, 2),  # full rank, tall: Q = I under atleastone
        (4, 5, 3),  # rank-deficient, wide
        (5, 3, 2),  # rank-deficient, tall
    ])
    def test_bothreport_decides_both_conventions_from_one_svd(
            self, tmp_path, capsys, monkeypatch, d_a, d_b, rank):
        rng = np.random.default_rng([d_a, d_b, rank])
        g = (rng.standard_normal((d_a, rank)) + 1j * rng.standard_normal((d_a, rank))) @ (
            rng.standard_normal((rank, d_b)) + 1j * rng.standard_normal((rank, d_b)))
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(matrix_to_json_dict(g)))
        argv = ["certify", "--gamma", str(path)]
        single = {conv: run_cli([*argv, "--convention", conv], capsys)[1]["results"]["verdicts"][conv]
                  for conv in ("atleastone", "both")}
        svd = np.linalg.svd
        full_svds = []

        def counted(a, *args, **kwargs):
            if kwargs.get("compute_uv", True):
                full_svds.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        code, report = run_cli([*argv, "--convention", "bothreport"], capsys)
        assert code == 0
        verdicts = report["results"]["verdicts"]
        assert list(verdicts) == ["atleastone", "both"]
        for conv, verdict in verdicts.items():
            assert json.dumps(verdict) == json.dumps(single[conv])
        # the one full SVD builds the co-occurring witness, shared by both verdicts
        assert full_svds == ([] if verdicts["atleastone"]["holistic"] else [(d_a, d_b)])
        assert verdicts["atleastone"]["holistic"] is (rank == d_a == d_b)


class TestSearch:
    def test_bell_excluded(self, capsys):
        code, report = run_cli(
            ["search", "--preset", "bell2", "--exclude-exclusive", "--restarts", "8"], capsys
        )
        assert code == 0
        assert report["results"]["min_value"] >= 0.01

    def test_bell_unrestricted(self, capsys):
        code, report = run_cli(["search", "--preset", "bell2", "--restarts", "8"], capsys)
        assert code == 0
        assert report["results"]["min_value"] <= 1e-6

    def test_product_excluded(self, capsys):
        code, report = run_cli(
            ["search", "--preset", "product2", "--exclude-exclusive", "--restarts", "8"], capsys
        )
        assert code == 0
        assert report["results"]["min_value"] <= 1e-6

    def test_oracle_comparison(self, capsys):
        code, report = run_cli(
            ["search", "--preset", "bell2", "--restarts", "8", "--oracle"],
            capsys,
        )
        assert code == 0
        oracle = report["results"]["grid_oracle"]
        assert oracle["resolution"] == 24 and "oracle_resolution" not in report["config_echo"]
        assert report["results"]["min_value"] <= oracle["min_value"] + 1e-6

    def test_oracle_requires_square_qubit_dims(self, capsys):
        code, _ = run_cli(
            ["search", "--random-seed", "1", "--dims", "2", "3", "--oracle"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--random-seed", "1", "--dims", "2", "3", "--oracle"],
        ["--random-seed", "1", "--dims", "3", "3", "--oracle"],
    ])
    def test_oracle_input_errors_skip_the_descent(self, argv, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "minimize", lambda *a, **k: calls.append(a))
        code, report = run_cli(["search", *argv], capsys)
        assert (code, report, calls) == (2, None, [])

    @pytest.mark.parametrize("flags, message", [
        (["--rank-p", "2"], "rank_p must satisfy 0 < rank < 2, got 2"),
        (["--rank-q", "0"], "rank_q must satisfy 0 < rank < 2, got 0"),
        (["--restarts", "0"], "restarts must be positive"),
    ])
    def test_invalid_search_input_exits_before_the_oracle(self, flags, message, monkeypatch, capsys):
        def scan(*args):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "brute_force_grid_d2", scan)
        code = cli.main(["search", "--preset", "bell2", "--oracle", *flags])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.splitlines() == [f"input error: {message}"]

    def test_seeded_search_replays_identically(self, capsys):
        args = ["search", "--preset", "bell2", "--restarts", "4", "--seed", "21"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first["results"] == second["results"]
        trace = first["results"]["restart_trace"]
        assert len(trace) == 4
        assert sum(t["iterations"] for t in trace) == first["results"]["iterations_used"]
        assert set(trace[0]) == {"objective", "iterations", "stop_reason", "rejected"}
        assert all(0 <= t["rejected"] < t["iterations"] for t in trace)

    def test_restart_trace_serializes_as_asdict(self, capsys):
        argv = ["search", "--random-seed", "3", "--dims", "3", "3", "--restarts", "5", "--seed", "8",
                "--exclude-exclusive"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        cfg = SearchConfig(restarts=5, exclude_exclusive=True, rng_seed=8)
        trace = minimize(random_amplitude(3, SystemDims(3, 3)), cfg).restart_trace
        # the same bytes and key order as dataclasses.asdict
        assert f'"restart_trace": {json.dumps([asdict(t) for t in trace])}, ' in out


class TestDensity:
    def test_rectangular_fractions_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "scan.csv"
        code, report = run_cli(
            ["density", "--dims", "2", "3", "--samples", "200", "--seed", "5",
             "--csv", str(csv_path)],
            capsys,
        )
        assert code == 0
        assert report["results"]["fraction_atleastone"] == 0.0
        assert report["results"]["fraction_both"] >= 0.99
        raw = csv_path.read_bytes()
        assert raw.count(b"\r\n") == 201  # header + one line per sample, RFC 4180
        header = raw.split(b"\r\n")[0].decode()
        assert header == "sample_index,smallest_singular_value,holistic_atleastone,holistic_both"

    def test_csv_bytes_reproducible(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _ = run_cli(
                ["density", "--dims", "2", "2", "--samples", "100", "--seed", "9",
                 "--csv", str(path)],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_more_samples_append_csv_rows(self, tmp_path, capsys):
        lines = {}
        for samples in (100, 300):
            path = tmp_path / f"scan{samples}.csv"
            code, report = run_cli(
                ["density", "--dims", "3", "3", "--samples", str(samples), "--seed", "4",
                 "--csv", str(path)],
                capsys,
            )
            assert code == 0
            assert report["results"]["near_rank_tol_count"] == 0
            lines[samples] = path.read_bytes().split(b"\r\n")
        assert len(lines[300]) == 302  # header, 300 rows and the empty tail
        assert lines[100][:101] == lines[300][:101]

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_csv_rows_are_the_scan_arrays(self, tmp_path, capsys, dims):
        path = tmp_path / "scan.csv"
        code, _ = run_cli(
            ["density", "--dims", *map(str, dims), "--samples", "50", "--seed", "6",
             "--csv", str(path)],
            capsys,
        )
        assert code == 0
        scan = density_scan(SystemDims(*dims), 50, 6)
        word = {True: "true", False: "false"}
        rows = [
            f"{i},{float(smin)!r},{word[bool(one)]},{word[bool(both)]}"
            for i, (smin, one, both) in enumerate(zip(
                scan.smallest_singular_values, scan.holistic_at_least_one, scan.holistic_both
            ))
        ]
        assert path.read_bytes().decode().split("\r\n")[1:] == [*rows, ""]

    @pytest.mark.parametrize("csv_path, names", [
        (".", "Is a directory"),
        ("missing/scan.csv", "No such file or directory"),
        ("file/scan.csv", "Not a directory"),
    ])
    def test_unwritable_csv_is_rejected_before_the_scan(self, tmp_path, monkeypatch, capsys,
                                                        csv_path, names):
        def scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        (tmp_path / "file").write_text("")
        monkeypatch.setattr(cli, "density_scan", scan)
        code = cli.main(["density", "--dims", "2", "2", "--samples", "10",
                         "--csv", str(tmp_path / csv_path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: --csv") and names in lines[0]


LATTICE_DIMS = [(2, 2), (2, 3), (3, 3), (3, 5), (4, 4), (4, 6), (5, 5), (6, 6), (7, 7)]
# k full and half, both conventions; presets; a --random-seed equal to --seed,
# whose first completion draw is parallel to the amplitude and is redrawn
LATTICE_CASES = [
    ["--random-seed", str(i), "--dims", str(a), str(b), "--k", str(k), "--seed", str(40 + i),
     "--convention", conv]
    for i, (a, b) in enumerate(LATTICE_DIMS)
    for k in (a * b, a * b // 2)
    for conv in ("atleastone", "both")
] + [
    ["--preset", preset, "--k", str(k), "--seed", "3", "--convention", conv]
    for preset in ("bell2", "product2")
    for k in (4, 2)
    for conv in ("atleastone", "both")
] + [
    ["--random-seed", str(n), "--dims", str(a), str(b), "--k", str(a * b), "--seed", str(n)]
    for n, (a, b) in ((0, (3, 3)), (5, (4, 6)), (7, (7, 7)))
]


class TestLattice:
    def test_bell_full_lattice(self, capsys):
        code, report = run_cli(
            ["lattice", "--preset", "bell2", "--k", "4", "--seed", "3"], capsys
        )
        assert code == 0
        results = report["results"]
        assert results["completeness_deviation"] <= 1e-9
        comm = np.array(results["pairwise_commutator_norms"])
        assert comm.max() <= 1e-9
        prod = np.array(results["pairwise_product_norms"])
        off_diag = prod[~np.eye(4, dtype=bool)]
        assert off_diag.max() <= 1e-9
        assert len(results["members"]) == 4
        for member in results["members"]:
            if member["smallest_singular_value"] > 1e-7:
                assert member["holistic"] is True

    def test_singleton(self, capsys):
        code, report = run_cli(["lattice", "--preset", "bell2", "--k", "1"], capsys)
        assert code == 0
        assert len(report["results"]["members"]) == 1

    def test_k_too_large_is_input_error(self, capsys):
        code, _ = run_cli(["lattice", "--preset", "bell2", "--k", "5"], capsys)
        assert code == 2

    def test_convention_is_reported_as_requested(self, capsys):
        code, report = run_cli(
            ["lattice", "--preset", "bell2", "--k", "2", "--convention", "both"], capsys
        )
        assert code == 0
        assert report["results"]["convention"] == "both"
        with pytest.raises(SystemExit) as exc:
            cli.main(["lattice", "--preset", "bell2", "--k", "2", "--convention", "bothreport"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, skipped", [
        (["--random-seed", "2", "--dims", "3", "3", "--k", "9"], 0),
        # --seed defaults to 0, the stream of --random-seed 0: the first draw is the input
        (["--random-seed", "0", "--dims", "3", "3", "--k", "9"], 1),
        (["--preset", "maxent3", "--k", "5", "--seed", "4"], 0),
        (["--gamma", "rank2.json", "--k", "7", "--seed", "6"], 0),
    ])
    def test_members_round_trip_exactly(self, argv, skipped, tmp_path, monkeypatch, capsys):
        # no member is printed: gamma_source, k and seed rebuild each exactly
        monkeypatch.chdir(tmp_path)
        Path("rank2.json").write_text(json.dumps(matrix_to_json_dict(3.0 * rank2_3x3_matrix())))
        argv = ["lattice", *argv]
        code, report = run_cli(argv, capsys)
        assert code == 0
        members, draws_skipped = lattice_from_report(report)
        assert draws_skipped == skipped
        amp, _ = cli._resolve_amplitude(cli.build_parser().parse_args(argv))
        expected = lattice_amplitudes(amp, members.shape[0], report["config_echo"]["seed"])
        assert members.tobytes() == expected.tobytes()
        assert members[0].tobytes() == amp.matrix.tobytes()
        records = report["results"]["members"]
        assert len(records) == len(members)
        for record in records:
            assert record.keys() == {"rank", "holistic", "smallest_singular_value"}

    def test_seed_collision_is_redrawn(self, capsys):
        # --seed defaults to 0, and random_amplitude(0) draws from the same
        # stream, so the first completion draw is parallel to the amplitude
        code, report = run_cli(["lattice", "--random-seed", "0", "--dims", "3", "3", "--k", "9"], capsys)
        assert code == 0
        results = report["results"]
        assert len(results["members"]) == 9
        tol_recon = report["config_echo"]["tolerances"]["tol_recon"]
        assert results["completeness_deviation"] <= tol_recon

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (5, 5), (7, 7)])
    def test_tables_match_row_loop(self, dims, capsys):
        k = dims[0] * dims[1]
        code, report = run_cli(
            ["lattice", "--random-seed", "3", "--dims", *map(str, dims), "--k", str(k), "--seed", "8"],
            capsys,
        )
        assert code == 0
        members = lattice_amplitudes(random_amplitude(3, SystemDims(*dims)), k, 8)
        comm, prod = pairwise_tables_loop(np.array([m.reshape(-1) for m in members]))
        results = report["results"]
        assert np.abs(np.array(results["pairwise_commutator_norms"]) - comm).max() <= 2e-15
        assert np.abs(np.array(results["pairwise_product_norms"]) - prod).max() <= 2e-15

    @pytest.mark.parametrize("argv", LATTICE_CASES, ids=" ".join)
    def test_results_match_member_loop(self, argv, capsys):
        # one stacked SVD gives the bytes that one AmplitudeMatrix per member gave
        self.assert_results_match_member_loop(["lattice", *argv], capsys)

    @pytest.mark.parametrize("k", [9, 4])
    def test_rank_deficient_results_match_member_loop(self, k, tmp_path, capsys):
        gamma = tmp_path / "rank2.json"
        gamma.write_text(json.dumps(matrix_to_json_dict(rank2_3x3_matrix())))
        self.assert_results_match_member_loop(["lattice", "--gamma", str(gamma), "--k", str(k)], capsys)

    @staticmethod
    def assert_results_match_member_loop(argv, capsys):
        code, report = run_cli(argv, capsys)
        assert code == 0
        expected = lattice_results_loop(cli.build_parser().parse_args(argv), Tolerances())
        assert json.dumps(report["results"]) == json.dumps(expected)


class TestEntropy:
    def test_presets(self, capsys):
        for preset, expected in (("bell2", np.log(2)), ("product2", 0.0), ("maxent3", np.log(3))):
            code, report = run_cli(["entropy", "--preset", preset], capsys)
            assert code == 0
            assert report["results"]["s_whole"] == 0.0
            assert abs(report["results"]["s_part"] - expected) <= 1e-9
            assert math.copysign(1.0, report["results"]["s_part"]) > 0


class TestDemo:
    def test_all_items_pass(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        code, _ = run_cli(["demo", "--out", str(out)], capsys)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["all_passed"] is True
        names = {item["name"] for item in report["results"]["items"]}
        assert "two_level_membership" in names
        assert "projector_transformation_roundtrip" in names

    @pytest.mark.parametrize("tol_rank", ["1e-17", "1e-15", "1e-12", "1e-7", "0.5"])
    def test_tol_rank_only_cuts_ranks(self, capsys, tol_rank):
        # the demo's own projectors, states and Choi matrices pass their fixed checks at any cut
        code, report = run_cli(["demo", "--tol-rank", tol_rank], capsys)
        assert code == 0
        assert report["results"]["all_passed"] is True


class TestReportShape:
    @pytest.mark.parametrize("argv, reads_tols", [
        (["certify"], True),
        (["density", "--dims", "2", "2"], True),
        (["lattice", "--k", "1"], True),
        (["demo"], True),
        (["search"], False),
        (["entropy"], False),
    ])
    def test_only_the_commands_that_take_tol_rank_read_tols(self, argv, reads_tols):
        assert hasattr(cli.build_parser().parse_args(argv), "tol_rank") is reads_tols
        params = list(inspect.signature(getattr(cli, f"cmd_{argv[0]}")).parameters)
        assert params == (["args", "tols"] if reads_tols else ["args"])

    @pytest.mark.parametrize("argv", [
        ["certify", "--preset", "bell2", "--convention", "bothreport"],
        ["lattice", "--preset", "bell2", "--k", "4"],
        ["search", "--preset", "bell2", "--restarts", "4"],
        ["density", "--dims", "2", "2", "--samples", "20"],
    ])
    def test_one_line_report_and_out_file_hold_the_same_bytes(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        # a fixed clock makes timings, and so the two reports, identical
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        path = tmp_path / "report.json"
        assert cli.main([*argv, "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode("utf-8")

    def test_matrix_record_round_trips_exactly(self):
        m = np.empty((2, 2), dtype=complex)
        m.real = [[-0.0, 5e-324], [1.0 / 3.0, 0.0]]
        m.imag = [[0.0, -0.0], [-5e-324, -1.0 / 3.0]]
        back = parsed_matrix(json.loads(json.dumps(matrix_to_json_dict(m))))
        assert back.tobytes() == m.tobytes()

    def test_report_carries_config_and_version(self, capsys):
        code, report = run_cli(["entropy", "--preset", "bell2"], capsys)
        assert code == 0
        assert report["command"] == "entropy"
        assert "tolerances" in report["config_echo"]
        assert report["config_echo"]["tolerances"]["tol_rank"] == pytest.approx(1e-7)
        assert report["version"]
        assert "total_s" in report["timings"]

    @pytest.mark.parametrize("flags, names", [
        (["--tol-rank", "nan"], "tol_rank"),
        (["--tol-rank", "0"], "tol_rank"),
    ])
    def test_bad_tolerances_are_input_errors(self, capsys, flags, names):
        code = cli.main(["certify", "--preset", "bell2", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:") and names in lines[0]

    def test_valid_override_reaches_the_report(self, tmp_path, capsys):
        # s = (1, 0.2) / sqrt(1.04): rank 2 at the default tol_rank, 1 at 0.5
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(matrix_to_json_dict(np.diag([1.0, 0.2]))))
        argv = ["certify", "--gamma", str(path)]
        _, default = run_cli(argv, capsys)
        code, loose = run_cli([*argv, "--tol-rank", "0.5"], capsys)
        assert code == 0
        verdicts = [r["results"]["verdicts"]["atleastone"] for r in (default, loose)]
        assert [(v["rank"], v["holistic"]) for v in verdicts] == [(2, True), (1, False)]
        assert loose["config_echo"]["tolerances"] == {**Tolerances().as_dict(), "tol_rank": 0.5}

    @pytest.mark.parametrize("argv, tol_rank", [
        (["certify", "--preset", "bell2", "--convention", "bothreport"], 1e-7),
        (["certify", "--preset", "bell2", "--tol-rank", "1e-5"], 1e-5),
        (["density", "--dims", "2", "2", "--samples", "20"], 1e-7),
    ])
    @pytest.mark.parametrize("raw", [
        "{bad",
        # loose enough to change the verdicts, were it read
        '{"tol_rank": 0.9, "tol_compat": 0.5}',
    ])
    def test_the_environment_does_not_reach_the_report(self, capsys, monkeypatch, argv, tol_rank, raw):
        # a fixed clock makes the timings equal
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        # the variable the CLI of mereo 0.2 read its tolerances from
        monkeypatch.delenv("MEREO_TOL_OVERRIDE", raising=False)
        code, plain = run_cli(argv, capsys)
        monkeypatch.setenv("MEREO_TOL_OVERRIDE", raw)
        assert run_cli(argv, capsys) == (code, plain) and code == 0
        assert plain["config_echo"]["tolerances"] == Tolerances(tol_rank=tol_rank).as_dict()

    def test_tol_rank_override_is_echoed(self, capsys):
        code, report = run_cli(
            ["certify", "--preset", "bell2", "--tol-rank", "1e-5"], capsys
        )
        assert code == 0
        assert report["config_echo"]["tolerances"]["tol_rank"] == pytest.approx(1e-5)

    @pytest.mark.parametrize("argv, takes_tol_rank", [
        (["certify", "--preset", "bell2", "--convention", "bothreport"], True),
        (["search", "--preset", "bell2", "--restarts", "2"], False),
        (["density", "--dims", "2", "3", "--samples", "20"], True),
        (["lattice", "--preset", "bell2", "--k", "4"], True),
        (["entropy", "--preset", "bell2"], False),
        (["demo"], True),
    ])
    def test_every_command_echoes_all_five_tolerances(self, capsys, argv, takes_tol_rank):
        # the echo's bytes are those of mereo 0.4.0, whose five thresholds were all settable
        echo = '{"tol_herm": 1e-09, "tol_recon": 1e-09, "tol_rank": %s, "tol_compat": 1e-09, "tol_support": 1e-09}'
        code, report = run_cli(argv, capsys)
        assert code == 0 and json.dumps(report["config_echo"]["tolerances"]) == echo % "1e-07"
        assert ("tol_rank" in report["config_echo"]) is takes_tol_rank
        if takes_tol_rank:
            code, report = run_cli([*argv, "--tol-rank", "0.5"], capsys)
            assert code == 0 and json.dumps(report["config_echo"]["tolerances"]) == echo % "0.5"
        else:
            # search and entropy decide no rank, so they take no --tol-rank
            with pytest.raises(SystemExit) as rejected:
                cli.main([*argv, "--tol-rank", "0.5"])
            captured = capsys.readouterr()
            assert rejected.value.code == 2 and captured.out == ""
            assert "--tol-rank" in captured.err

    @pytest.mark.parametrize("argv, names", [
        (["density", "--dims", "2", "2", "--samples", "50", "--tol-rank", "0.9"], "rank 0"),
        (["certify", "--preset", "bell2", "--tol-rank", "1.5"], "rank 0"),
        (["density", "--dims", "1", "3", "--samples", "50"], "dimensions"),
        (["search", "--random-seed", "1", "--dims", "1", "3"], "dimensions"),
    ])
    def test_rank_rule_input_errors(self, capsys, argv, names):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:") and names in lines[0]

    @pytest.mark.parametrize("argv, names", [
        (["certify", "--random-seed", "-1", "--dims", "2", "2"],
         "--random-seed must be non-negative, got -1"),
        (["density", "--dims", "2", "2", "--samples", "5", "--seed", "-1"],
         "--seed must be non-negative, got -1"),
        (["density", "--dims", "-1", "2", "--samples", "5"], "--dims must be positive, got -1 2"),
        (["certify", "--random-seed", "1", "--dims", "2", "0"], "--dims must be positive, got 2 0"),
        (["search", "--preset", "bell2", "--restarts", "2", "--seed", "-3"],
         "--seed must be non-negative, got -3"),
        (["lattice", "--preset", "bell2", "--k", "2", "--seed", "-1"],
         "--seed must be non-negative, got -1"),
    ])
    def test_negative_seeds_and_dims_name_their_flag(self, capsys, argv, names):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0] == f"input error: {names}"

    @pytest.mark.parametrize("out, names", [
        (".", "Is a directory"),
        ("missing/report.json", "No such file or directory"),
        ("file/report.json", "Not a directory"),
    ])
    def test_unwritable_out_is_input_error(self, tmp_path, capsys, out, names):
        (tmp_path / "file").write_text("")
        code = cli.main(["certify", "--preset", "bell2", "--out", str(tmp_path / out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:") and names in lines[0]

    @pytest.mark.parametrize("out", [".", "missing/report.json"])
    def test_unwritable_out_is_rejected_before_the_command_writes(self, tmp_path, capsys, out):
        scan = tmp_path / "scan.csv"
        code = cli.main(["density", "--dims", "2", "2", "--samples", "10",
                         "--csv", str(scan), "--out", str(tmp_path / out)])
        captured = capsys.readouterr()
        assert (code, captured.out, len(captured.err.splitlines())) == (2, "", 1)
        assert not scan.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["density", "--dims", "2", "2", "--samples", "5", "--csv", "{same}"], "--csv"),
        (["density", "--dims", "2", "2", "--samples", "5", "--csv", "{link}"], "--csv"),
        (["certify", "--gamma", "{same}"], "--gamma"),
        (["certify", "--gamma", "{link}"], "--gamma"),
    ])
    def test_out_naming_the_csv_or_gamma_file_is_input_error(self, tmp_path, capsys, argv, flag):
        # {link} is a hard link, a second name of the same file that the report would overwrite too
        same, link = tmp_path / "same.json", tmp_path / "link.json"
        same.write_text(json.dumps(matrix_to_json_dict(np.eye(2))))
        link.hardlink_to(same)
        before = same.read_bytes()
        argv = [a.format(same=same, link=link) for a in argv]
        code = cli.main([*argv, "--out", str(tmp_path / ".." / tmp_path.name / "same.json")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: --out") and flag in lines[0]
        assert same.read_bytes() == before

    @pytest.mark.parametrize("text, names", [
        ('{"rows": 1e400, "cols": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}',
         "malformed matrix record"),
        ('{"rows": 2, "cols": 2, "re": [1e200, 0, 0, 1e200], "im": [0, 0, 0, 0]}',
         "norm of the amplitude matrix overflows"),
        ('{"rows": 2.7, "cols": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}', "malformed matrix record"),
        ('{"rows": true, "cols": 2, "re": [1, 0], "im": [0, 0]}', "malformed matrix record"),
        ("[" * 100_000, "JSON nested too deeply"),
        ('{"rows": 2, "cols": 2, "re": ["1", 0, 0, 1], "im": [0, 0, 0, 0]}', "malformed matrix record"),
        ('{"rows": 2, "cols": 2, "re": [1, 0, 0, 1], "im": [false, false, false, true]}',
         "malformed matrix record"),
        ('{"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]], "im": [0, 0, 0, 0]}', "malformed matrix record"),
    ], ids=["rows-overflow", "norm-overflow", "rows-fractional", "rows-bool", "deep-nesting",
            "re-string", "im-bool", "re-nested"])
    def test_out_of_range_gamma_is_input_error(self, tmp_path, capsys, text, names):
        path = tmp_path / "gamma.json"
        path.write_text(text)
        code = cli.main(["certify", "--gamma", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:") and names in lines[0]

    def test_input_too_large_for_memory_is_input_error(self, capsys, monkeypatch):
        # the stub raises what numpy raises for an allocation too large (a
        # grid at resolution 100000 would ask for ~75 GiB), without allocating
        def too_large(amp, resolution, exclude_exclusive):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(cli, "brute_force_grid_d2", too_large)
        code = cli.main(["search", "--random-seed", "1", "--dims", "2", "2", "--oracle"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:") and "74.5 GiB" in lines[0]

    def test_closed_stdout_is_input_error(self):
        # the read end closes before the run, as when `| head -c 300` exits;
        # a child process, since the interpreter itself flushes stdout at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mereo.cli", "lattice", "--preset", "bell2", "--k", "4"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 2
        assert len(lines) == 1 and lines[0].startswith("input error: stdout:"), proc.stderr

    @pytest.mark.parametrize("argv, source", [
        (["certify", "--preset", "bell2", "--dims", "3", "3"], "--preset"),
        (["search", "--preset", "bell2", "--restarts", "2", "--dims", "3", "3"], "--preset"),
        (["lattice", "--gamma", "amp.json", "--k", "2", "--dims", "2", "2"], "--gamma"),
        (["entropy", "--preset", "maxent3", "--dims", "3", "3"], "--preset"),
    ])
    def test_dims_without_random_seed_is_input_error(self, capsys, monkeypatch, argv, source):
        # an echoed --dims that the amplitude does not have would misstate the run
        monkeypatch.setattr(cli, "load_matrix", lambda path: pytest.fail("file read before the check"))
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: --dims ") and source in lines[0]


class TestRepeatedCalls:
    """``main`` called again and again in one process, as the benchmark and notebooks do."""

    def test_commands_are_looked_up_at_call_time(self, capsys, monkeypatch):
        # a first call builds the cached parser before the command is rebound
        assert cli.main(["certify", "--preset", "bell2"]) == 0
        capsys.readouterr()
        calls = []

        def patched(args, tols):
            calls.append(args.preset)
            return {"patched": True}

        monkeypatch.setattr(cli, "cmd_certify", patched)
        code, report = run_cli(["certify", "--preset", "bell2"], capsys)
        assert code == 0 and calls == ["bell2"]
        assert report["results"] == {"patched": True}
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_carries_between_calls(self, capsys):
        def without_timings(argv):
            code, report = run_cli(argv, capsys)
            del report["timings"]
            return code, json.dumps(report, sort_keys=True)

        oracle = ["search", "--preset", "bell2", "--oracle", "--exclude-exclusive",
                  "--restarts", "2", "--seed", "3"]
        plain = ["search", "--preset", "bell2", "--restarts", "2", "--seed", "3"]
        _, first = run_cli(oracle, capsys)
        _, second = run_cli(plain, capsys)
        _, again = run_cli(oracle, capsys)
        assert json.dumps(again["results"]) == json.dumps(first["results"])
        assert second["config_echo"]["oracle"] is False
        assert second["config_echo"]["exclude_exclusive"] is False
        assert second["results"]["grid_oracle"] is None

        _, loose = run_cli(["certify", "--preset", "bell2", "--tol-rank", "0.3"], capsys)
        _, default = run_cli(["certify", "--preset", "bell2"], capsys)
        assert loose["config_echo"]["tolerances"]["tol_rank"] == 0.3
        assert default["config_echo"]["tolerances"]["tol_rank"] == Tolerances().tol_rank
        assert default["config_echo"]["tol_rank"] is None

        good = ["certify", "--preset", "bell2", "--convention", "bothreport"]
        before = without_timings(good)
        with pytest.raises(SystemExit) as rejected:
            cli.main(["certify", "--convention", "nope"])
        assert rejected.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert without_timings(good) == before

        for _ in range(2):
            with pytest.raises(SystemExit) as shown:
                cli.main(["--version"])
            assert shown.value.code == 0
            assert capsys.readouterr().out == f"mereo {__version__}\n"


def recorded_dumps(monkeypatch):
    """Swap ``cli.json`` for a module whose ``dumps`` records each call, as a tracer does."""
    calls = []

    def dumps(obj, *args, **kwargs):
        text = json.dumps(obj, *args, **kwargs)
        calls.append((obj, text))
        return text

    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json))
    proxy.dumps = dumps
    monkeypatch.setattr(cli, "json", proxy)
    return calls


# repeated values, signed zeros, subnormals, the rounding noise of a lattice
# table, and the non-finite values json.dumps prints by name
TABLE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.1e-17, -3.3e-17, 1.0,
                math.inf, -math.inf, math.nan, -math.nan,
                float(np.array(0x7FF0000000000001).view(np.float64))]
TABLES = ("pairwise_commutator_norms", "pairwise_product_norms")


class TestReportEncoder:
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7),
                  elements=st.sampled_from(TABLE_FLOATS) | st.floats()))
    @settings(max_examples=300, deadline=None)
    def test_tables_print_as_json_dumps_of_their_lists(self, table):
        assert json.dumps(table, cls=cli._ReportEncoder) == json.dumps(table.tolist())
        # in a report, next to strings and numbers, and as a strided view
        report = {"s": "\\u0000", "t": [table, table.T], "x": -0.0}
        listed = {"s": "\\u0000", "t": [table.tolist(), table.T.tolist()], "x": -0.0}
        assert json.dumps(report, cls=cli._ReportEncoder) == json.dumps(listed)

    @pytest.mark.parametrize("value", [
        object(), {1, 2}, np.zeros(3), np.zeros((2, 2, 2)), np.zeros((2, 2), dtype=np.float32),
        np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=">f8"),
        np.ma.zeros((2, 2)),
    ])
    def test_other_objects_raise_json_dumps_type_error(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps({"results": [value]})
        with pytest.raises(TypeError) as raised:
            json.dumps({"results": [value]}, cls=cli._ReportEncoder)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("argv", [
        *(["--random-seed", str(d), "--dims", str(d), str(d), "--k", str(d * d), "--seed", "1"]
          for d in (2, 3, 5, 7)),
        ["--preset", "bell2", "--k", "4", "--seed", "3"],
    ], ids=" ".join)
    def test_lattice_report_prints_as_json_dumps_with_listed_tables(self, argv, monkeypatch, capsys):
        calls = recorded_dumps(monkeypatch)
        assert cli.main(["lattice", *argv]) == 0
        out = capsys.readouterr().out
        (report, _), = calls
        results = report["results"]
        assert all(isinstance(results[key], np.ndarray) for key in TABLES)
        listed = {**report, "results": {**results, **{key: results[key].tolist() for key in TABLES}}}
        assert out == json.dumps(listed) + "\n"
        assert out == json.dumps(json.loads(out)) + "\n"

    @pytest.mark.parametrize("argv", [
        ["lattice", "--preset", "bell2", "--k", "4"],
        ["lattice", "--random-seed", "3", "--dims", "3", "3", "--k", "9"],
        ["certify", "--preset", "bell2", "--convention", "bothreport"],
        ["certify", "--random-seed", "2", "--dims", "3", "5"],
    ])
    def test_one_dumps_call_prints_each_report(self, argv, monkeypatch, capsys):
        # a tracer that wraps json.dumps times and counts the whole report, table text included
        calls = recorded_dumps(monkeypatch)
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        (report, text), = calls
        assert list(report) == ["command", "version", "config_echo", "results", "timings"]
        assert report["command"] == argv[0] and isinstance(report.get("timings"), dict)
        assert out == text + "\n"
