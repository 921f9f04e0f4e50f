"""End-to-end CLI runs: JSON reports, CSV scans, exit codes, replay."""

import json
import types

import numpy as np
import pytest

from mereo import SystemDims, cli, lattice_amplitudes
from mereo.io import matrix_to_json_dict, random_amplitude


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
            assert wit["p"]["rank"] == 1 and wit["q"]["rank"] == 1


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
            ["search", "--preset", "bell2", "--restarts", "8", "--oracle",
             "--oracle-resolution", "16"],
            capsys,
        )
        assert code == 0
        oracle = report["results"]["grid_oracle"]
        assert oracle is not None
        assert report["results"]["min_value"] <= oracle["min_value"] + 1e-6

    def test_oracle_requires_square_qubit_dims(self, capsys):
        code, _ = run_cli(
            ["search", "--random-seed", "1", "--dims", "2", "3", "--oracle"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--random-seed", "1", "--dims", "2", "3", "--oracle"],
        ["--random-seed", "1", "--dims", "3", "3", "--oracle"],
        ["--preset", "bell2", "--oracle", "--oracle-resolution", "1"],
        ["--preset", "bell2", "--oracle", "--oracle-resolution", "-4"],
    ])
    def test_oracle_input_errors_skip_the_descent(self, argv, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "minimize", lambda *a, **k: calls.append(a))
        code, report = run_cli(["search", *argv], capsys)
        assert (code, report, calls) == (2, None, [])

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

    def test_members_round_trip_exactly(self, capsys):
        # a member's projector is outer(v, conj(v)) of its amplitude, so only
        # the amplitude is printed, and it must rebuild the member exactly
        code, report = run_cli(
            ["lattice", "--random-seed", "2", "--dims", "3", "3", "--k", "9"], capsys
        )
        assert code == 0
        members = lattice_amplitudes(random_amplitude(2, SystemDims(3, 3)), 9, 0)
        records = report["results"]["members"]
        assert len(records) == len(members)
        for record, member in zip(records, members):
            assert "projector" not in record
            assert parsed_matrix(record["amplitude"]).tobytes() == member.matrix.tobytes()


class TestEntropy:
    def test_presets(self, capsys):
        for preset, expected in (("bell2", np.log(2)), ("product2", 0.0), ("maxent3", np.log(3))):
            code, report = run_cli(["entropy", "--preset", preset], capsys)
            assert code == 0
            assert report["results"]["s_whole"] == 0.0
            assert abs(report["results"]["s_part"] - expected) <= 1e-9


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


class TestReportShape:
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

    @pytest.mark.parametrize("env, flags, names", [
        ("{bad", [], "MEREO_TOL_OVERRIDE"),
        (None, ["--tol-rank", "nan"], "tol_rank"),
        (None, ["--tol-rank", "0"], "tol_rank"),
    ])
    def test_bad_tolerances_are_input_errors(self, capsys, monkeypatch, env, flags, names):
        if env is None:
            monkeypatch.delenv("MEREO_TOL_OVERRIDE", raising=False)
        else:
            monkeypatch.setenv("MEREO_TOL_OVERRIDE", env)
        code = cli.main(["certify", "--preset", "bell2", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:") and names in lines[0]

    def test_valid_override_reaches_the_report(self, tmp_path, capsys, monkeypatch):
        # s = (1, 0.2) / sqrt(1.04): rank 2 at the default tol_rank, 1 at 0.5
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(matrix_to_json_dict(np.diag([1.0, 0.2]))))
        argv = ["certify", "--gamma", str(path)]
        _, default = run_cli(argv, capsys)
        monkeypatch.setenv("MEREO_TOL_OVERRIDE", '{"tol_rank": 0.5, "tol_compat": 1e-8}')
        code, loose = run_cli(argv, capsys)
        code_flag, flagged = run_cli([*argv, "--tol-rank", "1e-7"], capsys)
        assert code == code_flag == 0
        verdicts = [r["results"]["verdicts"]["atleastone"] for r in (default, loose, flagged)]
        assert [(v["rank"], v["holistic"]) for v in verdicts] == [(2, True), (1, False), (2, True)]
        echoed = [r["config_echo"]["tolerances"] for r in (loose, flagged)]
        assert [(t["tol_rank"], t["tol_compat"]) for t in echoed] == [(0.5, 1e-8), (1e-7, 1e-8)]

    def test_tol_rank_override_is_echoed(self, capsys):
        code, report = run_cli(
            ["certify", "--preset", "bell2", "--tol-rank", "1e-5"], capsys
        )
        assert code == 0
        assert report["config_echo"]["tolerances"]["tol_rank"] == pytest.approx(1e-5)

    @pytest.mark.parametrize("argv, names", [
        (["density", "--dims", "2", "2", "--samples", "50", "--tol-rank", "0.9"], "rank 0"),
        (["certify", "--preset", "bell2", "--tol-rank", "1.5"], "rank 0"),
        (["density", "--dims", "1", "3", "--samples", "50"], "dimensions"),
    ])
    def test_rank_rule_input_errors(self, capsys, argv, names):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:") and names in lines[0]
