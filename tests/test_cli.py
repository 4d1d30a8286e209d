import dataclasses
import itertools
import json
import logging
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import frustra
from frustra import cli, fluctuations, meanfield, model, scaling
from frustra.cli import main
from frustra.errors import ValidationError
from csv_reference import csv_to_rows, package_csv, rows_to_csv, table_csv, table_points


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_by(rows, observable, index=None):
    return [r for r in rows
            if r["observable"] == observable and (index is None or r["index"] == index)]


class TestCriticalPoint:
    def test_trimer_value(self, capsys):
        code, out, _ = run_cli(capsys, "critical-point", "--jbar", "0.01",
                               "--sites", "3")
        assert code == 0
        rows = csv_to_rows(out)
        gc = rows_by(rows, "g_c")[0]["value"]
        assert gc == pytest.approx(0.99498743710662, abs=1e-12)
        eigen = rows_by(rows, "origin_hessian_eigenvalue")
        assert len(eigen) == 3
        assert min(r["value"] for r in eigen) == pytest.approx(0.0, abs=1e-12)

    def test_zero_hopping(self, capsys):
        code, out, _ = run_cli(capsys, "critical-point", "--jbar", "0",
                               "--sites", "5")
        assert code == 0
        assert rows_by(csv_to_rows(out), "g_c")[0]["value"] == 1.0

    @pytest.mark.parametrize("g, message", [("nan", "g must be non-negative, got nan"),
                                            ("inf", "g must be non-negative, got inf"),
                                            ("-1", "g must be non-negative, got -1.0")])
    def test_rejects_a_coupling_that_is_not_a_point(self, capsys, g, message):
        code, out, err = run_cli(capsys, "critical-point", "--g", g)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--omega0", "-1", "omega0 must be positive, got -1.0"),
        ("--omega-atom", "nan", "Omega must be positive, got nan")])
    def test_rejects_a_frequency_with_or_without_a_coupling(self, capsys, flag, value, message):
        for coupling in ((), ("--g", "1.0")):
            code, out, err = run_cli(capsys, "critical-point", flag, value, *coupling)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_sign_is_not_an_option(self, capsys, tmp_path):
        # the hopping sign follows from jbar: neither a flag nor a config
        # key sets it
        with pytest.raises(SystemExit):
            main(["critical-point", "--jbar", "0.6", "--sign", "negative"])
        config = tmp_path / "signed.json"
        config.write_text(json.dumps({"jbar": 0.6, "sign": "negative"}))
        code, _, err = run_cli(capsys, "critical-point", "--config", str(config))
        assert code == 2
        assert "unknown config keys: ['sign']" in err


    @pytest.mark.parametrize("g", ["1.3e154", "1e200", "1.7976931348623157e308"])
    def test_huge_coupling_prints_infinite_rows_without_a_warning(self, capsys, g):
        # once 2 g^2 overflows, every origin eigenvalue is -inf, and numpy's
        # overflow warning stays inside the package
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "critical-point", "--jbar", "0.01", "--g", g)
        assert (code, err) == (0, "")
        eigen = rows_by(csv_to_rows(out), "origin_hessian_eigenvalue")
        assert [row["value"] for row in eigen] == [-np.inf] * 3


class TestGroundState:
    def test_normal_phase_rows(self, capsys):
        code, out, _ = run_cli(capsys, "ground-state", "--jbar", "0.01",
                               "--sites", "3", "--g", "0.5")
        assert code == 0
        rows = csv_to_rows(out)
        for row in rows_by(rows, "alpha"):
            assert row["value"] == 0.0
        for row in rows_by(rows, "theta"):
            assert row["value"] == pytest.approx(np.pi)
        assert rows_by(rows, "phase")[0]["index"] == "Normal"

    def test_fsp_manifold_six_members(self, capsys):
        code, out, _ = run_cli(capsys, "ground-state", "--jbar", "0.01",
                               "--sites", "3", "--g", "1.01", "--manifold")
        assert code == 0
        rows = csv_to_rows(out)
        manifold = rows_by(rows, "manifold_energy")
        assert len(manifold) == 6
        energies = [r["value"] for r in manifold]
        assert max(energies) - min(energies) < 1e-10

    @pytest.mark.parametrize("seed_mode", ["symmetry-orbit", "exhaustive"])
    def test_manifold_solves_the_point_once(self, capsys, monkeypatch, seed_mode):
        # the orbit is built from the solution the command already holds
        argv = ("ground-state", "--jbar", "0.01", "--sites", "5", "--g", "1.2", "--manifold",
                "--seed-mode", seed_mode)
        expected = run_cli(capsys, *argv)
        stacks = []
        solve = meanfield.solve_ground_states

        def counted(points):
            stacks.append(list(points))
            return solve(stacks[-1])

        monkeypatch.setattr(meanfield, "solve_ground_states", counted)
        assert run_cli(capsys, *argv) == expected
        assert expected[0] == 0 and expected[1].count("manifold_energy") == 10
        assert [len(points) for points in stacks] == [1]

    def test_exhaustive_seed_mode_manifold(self, capsys):
        code, out, _ = run_cli(capsys, "ground-state", "--jbar", "0.01",
                               "--sites", "3", "--g", "1.01", "--manifold",
                               "--seed-mode", "exhaustive")
        assert code == 0
        assert len(rows_by(csv_to_rows(out), "manifold_energy")) == 6

    def test_jx_matches_angles(self, capsys):
        code, out, _ = run_cli(capsys, "ground-state", "--jbar", "0.01",
                               "--sites", "3", "--g", "1.02")
        rows = csv_to_rows(out)
        for site in ("1", "2", "3"):
            theta = rows_by(rows, "theta", site)[0]["value"]
            phi = rows_by(rows, "phi", site)[0]["value"]
            jx = rows_by(rows, "jx", site)[0]["value"]
            assert jx == pytest.approx(np.sin(theta) * np.cos(phi), abs=1e-14)

    def test_requires_g(self, capsys):
        code, _, err = run_cli(capsys, "ground-state", "--jbar", "0.01",
                               "--sites", "3")
        assert code == 2


class TestSpectrum:
    def test_emits_all_modes_and_weights(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--jbar", "0.01",
                               "--sites", "3", "--g", "0.9")
        assert code == 0
        rows = csv_to_rows(out)
        energies = rows_by(rows, "excitation_energy")
        assert len(energies) == 6
        values = [r["value"] for r in energies]
        assert values == sorted(values)
        assert len(rows_by(rows, "weight_cavity")) == 18
        assert len(rows_by(rows, "weight_atom")) == 18

    @pytest.mark.parametrize("g, flagged", [("1e10", True), ("1.05", False)])
    def test_unresolvable_form_is_flagged(self, capsys, g, flagged):
        # at g = 1e10 no excitation is below 1e-8 omega0, but the form's
        # softest modes are below its double-precision resolution
        code, out, _ = run_cli(capsys, "spectrum", "--sites", "3", "--g", g,
                               "--format", "json")
        assert code == 0
        warnings = json.loads(out)["warnings"]
        assert [w.startswith("critical-regime") for w in warnings] == ([True] if flagged else [])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_warnings_go_to_stderr_in_every_format(self, capsys, tmp_path, fmt):
        args = ("spectrum", "--sites", "3", "--g", "1e10", "--format", fmt)
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        assert err.startswith("warning: critical-regime: ") and err.count("\n") == 1
        assert "critical-regime" not in out if fmt == "csv" else "warning:" not in out
        target = tmp_path / "out"
        code, to_file, err_file = run_cli(capsys, *args, "--output", str(target))
        assert (code, to_file, err_file) == (0, "", err)
        written = target.read_text(encoding="utf-8")
        if fmt == "json":  # the config echo names the output path
            written, out = (json.loads(text) for text in (written, out))
            written["config"]["output"] = None
        assert written == out
        assert run_cli(capsys, "spectrum", "--sites", "3", "--g", "1.05",
                       "--format", fmt)[2] == ""

    def test_unstable_point_exit_code(self, capsys, tmp_path):
        # diverging hopping magnitude outside the stability window
        code, _, err = run_cli(capsys, "spectrum", "--jbar", "-0.7",
                               "--sites", "3", "--g", "0.5")
        assert code == 2


class TestSweepCommand:
    def test_round_trip_and_determinism(self, capsys, tmp_path):
        args = ("sweep", "--jbar", "0.01", "--sites", "3",
                "--reduced-min", "1e-3", "--reduced-max", "1e-2",
                "--points-per-decade", "4", "--observables", "gaps,energy")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2  # identical bytes for identical config
        rows = csv_to_rows(out1)
        assert rows_to_csv(rows) == out1  # bit-exact round trip
        assert rows_by(rows, "energy")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--jbar", "-0.01", "--sites", "3",
                               "--reduced-min", "1e-3", "--reduced-max", "1e-2",
                               "--points-per-decade", "3", "--format", "json",
                               "--observables", "energy")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["jbar"] == -0.01
        assert payload["results"]
        reparsed = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        assert reparsed == out

    def test_csv_and_json_carry_the_same_rows(self, capsys):
        args = ("sweep", "--jbar", "0.01", "--sites", "5", "--reduced-min", "1e-7",
                "--points-per-decade", "4")
        code, csv_out, csv_err = run_cli(capsys, *args)
        assert code == 0
        code, json_out, json_err = run_cli(capsys, *args, "--format", "json")
        payload = json.loads(json_out)
        assert csv_to_rows(csv_out) == payload["results"]
        assert csv_err == json_err and payload["warnings"]  # the missing rows
        assert payload["config"]["reduced_min"] == 1e-7

    @pytest.mark.parametrize("side", ["above", "below", "both"])
    def test_default_grid_below_resolution_is_rejected(self, capsys, side):
        # at reduced couplings of 1e-18 to 1e-14, g_c (1 +- r) collapses
        # onto a few doubles and onto g_c itself
        code, out, err = run_cli(capsys, "sweep", "--jbar", "0.01", "--sites", "5",
                                 "--reduced-min", "1e-18", "--reduced-max", "1e-14",
                                 "--side", side)
        assert (code, out) == (2, "")
        assert err == "error: grid must be strictly increasing\n"

    @pytest.mark.parametrize("side", ["both", "below", "above"])
    def test_window_reaching_past_zero_coupling(self, capsys, side):
        # g_c (1 - reduced) < 0 on the below side for reduced > 1
        argv = ("sweep", "--jbar", "-0.01", "--sites", "3", "--points-per-decade", "2",
                "--observables", "energy", "--side", side)
        code, out, err = run_cli(capsys, *argv, "--reduced-max", "10")
        if side == "above":
            assert (code, err) == (0, "") and len(csv_to_rows(out)) == 11
        else:
            assert (code, out) == (2, "")
            assert err == ("error: reduced window [0.0001, 10.0] puts g = g_c (1 - reduced) "
                           "below 0 on the below side; need reduced_max <= 1\n")
        # reduced_max = 1 reaches the decoupled point g = 0 and no further
        code, out, err = run_cli(capsys, *argv, "--reduced-max", "1")
        rows = csv_to_rows(out)
        assert (code, err) == (0, "") and len(rows) == {"both": 18}.get(side, 9)
        assert (rows[0]["g"] == 0.0) == (side != "above")

    def test_default_grid_excludes_the_critical_point(self, capsys):
        # one point per decade from 1e-16 keeps the grid increasing, but
        # 1 + 1e-16 rounds to 1, so its lowest coupling is g_c
        code, out, err = run_cli(capsys, "sweep", "--jbar", "0.01", "--sites", "5",
                                 "--reduced-min", "1e-16", "--reduced-max", "1e-2",
                                 "--points-per-decade", "1", "--side", "above")
        assert (code, out) == (2, "")
        assert err == "error: grid must exclude the critical point itself\n"

    @pytest.mark.parametrize("command", ["sweep", "exponents"])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_points_per_decade_below_one_is_rejected(self, capsys, command, count):
        code, out, err = run_cli(capsys, command, "--points-per-decade", count)
        assert (code, out) == (2, "")
        assert err == f"error: points_per_decade must be at least 1, got {count}\n"

    def test_signed_zero_prefixes_stay_distinct(self):
        rows = [{"g": g, "reduced_coupling": g, "observable": "energy", "index": "",
                 "value": 1.0} for g in (0.0, -0.0, -0.0, 0.0)]
        assert rows_to_csv(rows).splitlines()[1:] == [
            "0.0,0.0,energy,,1.0", "-0.0,-0.0,energy,,1.0",
            "-0.0,-0.0,energy,,1.0", "0.0,0.0,energy,,1.0"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--jbar", "0.01", "--sites", "3",
                               "--reduced-min", "1e-3", "--reduced-max", "1e-2",
                               "--points-per-decade", "3",
                               "--observables", "energy",
                               "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("g,reduced_coupling,observable")


class TestExponentsCommand:
    def test_trimer_gammas(self, capsys):
        code, out, _ = run_cli(capsys, "exponents", "--jbar", "0.01",
                               "--sites", "3", "--reduced-min", "1e-5",
                               "--points-per-decade", "10")
        assert code == 0
        rows = csv_to_rows(out)
        gamma_mf = rows_by(rows, "gamma", "mf")[0]["value"]
        gamma_f = rows_by(rows, "gamma", "f")[0]["value"]
        assert gamma_mf == pytest.approx(0.5, abs=0.03)
        assert gamma_f == pytest.approx(1.0, abs=0.05)
        checks = rows_by(rows, "check")
        assert checks and all(r["value"] == 1.0 for r in checks)

    def test_negative_hopping_single_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "exponents", "--jbar", "-0.01",
                               "--sites", "3", "--reduced-min", "1e-6",
                               "--points-per-decade", "8")
        assert code == 0
        rows = csv_to_rows(out)
        assert rows_by(rows, "gamma", "mf")[0]["value"] == pytest.approx(0.5, abs=0.03)
        assert not rows_by(rows, "gamma", "f")

    def test_failed_checks_are_warnings_not_exit_codes(self, capsys):
        # the checks are results: the run exits 0, and each failed check is
        # a warning on stderr (and in the JSON warnings)
        code, out, err = run_cli(capsys, "exponents", "--jbar", "0.01", "--sites", "9")
        assert code == 0
        failed = [r["index"] for r in rows_by(csv_to_rows(out), "check") if r["value"] == 0.0]
        assert len(failed) == 4
        assert [line for line in err.splitlines() if line.startswith("warning: check ")] == [
            f"warning: check {name} failed" for name in failed]

    def test_zero_hopping_exits_with_the_unclassified_phase_error(self, capsys):
        # every superradiant point of jbar = 0 is on the first-order line, as
        # ground-state --g 1.2 --jbar 0 reports; no exponent is fitted
        for argv in (("exponents",), ("ground-state", "--g", "1.2")):
            code, out, err = run_cli(capsys, *argv, "--jbar", "0", "--sites", "3")
            assert (code, out) == (2, "")
            assert err == f"error: {meanfield._UNCLASSIFIED}\n"

    def test_readme_example_passes_every_check(self, capsys):
        # exponents fits over extract_exponents' window; sweep keeps its own
        code, out, _ = run_cli(capsys, "exponents", "--jbar", "0.01", "--sites", "5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["reduced_min"] == scaling.EXPONENT_WINDOW[0] == 1e-7
        checks = rows_by(payload["results"], "check")
        assert len(checks) == 7 and all(r["value"] == 1.0 for r in checks), checks
        assert not [w for w in payload["warnings"] if w.startswith("check ")]
        code, out, _ = run_cli(capsys, "sweep", "--sites", "3", "--format", "json",
                               "--observables", "energy")
        assert json.loads(out)["config"]["reduced_min"] == 1e-4


class TestConfigFile:
    def test_config_merging_and_flag_precedence(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"jbar": 0.01, "sites": 5, "g": 0.5}))
        code, out, _ = run_cli(capsys, "critical-point", "--config", str(config),
                               "--sites", "3")
        assert code == 0
        rows = csv_to_rows(out)
        # three eigenvalue rows: the explicit --sites 3 overrode the file's 5
        assert len(rows_by(rows, "origin_hessian_eigenvalue")) == 3

    def test_unknown_config_keys_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"jbar": 0.01, "coupling": 1.0}))
        code, _, err = run_cli(capsys, "critical-point", "--config", str(config))
        assert code == 2
        assert "coupling" in err

    def test_unknown_seed_mode_rejected(self, capsys, tmp_path):
        # only ground-state has the key's flag, so it checks the mode
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"seed_mode": "random"}))
        code, _, err = run_cli(capsys, "ground-state", "--config", str(config))
        assert code == 2
        assert "seed_mode" in err

    def test_missing_file_is_a_validation_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "critical-point", "--config",
                                 str(tmp_path / "absent.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config file") and "absent.json" in err

    @pytest.mark.parametrize("text", ["{bad", "", "\xff"])
    def test_invalid_json_is_a_validation_error(self, capsys, tmp_path, text):
        config = tmp_path / "bad.json"
        config.write_bytes(text.encode("latin-1"))
        code, out, err = run_cli(capsys, "critical-point", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config file")

    @pytest.mark.parametrize("payload", [[1, 2], "sites", 3, None])
    def test_json_that_is_not_an_object_is_rejected(self, capsys, tmp_path, payload):
        config = tmp_path / "list.json"
        config.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "critical-point", "--config", str(config))
        assert (code, out) == (2, "")
        assert "must hold a JSON object" in err

    @pytest.mark.parametrize("values, message", [
        ({"sites": "5"}, 'sites must be int, got "5"'),
        ({"jbar": "0.01"}, 'jbar must be float, got "0.01"'),
        ({"observables": 3}, "observables must be str, got 3"),
        ({"manifold": "yes"}, 'manifold must be bool, got "yes"'),
        ({"sites": 5.0}, "sites must be int, got 5.0"),
        ({"sites": True}, "sites must be int, got true"),
        ({"jbar": False}, "jbar must be float, got false"),
        ({"jbar": None}, "jbar must be float, got null"),
    ])
    def test_value_of_the_wrong_type_is_rejected(self, capsys, tmp_path, values, message):
        config = tmp_path / "typed.json"
        config.write_text(json.dumps(values))
        for command in ("critical-point", "sweep"):
            code, out, err = run_cli(capsys, command, "--config", str(config))
            assert (code, out) == (2, "")
            assert err == f"error: config key {message}\n"

    def test_valid_config_gives_the_bytes_of_its_flags(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"jbar": 0.2, "sites": 3, "g": 1.3, "output": None,
                                      "manifold": True, "seed_mode": "exhaustive"}))
        by_file = run_cli(capsys, "ground-state", "--config", str(config))
        by_flags = run_cli(capsys, "ground-state", "--jbar", "0.2", "--sites", "3", "--g",
                           "1.3", "--manifold", "--seed-mode", "exhaustive")
        assert by_file == by_flags and by_file[0] == 0

    def test_int_for_a_float_stays_as_written(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"jbar": 0, "sites": 5, "g": 2, "format": "json"}))
        code, out, _ = run_cli(capsys, "critical-point", "--config", str(config))
        assert code == 0
        echoed = json.loads(out)["config"]
        assert (echoed["jbar"], echoed["g"], echoed["sites"]) == (0, 2, 5)
        assert isinstance(echoed["jbar"], int) and isinstance(echoed["g"], int)
        code, by_flags, _ = run_cli(capsys, "critical-point", "--jbar", "0", "--sites", "5",
                                    "--g", "2", "--format", "json")
        assert json.loads(by_flags)["results"] == json.loads(out)["results"]


class TestSeedModeScope:
    @pytest.mark.parametrize("command", ["critical-point", "spectrum", "sweep",
                                         "exponents"])
    def test_rejected_where_unread(self, capsys, command):
        # only ground-state --manifold reads the seed mode
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--seed-mode", "exhaustive"])
        assert exit_info.value.code == 2
        assert "--seed-mode" in capsys.readouterr().err


class TestFlagScope:
    """Each command has the flags it reads, and its config file only their keys."""

    @pytest.mark.parametrize("argv", [("exponents", "--g", "5"), ("sweep", "--g", "5"),
                                      ("exponents", "--side", "below"),
                                      ("exponents", "--observables", "energy"),
                                      ("critical-point", "--points-per-decade", "5")])
    def test_rejected_where_unread(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("exponents", "g", 5.0), ("sweep", "g", 5), ("exponents", "side", "below"),
        ("exponents", "observables", "energy"), ("critical-point", "manifold", True),
        ("sweep", "seed_mode", "exhaustive"), ("spectrum", "points_per_decade", 5)])
    def test_config_key_of_another_commands_flag_is_rejected(self, capsys, tmp_path,
                                                             command, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: config key {key} is not a flag of {command}\n"

    #: per command, the flags that only some commands have
    OWN = [("critical-point", {"g"}), ("ground-state", {"g", "seed_mode", "manifold"}),
           ("spectrum", {"g"}), ("exponents", {"reduced_min", "reduced_max", "points_per_decade"}),
           ("sweep", {"reduced_min", "reduced_max", "points_per_decade", "side", "observables"})]
    COMMON = {"jbar", "sites", "omega0", "omega_atom", "output", "format"}

    @pytest.mark.parametrize("command, own", OWN)
    def test_config_accepts_exactly_the_keys_of_the_commands_flags(self, tmp_path, command, own):
        config = tmp_path / "run.json"
        defaults = cli.RunConfig(command)
        for key in sorted(cli._CONFIG_KEYS):
            config.write_text(json.dumps({key: getattr(defaults, key)}))
            args = cli.build_parser().parse_args([command, "--config", str(config)])
            if key in own | self.COMMON:
                merged, flags = cli._merge_config(args)
                assert getattr(merged, key) == getattr(defaults, key)
                assert flags == own | self.COMMON
            else:
                with pytest.raises(ValidationError, match=f"^config key {key} is not a flag"):
                    cli._merge_config(args)

    @pytest.mark.parametrize("command, own", OWN)
    def test_json_config_echoes_the_command_and_its_flags(self, capsys, command, own):
        # a command echoes no field it has no flag for: exponents no side,
        # observables, g, manifold or seed_mode
        argv = [command, "--format", "json", *(["--g", "1.2"] if "g" in own else [])]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        echoed = json.loads(out)["config"]
        assert set(echoed) == own | self.COMMON | {"command"}
        assert echoed["command"] == command
        if command == "exponents":
            assert echoed["reduced_min"] == scaling.EXPONENT_WINDOW[0]


@pytest.mark.parametrize("argv, head", [
    (("critical-point", "--jbar", "-0.01", "--sites", "21", "--g", "0.9800499987245549"),
     ["g_c"] + ["origin_hessian_eigenvalue"] * 21),
    (("ground-state", "--jbar", "0.2", "--sites", "3", "--g", "1.3", "--manifold"),
     ["energy", "phase", "degeneracy", "alpha", "theta", "phi", "jx", "alpha"]),
    (("spectrum", "--jbar", "0.01", "--sites", "3", "--g", "1.005"),
     ["excitation_energy"] * 6 + ["weight_cavity", "weight_atom", "weight_cavity"]),
    (("exponents", "--jbar", "0.01", "--sites", "3", "--reduced-min", "1e-4"),
     ["gamma", "gamma_r_squared", "gamma", "gamma_r_squared", "photon_exponent"]),
])
def test_single_point_commands_write_one_point_tables(capsys, argv, head):
    # the rows keep the order the command lists them in: a run of one
    # observable is one column
    config, _ = cli._merge_config(cli.build_parser().parse_args(argv))
    table, _ = cli._COMMANDS[config.command](config)
    (g,), (reduced,), columns = table
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == package_csv(table) == table_csv(table_points(table))
    assert all(mask.all() and values.shape == (1, len(labels))
               for _, labels, values, mask in columns)
    assert [row["observable"] for row in csv_to_rows(out)][:len(head)] == head


def reference_one_point(g, reduced, rows):
    """The one-point table with arrays of its own for each run of one
    observable."""
    columns = []
    for observable, run in itertools.groupby(rows, key=lambda row: row[0]):
        _, labels, values = zip(*run)
        values = np.array([values], dtype=float)
        columns.append((observable, np.array([str(label) for label in labels]), values,
                        np.ones(values.shape, dtype=bool)))
    return np.array([float(g)]), np.array([float(reduced)]), columns


@pytest.mark.parametrize("rows", [
    [],
    [("g_c", "", 0.9949874371066199)],
    [("a", 1, 0.5), ("b", "x", -0.0), ("a", 2, np.nan), ("c", "", 5e-324)],
    [("a", 1, 1.5), ("a", 2, 2.5), ("a", 10, -np.inf), ("b", "mf", 1e-300), ("b", "f", np.inf),
     ("c", "", 7), ("d", "1/2", 0.25), ("d", "1/3", np.float64(0.75))],
], ids=["no rows", "one row", "single-row runs", "multi-row runs"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_point_table_writes_the_bytes_of_a_table_per_run(rows, fmt):
    # a one-point table's columns are slices of one values, labels and mask
    # array; both writers give the bytes of a table with arrays per run
    config, flags = cli._merge_config(cli.build_parser().parse_args(
        ["critical-point", "--format", fmt]))
    table, reference = cli._one_point(1.25, 0.0, rows), reference_one_point(1.25, 0.0, rows)
    assert [(name, labels.tolist(), values.tobytes(), mask.tolist())
            for name, labels, values, mask in table[2]] == [
        (name, labels.tolist(), values.tobytes(), mask.tolist())
        for name, labels, values, mask in reference[2]]
    assert len({id(values.base) for _, _, values, _ in table[2]}) <= 1
    warnings = ["a warning"]
    assert ("".join(cli._emit(config, flags, table, warnings))
            == "".join(cli._emit(config, flags, reference, warnings)))
    if fmt == "json":
        document = json.loads("".join(cli._emit(config, flags, table, warnings)))
        assert [(row["observable"], row["index"]) for row in document["results"]] == [
            (name, str(label)) for name, label, _ in rows]


_SPECIAL = np.array([[np.nan, np.inf, -np.inf], [-0.0, 0.0, 5e-324]])


@pytest.mark.parametrize("table, warnings", [
    ((np.array([1.5, -0.0]), np.array([0.5, np.inf]),
      [("a", np.array(["1", "é"]), _SPECIAL[:, :2], np.ones((2, 2), dtype=bool)),
       ("b\u00e9", np.array([""]), _SPECIAL[:, 2:], np.array([[True], [False]]))]),
     ["naïve — ü", "a \"quoted\" \\ line\nbreak", '"results": []']),
    ((np.array([1.5]), np.array([0.5]), [("a", np.array(["1"]), _SPECIAL[:1, :1],
                                          np.ones((1, 1), dtype=bool))]), []),
    ((np.array([]), np.array([]), []), ["only a warning"]),
    ((np.array([2.0]), np.array([1.0]), []), []),
])
def test_json_writer_matches_indented_dumps(table, warnings):
    # the rows are C-encoded inside their braces; the document must still be
    # json.dumps(..., sort_keys=True, indent=1) byte for byte, with NaN,
    # +-inf, -0.0, non-ASCII and escaped text, and empty results or warnings
    config, flags = cli._merge_config(cli.build_parser().parse_args(
        ["sweep", "--format", "json", "--output", "répertoire/out.json"]))
    results = [{"g": g, "reduced_coupling": reduced, "observable": name, "index": label,
                "value": value}
               for g, reduced, columns in table_points(table)
               for name, labels, values in columns for label, value in zip(labels, values)]
    echo = {key: value for key, value in dataclasses.asdict(config).items()
            if key in flags | {"command"}}
    expected = json.dumps({"config": echo, "results": results, "warnings": warnings},
                          sort_keys=True, indent=1) + "\n"
    assert "".join(cli._emit(config, flags, table, warnings)) == expected


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert run_cli(capsys, "critical-point", "--jbar", "0.01")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_bad_flag_leaves_the_next_call_unchanged(self, capsys):
        args = ("sweep", "--jbar", "-0.01", "--sites", "5", "--points-per-decade", "2")
        before = run_cli(capsys, *args)
        for bad in (["sweep", "--bogus"], ["sweep", "--sites", "five"], ["sweep", "--side", "up"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            capsys.readouterr()
            assert run_cli(capsys, *args) == before


def test_debug_trace_leaves_output_bytes_unchanged(capsys, caplog):
    argv = ("sweep", "--jbar", "0.01", "--sites", "5", "--points-per-decade", "3")
    _, quiet, _ = run_cli(capsys, *argv)
    with caplog.at_level(logging.DEBUG, logger="frustra.meanfield"):
        _, traced, _ = run_cli(capsys, *argv)
    assert traced == quiet
    assert sum(r.name == "frustra.meanfield" for r in caplog.records) == quiet.count(
        ",energy,")


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: the package itself runs on numpy
    source_root = os.path.dirname(os.path.dirname(frustra.__file__))
    env = dict(os.environ, PYTHONPATH=source_root)
    probe = "import sys, frustra; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


class TestExitCodes:
    @pytest.mark.parametrize("command, g", [("ground-state", "1e200"), ("spectrum", "1e160")])
    def test_overflowing_coupling_is_typed(self, capsys, command, g):
        code, out, err = run_cli(capsys, command, "--g", g)
        assert code == 2
        assert not out
        assert err.startswith("error: ") and "overflows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["missing/out.csv", ".", "/dev/full"])
    def test_unwritable_output_is_a_validation_error(self, tmp_path, target):
        # a file in a missing directory or a directory cannot be opened, and
        # /dev/full takes the open but fails the write
        if target == "/dev/full" and not os.path.exists(target):
            pytest.skip("no /dev/full on this platform")
        path = os.path.join(tmp_path, target)
        source_root = os.path.dirname(os.path.dirname(frustra.__file__))
        env = dict(os.environ, PYTHONPATH=source_root)
        program = "import sys; from frustra.cli import main; sys.exit(main(sys.argv[1:]))"
        result = subprocess.run([sys.executable, "-c", program, "critical-point", "--output", path],
                                env=env, capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith(f"error: cannot write output file {path}: ")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr

    def test_huge_coupling_prints_no_warning(self):
        # the Hessian's (1 + 4 g^2 a^2)^(3/2) overflows at this coupling;
        # the term it divides goes to its exact limit 0, silently
        source_root = os.path.dirname(os.path.dirname(frustra.__file__))
        env = dict(os.environ, PYTHONPATH=source_root)
        program = "import sys; from frustra.cli import main; sys.exit(main(sys.argv[1:]))"
        result = subprocess.run([sys.executable, "-c", program, "ground-state", "--g", "1e76"],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stderr == ""

    @pytest.mark.parametrize("command", ["sweep", "exponents"])
    def test_sector_svd_that_does_not_converge_fails_its_point_only(
            self, capsys, monkeypatch, command):
        # numpy.linalg.svd raised LinAlgError for the whole stack, and the
        # command ended in a traceback; the row-wise SVD marks the first
        # frustrated point's sectors NaN, and that point alone is missing
        real = fluctuations._svd

        def svd(a):
            u, eps, vt = real(a)
            u[0] = eps[0] = vt[0] = np.nan
            return u, eps, vt

        monkeypatch.setattr(fluctuations, "_svd", svd)
        code, out, err = run_cli(capsys, command, "--jbar", "0.01", "--sites", "5")
        assert code == 0 and out
        if command == "sweep":
            (line,) = [line for line in err.splitlines() if "mirror-even" in line]
            g = float(line.split()[2][len("g="):])
            rows = csv_to_rows(out)
            assert g == min(row["g"] for row in rows if row["g"] > model.critical_point(0.01, 5))
            assert {row["observable"] for row in rows if row["g"] == g} == {
                "energy", "hessian_eigenvalues"}

    def test_large_coupling_still_solves(self, capsys):
        code, out, _ = run_cli(capsys, "ground-state", "--g", "1e7")
        assert code == 0
        assert rows_by(csv_to_rows(out), "phase")[0]["index"] == "FrustratedSuperradiant"

    def test_instability_exit_code(self, capsys, monkeypatch):
        # critical_point keeps its guard for a hopping that passes the window
        # check at rounding level; a stand-in window, the three-site one,
        # lets 0.63 through at five sites, past the stability edge, where
        # the critical point has no real solution
        monkeypatch.setattr(model, "stability_window", lambda n_sites: (-0.5, 1.0))
        code, _, err = run_cli(capsys, "critical-point", "--jbar", "0.63",
                               "--sites", "5")
        assert code == 3
        assert err.startswith("error: no stable critical point")

    @pytest.mark.parametrize("jbar, sites", [("0.63", "5"), ("0.7", "5"), ("0.62", "5"),
                                             ("1.2", "3"), ("1.0", "3"), ("-0.5", "7")])
    def test_hopping_outside_the_window_of_its_size_is_a_validation_error(
            self, capsys, jbar, sites):
        # every command checks the window of the point's own lattice size
        for command in ("critical-point", "exponents", "sweep"):
            code, out, err = run_cli(capsys, command, "--jbar", jbar, "--sites", sites)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: jbar={jbar} outside the stability window (-0.5, ")

    def test_five_site_exponents(self, capsys):
        code, out, _ = run_cli(capsys, "exponents", "--jbar", "0.01",
                               "--sites", "5", "--points-per-decade", "8")
        assert code == 0
        rows = csv_to_rows(out)
        assert rows_by(rows, "gamma", "f")[0]["value"] == pytest.approx(2.0, abs=0.1)
