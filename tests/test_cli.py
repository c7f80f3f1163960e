"""End-to-end tests of the command-line driver.

Every test calls ``main`` in process and inspects the written report, the
exit code, or both.  Exit codes follow the contract: 0 success, 1 for a
tolerance violation (report still written), 2 for configuration errors.
"""

import csv
import json
import math
import tracemalloc
from types import SimpleNamespace

import pytest

from hamfactor import cli, quantize
from hamfactor.cli import DEFAULT_TOLERANCES, MAX_WORKING_BYTES, main, solve1d_bytes, zeeman_bytes
from hamfactor.linalg import logabsdet_tridiagonal


def run(*args):
    return main([str(a) for a in args])


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def read_csv_report(path):
    """Split a report into its metadata dict and parsed table rows."""
    raw = path.read_bytes().decode("utf-8")
    assert "\r\n" in raw
    metadata = {}
    table_lines = []
    for line in raw.split("\r\n"):
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            metadata[key] = value
        elif line:
            table_lines.append(line)
    rows = list(csv.reader(table_lines))
    return metadata, rows[0], rows[1:]


class TestVerify:
    def test_default_checks_pass(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("verify", "--trials", 5, "--output", out) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["passed"] is True
        assert report["metadata"]["command"] == "verify"
        assert report["metadata"]["seed"] == 42
        assert report["metadata"]["trials"] == 5
        assert set(report["metadata"]["units"]) == {
            "hbar",
            "charge",
            "electron_mass",
            "light_speed",
        }
        names = [check["name"] for check in report["checks"]]
        assert names == list(DEFAULT_TOLERANCES)
        for check in report["checks"]:
            assert check["passed"] is True
            assert 0.0 <= check["max_error"] < check["tolerance"]

    def test_nan_residual_fails_its_check(self, tmp_path, monkeypatch):
        # A NaN among finite residuals must reach the report, not be
        # dropped by the suite's running maximum.
        real = cli.determinant_report_1d
        calls = []

        def nan_on_second_call(sample, coeffs=None):
            calls.append(coeffs)
            report = real(sample, coeffs)
            return SimpleNamespace(max_rel_err=math.nan) if len(calls) == 2 else report

        monkeypatch.setattr(cli, "determinant_report_1d", nan_on_second_call)
        out = tmp_path / "nan.json"
        assert run("verify", "--trials", 5, "--output", out) == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        assert len(calls) == 5
        assert report["passed"] is False
        checks = {check["name"]: check for check in report["checks"]}
        assert checks["factorization_1d"]["passed"] is False
        assert math.isnan(checks["factorization_1d"]["max_error"])
        assert all(check["passed"] for name, check in checks.items() if name != "factorization_1d")

    def test_reports_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run("verify", "--trials", 4, "--seed", 7, "--output", first) == 0
        assert run("verify", "--trials", 4, "--seed", 7, "--output", second) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_the_draws(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run("verify", "--trials", 4, "--seed", 1, "--output", first) == 0
        assert run("verify", "--trials", 4, "--seed", 2, "--output", second) == 0
        a = json.loads(first.read_text(encoding="utf-8"))
        b = json.loads(second.read_text(encoding="utf-8"))
        errors_a = [c["max_error"] for c in a["checks"]]
        errors_b = [c["max_error"] for c in b["checks"]]
        assert errors_a != errors_b

    def test_flags_override_config(self, tmp_path):
        config = write_config(tmp_path, {"seed": 5, "trials": 2})
        out = tmp_path / "report.json"
        assert run("verify", "--config", config, "--seed", 9, "--output", out) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["metadata"]["seed"] == 9
        assert report["metadata"]["trials"] == 2

    def test_zero_tolerance_flags_every_check(self, tmp_path):
        tolerances = {name: 0.0 for name in DEFAULT_TOLERANCES}
        config = write_config(tmp_path, {"tolerances": tolerances})
        out = tmp_path / "report.json"
        assert run("verify", "--trials", 3, "--config", config, "--output", out) == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["passed"] is False
        assert all(check["passed"] is False for check in report["checks"])

    def test_single_tightened_tolerance_fails_that_check(self, tmp_path):
        config = write_config(tmp_path, {"tolerances": {"determinant_identity": 1e-30}})
        out = tmp_path / "report.json"
        assert run("verify", "--trials", 3, "--config", config, "--output", out) == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        by_name = {check["name"]: check for check in report["checks"]}
        assert by_name["determinant_identity"]["passed"] is False
        assert by_name["spin_square"]["passed"] is True

    def test_writes_to_stdout_by_default(self, capsys):
        assert run("verify", "--trials", 2) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["passed"] is True


class TestVerifyConfigErrors:
    def check_error(self, capsys, *args, expect):
        assert run(*args) == 2
        assert expect in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        self.check_error(
            capsys, "verify", "--config", tmp_path / "absent.json", expect="cannot read"
        )

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "seed": oops\n}', encoding="utf-8")
        self.check_error(capsys, "verify", "--config", path, expect="line 2")

    def test_non_object_top_level(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        self.check_error(capsys, "verify", "--config", path, expect="top level")

    def test_unknown_top_key(self, tmp_path, capsys):
        config = write_config(tmp_path, {"sead": 3})
        self.check_error(capsys, "verify", "--config", config, expect="'sead'")

    def test_unknown_tolerance_name(self, tmp_path, capsys):
        config = write_config(tmp_path, {"tolerances": {"spin_sqare": 1e-9}})
        self.check_error(capsys, "verify", "--config", config, expect="'spin_sqare'")

    def test_negative_tolerance(self, tmp_path, capsys):
        config = write_config(tmp_path, {"tolerances": {"spin_square": -1e-9}})
        self.check_error(capsys, "verify", "--config", config, expect=">= 0")

    def test_non_numeric_tolerance(self, tmp_path, capsys):
        config = write_config(tmp_path, {"tolerances": {"spin_square": "tight"}})
        self.check_error(capsys, "verify", "--config", config, expect="real number")

    def test_boolean_seed_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, {"seed": True})
        self.check_error(capsys, "verify", "--config", config, expect="integer")

    def test_zero_trials_rejected(self, capsys):
        self.check_error(capsys, "verify", "--trials", 0, expect=">= 1")

    def test_unknown_units_key(self, tmp_path, capsys):
        config = write_config(tmp_path, {"units": {"hbar": 1.0, "planck": 6.6}})
        self.check_error(capsys, "verify", "--config", config, expect="'planck'")

    def test_nonpositive_unit_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, {"units": {"hbar": 0.0}})
        self.check_error(capsys, "verify", "--config", config, expect="hbar")


class TestSolve1d:
    def test_box_ground_state(self, tmp_path):
        out = tmp_path / "box.csv"
        assert run("solve1d", "--preset", "box", "--n", 60, "--output", out) == 0
        metadata, header, rows = read_csv_report(out)
        assert header == [
            "index",
            "energy",
            "residual",
            "log10_abs_det_pencil",
            "log10_root_distance",
        ]
        assert metadata["potential"] == "box"
        assert metadata["coarse"] == "false"
        assert len(rows) == 12
        exact = math.pi**2 / 2.0
        ground = float(rows[0][1])
        assert abs(ground - exact) / exact < 1e-3
        assert float(rows[0][2]) < 1e-10
        # Reported energies are determinant roots: the relative root
        # distance sits below the configured guard.
        guard = float(metadata["singularity_guard_log10"])
        for row in rows:
            assert row[4] == "-inf" or float(row[4]) < guard

    def test_harmonic_level_spacing(self, tmp_path):
        config = write_config(tmp_path, {"potential": "harmonic", "n": 300, "count": 5})
        out = tmp_path / "harmonic.csv"
        assert run("solve1d", "--config", config, "--output", out) == 0
        _, _, rows = read_csv_report(out)
        energies = [float(row[1]) for row in rows]
        assert energies[0] == pytest.approx(0.5, rel=1e-3)
        for lower, upper in zip(energies[:-1], energies[1:]):
            assert upper - lower == pytest.approx(1.0, rel=1e-2)

    def test_coarse_grid_is_flagged(self, tmp_path):
        out = tmp_path / "coarse.csv"
        assert run("solve1d", "--preset", "box", "--n", 10, "--output", out) == 0
        metadata, _, rows = read_csv_report(out)
        assert metadata["coarse"] == "true"
        assert len(rows) == 10  # count clipped to n

    def test_determinant_columns_filled_at_large_n(self, tmp_path):
        out = tmp_path / "big.csv"
        assert run("solve1d", "--preset", "box", "--n", 500, "--output", out) == 0
        metadata, _, rows = read_csv_report(out)
        assert "pencil_determinant" not in metadata
        guard = float(metadata["singularity_guard_log10"])
        assert len(rows) == 12
        for row in rows:
            assert math.isfinite(float(row[3]))
            assert float(row[4]) < guard

    def test_one_banded_factorization_per_level(self, tmp_path, monkeypatch):
        calls = []

        def counting(diagonal, offdiagonal):
            calls.append(len(diagonal))
            return logabsdet_tridiagonal(diagonal, offdiagonal)

        monkeypatch.setattr(quantize, "logabsdet_tridiagonal", counting)
        out = tmp_path / "levels.csv"
        config = write_config(tmp_path, {"potential": "harmonic", "n": 90, "count": 7})
        assert run("solve1d", "--config", config, "--output", out) == 0
        assert calls == [2 * 90 + 1] * 7

    def test_oversized_grid_rejected_before_allocation(self, capsys):
        # The documented bound: n up to 4729 fits the limit.
        largest = 4729
        assert solve1d_bytes(largest) <= MAX_WORKING_BYTES < solve1d_bytes(largest + 1)
        tracemalloc.start()
        try:
            for n in (largest + 1, 10**7):
                assert run("solve1d", "--n", n) == 2
                assert f"n = {n} needs about" in capsys.readouterr().err
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_potential_table_matches_preset(self, tmp_path):
        n = 40
        # The explicit span matches the box default, so the spectra must agree.
        table = write_config(
            tmp_path,
            {"potential": [0.0] * n, "n": n, "x_min": 0.0, "x_max": 1.0},
            "table.json",
        )
        out_table = tmp_path / "table.csv"
        out_box = tmp_path / "box.csv"
        assert run("solve1d", "--config", table, "--output", out_table) == 0
        assert run("solve1d", "--preset", "box", "--n", n, "--output", out_box) == 0
        metadata_table, _, rows_table = read_csv_report(out_table)
        _, _, rows_box = read_csv_report(out_box)
        assert metadata_table["potential"] == "table"
        assert [row[1] for row in rows_table] == [row[1] for row in rows_box]

    def test_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run("solve1d", "--preset", "harmonic", "--n", 80, "--output", first) == 0
        assert run("solve1d", "--preset", "harmonic", "--n", 80, "--output", second) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_config_errors(self, tmp_path, capsys):
        def expect_error(payload, fragment):
            config = write_config(tmp_path, payload)
            assert run("solve1d", "--config", config) == 2
            assert fragment in capsys.readouterr().err

        expect_error({"potential": "morse"}, "unknown potential preset")
        expect_error({"potential": [0.0, 0.0], "n": 5}, "5 samples")
        expect_error({"potential": 3}, "preset name or a list")
        expect_error({"n": 2}, ">= 3")
        expect_error({"mass": -1.0}, "positive")
        expect_error({"x_min": 2.0, "x_max": 1.0}, "exceed")
        expect_error({"grid": 100}, "'grid'")


class TestZeeman:
    def test_hydrogen_preset_table(self, tmp_path):
        out = tmp_path / "hydrogen.csv"
        assert run("zeeman", "--preset", "hydrogen", "--output", out) == 0
        metadata, header, rows = read_csv_report(out)
        assert header == ["n", "l", "m", "branch", "energy", "shift", "omega_L", "m_L", "g_L"]
        assert metadata["m2"] == "1836.15267"
        assert len(rows) == 28  # all (n, l, m) up to n = 3, two branches each
        omega = 0.003646689155663013
        ground_energy = -0.4997278397118733
        first = rows[0]
        assert first[:4] == ["1", "0", "0", "1"]
        assert float(first[6]) == pytest.approx(omega, rel=1e-12)
        assert float(first[7]) == pytest.approx(1.0005449137918319, rel=1e-12)
        assert float(first[8]) == pytest.approx(0.999455382977495, rel=1e-12)
        assert float(first[5]) == pytest.approx(omega, rel=1e-12)  # branch 1, m = 0
        assert float(first[4]) == pytest.approx(ground_energy + omega, rel=1e-12)

    def test_positronium_coupling_vanishes(self, tmp_path):
        out = tmp_path / "positronium.csv"
        assert run("zeeman", "--preset", "positronium", "--output", out) == 0
        _, _, rows = read_csv_report(out)
        for row in rows:
            assert row[5] == "0.0"
            assert row[6] == "0.0"
            assert row[7] == "inf"
            assert row[8] == "0.0"

    def test_zero_field_has_no_shift(self, tmp_path):
        out = tmp_path / "nofield.csv"
        assert run("zeeman", "--preset", "hydrogen", "--b", 0.0, "--output", out) == 0
        _, _, rows = read_csv_report(out)
        assert all(row[5] == "0.0" for row in rows)

    def test_n_max_controls_row_count(self, tmp_path):
        out = tmp_path / "small.csv"
        assert run("zeeman", "--preset", "hydrogen", "--n-max", 1, "--output", out) == 0
        _, _, rows = read_csv_report(out)
        assert len(rows) == 2

    def test_explicit_masses(self, tmp_path):
        config = write_config(tmp_path, {"m1": 1.0, "m2": 10.0, "n_max": 1})
        out = tmp_path / "custom.csv"
        assert run("zeeman", "--config", config, "--output", out) == 0
        metadata, _, _ = read_csv_report(out)
        assert metadata["m2"] == "10.0"
        assert metadata["preset"] == "none"

    def test_oversized_table_rejected_before_allocation(self, capsys):
        # The documented bound: n_max up to 146 fits the shared limit.
        largest = 146
        assert zeeman_bytes(largest) <= MAX_WORKING_BYTES < zeeman_bytes(largest + 1)
        tracemalloc.start()
        try:
            for n_max in (largest + 1, 10**6):
                assert run("zeeman", "--n-max", n_max) == 2
                assert f"n_max = {n_max} needs about" in capsys.readouterr().err
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_config_errors(self, tmp_path, capsys):
        assert run("zeeman", "--preset", "muonium") == 2
        assert "unknown zeeman preset" in capsys.readouterr().err

        both = write_config(tmp_path, {"preset": "hydrogen", "m2": 100.0})
        assert run("zeeman", "--config", both) == 2
        assert "not both" in capsys.readouterr().err

        negative = write_config(tmp_path, {"m2": -5.0})
        assert run("zeeman", "--config", negative) == 2
        assert "positive" in capsys.readouterr().err


class TestSpinReport:
    def test_default_two_sites(self, tmp_path):
        out = tmp_path / "spin.json"
        assert run("spin-report", "--output", out) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["passed"] is True
        body = report["commutators"]
        assert body["nsites"] == 2
        assert body["same_site_factor"] == pytest.approx(2.0, abs=1e-14)
        assert body["max_residual"] < report["tolerance"]
        assert len(body["entries"]) == 36

    def test_particle_count_validated(self, capsys):
        assert run("spin-report", "--particles", 5) == 2
        assert "<= 4" in capsys.readouterr().err
        assert run("spin-report", "--particles", 0) == 2


class TestArgumentHandling:
    def test_missing_subcommand(self, capsys):
        assert run() == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run("verify", "--bogus") == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert run("--version") == 0
        assert "hamfactor" in capsys.readouterr().out

    def test_help_exits_cleanly(self, capsys):
        assert run("--help") == 0
        assert "verify" in capsys.readouterr().out
