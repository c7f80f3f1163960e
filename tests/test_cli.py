"""End-to-end tests of the command-line driver.

Every test calls ``main`` in process and inspects the written report, the
exit code, or both.  Exit codes follow the contract: 0 success, 1 for a
tolerance violation (report still written), 2 for configuration errors.
"""

import csv
import json
import math
import tracemalloc
import warnings
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from hamfactor import FieldConfig, ParticleSpec, Units, ZeemanSystem, cli, linalg, quantize, splitting_table
from hamfactor.cli import DEFAULT_TOLERANCES, MAX_WORKING_BYTES, main, solve1d_bytes, zeeman_bytes
from hamfactor.linalg import SingularBlockError


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


def report_metadata(path):
    """A report's metadata with every value as its text."""
    if path.suffix == ".json":
        metadata = json.loads(path.read_text(encoding="utf-8"))["metadata"]
        return {key: str(value) for key, value in metadata.items()}
    return read_csv_report(path)[0]


class TestVerify:
    def test_default_checks_pass(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("verify", "--trials", 5, "--output", out) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["passed"] is True
        assert report["metadata"]["command"] == "verify"
        assert report["metadata"]["seed"] == 42
        assert report["metadata"]["trials"] == 5
        assert set(report["metadata"]["units"]) == {"hbar", "charge", "light_speed"}
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

    def test_schur_suite_with_no_trial_run_fails(self, tmp_path, monkeypatch):
        # Every draw skipped as singular: the suites measured nothing, so
        # they must fail rather than report a maximum error of 0.
        def singular(matrix, split):
            raise SingularBlockError("forced")

        monkeypatch.setattr(cli, "block_det_schur", singular)
        monkeypatch.setattr(cli, "schur_factor_check", singular)
        out = tmp_path / "skipped.json"
        assert run("verify", "--trials", 5, "--output", out) == 1
        checks = {check["name"]: check for check in json.loads(out.read_text(encoding="utf-8"))["checks"]}
        for name in ("schur_determinant", "schur_reconstruction"):
            assert checks[name]["passed"] is False
            assert math.isnan(checks[name]["max_error"])
        assert all(check["passed"] for name, check in checks.items() if not name.startswith("schur_"))

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

    def test_factorization_1d_passes_at_rounding_level_seed(self, tmp_path):
        # This seed's worst 1-D draw nearly cancels E - V against p^2/2m;
        # its gap, scaled by those two terms, sits at rounding level.
        out = tmp_path / "report.json"
        assert run("verify", "--seed", 1717579505, "--trials", 20, "--output", out) == 0
        checks = {check["name"]: check for check in json.loads(out.read_text(encoding="utf-8"))["checks"]}
        assert checks["factorization_1d"]["max_error"] < 1e-15

    @staticmethod
    def suite(name, seed, trials, units):
        """One verify suite's max error, drawn from its own stream of ``seed``."""
        stream, runner = {check: (stream_id, runner) for check, stream_id, runner in cli.VERIFY_SUITES}[name]
        return runner(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,))), trials, units)

    def test_kinetic_square_in_any_units(self):
        # Gaps are relative to the terms that produce them, so the check
        # reads the same in every unit system, and still fails for a
        # wrong sign of sigma . B.  The default-units value is exactly 0;
        # "within 10x" is read against one unit roundoff there.
        tolerance = DEFAULT_TOLERANCES["kinetic_square"]
        base = self.suite("kinetic_square", 42, 20, Units())
        assert base < tolerance
        electron = ParticleSpec(1.0, -1.0)
        for hbar in (1e-10, 1.0, 1e10):
            for light_speed in (1e-10, 1.0, 1e10):
                units = Units(hbar=hbar, light_speed=light_speed)
                value = self.suite("kinetic_square", 42, 20, units)
                assert value < tolerance
                assert value <= 10 * max(base, np.finfo(float).eps)
                field = FieldConfig((0.3, -1.1, 0.8))
                object.__setattr__(field, "b", tuple(-x for x in field.b))
                assert quantize.kinetic_square_residual(field, electron, units=units) > 100 * tolerance

    @pytest.mark.parametrize("name", ["schur_reconstruction", "null_spinor_residual"])
    def test_rescaled_checks_in_any_units(self, name):
        # Gaps are divided entry by entry by the moduli of the terms that
        # produce them, so each check reads the same in every unit system,
        # within 10x either way (null_spinor_residual read 2.5e-25 at
        # light_speed = 1e-10 while it was divided by |G| |v|).
        tolerance = DEFAULT_TOLERANCES[name]
        base = self.suite(name, 42, 20, Units())
        assert base < tolerance
        for hbar in (1e-10, 1.0, 1e10):
            for light_speed in (1e-10, 1.0, 1e10):
                value = self.suite(name, 42, 20, Units(hbar=hbar, light_speed=light_speed))
                assert value < tolerance
                assert base / 10 <= value <= 10 * base

    @pytest.mark.parametrize("name", list(DEFAULT_TOLERANCES))
    def test_every_check_in_any_unit_of_charge(self, name):
        # The draws take charges in units of units.charge, so every check
        # passes and reads within 10x of the default-units value either
        # way; a value of exactly 0 is read against one unit roundoff.
        tolerance = DEFAULT_TOLERANCES[name]
        base = self.suite(name, 42, 20, Units())
        assert base < tolerance
        floor = max(base, np.finfo(float).eps)
        for charge in (1e-10, 1e10):
            value = self.suite(name, 42, 20, Units(charge=charge))
            assert value < tolerance
            assert base / 10 <= value <= 10 * floor

    @pytest.mark.parametrize("seed, trials", [(1282, 20), (147, 100)])
    def test_schur_reconstruction_passes_at_seeds_with_large_corners(self, seed, trials):
        # These draws have B D^-1 or D^-1 C far above max|M|; divided by
        # max|M| they read 1.02e-10 and 1.42e-11 against the 1e-11 tolerance.
        assert self.suite("schur_reconstruction", seed, trials, Units()) < 1e-14

    def test_perturbed_schur_factor_fails_its_check(self, monkeypatch):
        tolerance = DEFAULT_TOLERANCES["schur_reconstruction"]
        real = linalg._inverse_checked
        monkeypatch.setattr(linalg, "_inverse_checked", lambda d: real(d) * (1.0 + 100 * tolerance))
        assert self.suite("schur_reconstruction", 42, 20, Units()) > 10 * tolerance

    @pytest.mark.parametrize("light_speed", [1e-10, 1.0, 1e10])
    def test_perturbed_null_spinor_fails_its_check(self, monkeypatch, light_speed):
        # Each null vector's leading entry off by 100x the tolerance, relative.
        tolerance = DEFAULT_TOLERANCES["null_spinor_residual"]
        real = cli.null_basis

        def perturbed(sample):
            basis = real(sample)
            for index, vector in enumerate(basis):
                vector[index] *= 1.0 + 100 * tolerance
            return basis

        monkeypatch.setattr(cli, "null_basis", perturbed)
        assert self.suite("null_spinor_residual", 42, 20, Units(light_speed=light_speed)) > 10 * tolerance

    def test_small_light_speed_still_runs(self, tmp_path):
        config = write_config(tmp_path, {"units": {"light_speed": 1e-10}})
        out = tmp_path / "report.json"
        assert run("verify", "--trials", 6, "--config", config, "--output", out) == 0


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
        real = quantize.Pencil1D.log_abs_det

        def counting(pencil, energy):
            calls.append(pencil.size)
            return real(pencil, energy)

        monkeypatch.setattr(quantize.Pencil1D, "log_abs_det", counting)
        out = tmp_path / "levels.csv"
        config = write_config(tmp_path, {"potential": "harmonic", "n": 90, "count": 7})
        assert run("solve1d", "--config", config, "--output", out) == 0
        assert calls == [2 * 90 + 1] * 7

    def test_shifted_level_fails_the_run(self, tmp_path, monkeypatch):
        # One level moved half way to the next is no root of the pencil:
        # the run exits 1 and still writes the report, with that level's
        # root distance above the guard.
        real = cli.tridiagonal_eigen

        def shifted(diagonal, offdiagonal, count):
            values, vectors = real(diagonal, offdiagonal, count)
            values[3] += 0.5 * (values[4] - values[3])
            return values, vectors

        monkeypatch.setattr(cli, "tridiagonal_eigen", shifted)
        out = tmp_path / "shifted.csv"
        assert run("solve1d", "--preset", "harmonic", "--n", 200, "--output", out) == 1
        metadata, _, rows = read_csv_report(out)
        guard = float(metadata["singularity_guard_log10"])
        assert [float(row[4]) >= guard for row in rows] == [index == 3 for index in range(12)]

    @pytest.mark.parametrize("distance", [math.inf, math.nan])
    def test_unmeasurable_root_distance_fails_the_run(self, tmp_path, monkeypatch, distance):
        monkeypatch.setattr(cli, "root_distance", lambda slope, norm: distance)
        out = tmp_path / "levels.csv"
        assert run("solve1d", "--preset", "box", "--n", 30, "--output", out) == 1
        assert len(read_csv_report(out)[2]) == 12

    def test_oversized_grid_rejected_before_allocation(self, capsys):
        # The documented bound: n up to 1001624 fits the limit at the default 12 levels.
        largest = 1001624
        assert solve1d_bytes(largest, 12) <= MAX_WORKING_BYTES < solve1d_bytes(largest + 1, 12)
        tracemalloc.start()
        try:
            for n in (largest + 1, 10**7):
                assert run("solve1d", "--n", n) == 2
                assert f"n = {n} needs about" in capsys.readouterr().err
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    # n = 900 and 400 are above the STURM_CROSSOVER for their counts: no n x n array.
    @pytest.mark.parametrize("n, count", [(900, 12), (150, 150), (400, 2)])
    def test_working_set_estimate_bounds_traced_peak(self, tmp_path, n, count):
        out = tmp_path / "levels.csv"
        config = write_config(tmp_path, {"n": n, "count": count})
        tracemalloc.start()
        try:
            assert run("solve1d", "--config", config, "--output", out) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= solve1d_bytes(n, count)

    @pytest.mark.parametrize(
        "config",
        [
            {"potential": "box", "n": 900, "x_min": 0.0, "x_max": 1.3, "mass": 0.7},
            {"potential": "harmonic", "n": 660, "mass": 1.4},
        ],
        ids=["box-900", "harmonic-660"],
    )
    def test_residual_at_rounding_level_of_the_operator(self, tmp_path, config):
        # The residual column is max|H psi - E psi| over the 1-norm of H.
        out = tmp_path / "levels.csv"
        assert run("solve1d", "--config", write_config(tmp_path, config), "--output", out) == 0
        _, _, rows = read_csv_report(out)
        assert len(rows) == 12
        for row in rows:
            assert float(row[2]) <= 1e-14

    def test_residual_reads_the_same_in_any_units(self, tmp_path):
        # An absolute residual would read 2.1e-314 at hbar = 1e-150 and 1.9e286 at hbar = 1e150.
        def residuals(hbar):
            out = tmp_path / f"levels-{hbar}.csv"
            config = write_config(tmp_path, {"n": 20, "count": 3, "units": {"hbar": hbar}})
            assert run("solve1d", "--config", config, "--output", out) == 0
            return [float(row[2]) for row in read_csv_report(out)[2]]

        reference = residuals(1.0)
        assert all(0.0 < value < 1e-15 for value in reference)
        for hbar in (1e-150, 1e150):
            for value, unit in zip(residuals(hbar), reference):
                assert unit / 10.0 <= value <= 10.0 * unit

    def test_small_kinetic_scale_above_the_floor_matches_closed_form(self, tmp_path):
        # hbar = 1e-150 puts 4 hbar^2 / (2 m h^2) at 8.8e-298, above the
        # floor of about 1.1e-300: the levels follow the three-point box
        # formula and each reads below the guard.
        out = tmp_path / "levels.csv"
        config = write_config(tmp_path, {"n": 20, "count": 3, "units": {"hbar": 1e-150}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("solve1d", "--config", config, "--output", out) == 0
        metadata, _, rows = read_csv_report(out)
        k = np.arange(1, 4)
        expected = (1e-150**2 / 2.0) * 441.0 * (2.0 - 2.0 * np.cos(k * np.pi / 21.0))
        assert np.allclose([float(row[1]) for row in rows], expected, rtol=1e-12, atol=0.0)
        guard = float(metadata["singularity_guard_log10"])
        assert all(float(row[4]) < guard for row in rows)

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

    @pytest.mark.parametrize("n_max", [1, 7, 24, 2])
    @pytest.mark.parametrize(
        "system",
        [
            ZeemanSystem(m1=1.0, m2=1836.15267, b=1.0),
            ZeemanSystem(m1=1.0, m2=1.0, b=2.5),
            ZeemanSystem(m1=1.0, m2=7.5, b=1.0, z=2.0),
            ZeemanSystem(m1=5.0, m2=1.0, b=-0.7, units=Units(hbar=2.5, charge=0.3, light_speed=10.0)),
            ZeemanSystem(m1=1.0, m2=1836.15267, b=0.0),
            ZeemanSystem(m1=1.0, m2=1.0, b=1.0),
            ZeemanSystem(m1=1.7, m2=2.9, b=-3.1),
        ],
        ids=["hydrogen", "positronium-b2.5", "z2", "custom-units", "zero-field", "positronium", "negative-field"],
    )
    def test_rows_match_splitting_table(self, tmp_path, system, n_max):
        # The report and splitting_table both read zeeman's separable terms; neither may drift.
        # n_max = 2 holds both block edges, l = 0 (one m) and l = n - 1 (every m of n), at n = 2.
        config = {"m1": system.m1, "m2": system.m2, "b": system.b, "z": system.z, "n_max": n_max}
        config["units"] = asdict(system.units)
        out = tmp_path / "table.csv"
        assert run("zeeman", "--config", write_config(tmp_path, config), "--output", out) == 0
        _, *rows = [line for line in out.read_bytes().decode("utf-8").split("\r\n") if line and line[0] != "#"]
        # Each row without its omega_L, m_L and g_L cells.
        expected = splitting_table(system, n_max)
        assert [row.rsplit(",", 3)[0] for row in rows] == [
            f"{row.n},{row.l},{row.m},{row.branch},{row.energy!r},{row.shift!r}" for row in expected
        ]

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
    @pytest.mark.parametrize(
        "command, config, flag, value, key",
        [
            pytest.param("verify", {"seed": 5, "trials": 2}, "--seed", 9, "seed", id="verify-seed"),
            pytest.param("verify", {"seed": 5, "trials": 2}, "--trials", 3, "trials", id="verify-trials"),
            pytest.param(
                "solve1d", {"potential": "box", "n": 20}, "--preset", "harmonic", "potential", id="solve1d-preset"
            ),
            pytest.param("solve1d", {"potential": "box", "n": 20}, "--n", 30, "n", id="solve1d-n"),
            pytest.param(
                "zeeman",
                {"preset": "hydrogen", "b": 2.0, "n_max": 1},
                "--preset",
                "positronium",
                "preset",
                id="zeeman-preset",
            ),
            pytest.param("zeeman", {"preset": "hydrogen", "b": 2.0, "n_max": 1}, "--b", 0.5, "b", id="zeeman-b"),
            pytest.param(
                "zeeman", {"preset": "hydrogen", "b": 2.0, "n_max": 2}, "--n-max", 1, "n_max", id="zeeman-n-max"
            ),
            pytest.param("spin-report", {"particles": 3}, "--particles", 1, "particles", id="spin-report-particles"),
        ],
    )
    def test_flags_override_config(self, tmp_path, command, config, flag, value, key):
        # Each flag sets the config key of the same name and wins over the
        # file; the file's other keys still apply.
        path = write_config(tmp_path, config)
        out = tmp_path / ("report.json" if command in ("verify", "spin-report") else "report.csv")
        assert run(command, "--config", path, flag, value, "--output", out) in (0, 1)
        metadata = report_metadata(out)
        assert metadata[key] == str(value)
        for other, setting in config.items():
            if other != key:
                assert metadata[other] == str(setting)

    @pytest.mark.parametrize(
        "command, config, fragment",
        [
            # Values the model rejects after the config checks passed.
            ("zeeman", {"m1": 1e200, "m2": 1e200}, "reduced mass"),
            ("solve1d", {"n": 10, "x_min": 0.0, "x_max": 1e-310}, "finite"),
            ("solve1d", {"n": 10, "mass": 1e-320}, "finite"),
            ("verify", {"units": {"light_speed": 1e-300}}, "finite"),
            # Zeeman tables whose rows would not be finite.
            ("zeeman", {"preset": "hydrogen", "b": 1e10, "units": {"light_speed": 1e-300}}, "omega_L = inf"),
            ("zeeman", {"m1": 1e-320, "m2": 2.0, "b": 0.0}, "omega_L = nan"),
            ("zeeman", {"preset": "hydrogen", "units": {"hbar": 1e-200}}, "underflows"),
            # A pencil whose kinetic scale overflows names the settings in it.
            ("solve1d", {"n": 10, "mass": 1e-320}, "mass = 1e-320, hbar = 1.0"),
            ("solve1d", {"n": 10, "x_min": 0, "x_max": 1e-310}, "grid span [0.0, 1e-310]"),
            # A unit system whose (q/c)^2 or hbar^2 overflows is named before any draw.
            ("verify", {"units": {"light_speed": 1e-300}}, "units.light_speed = 1e-300"),
            ("verify", {"units": {"charge": 1e200}}, "units.charge = 1e+200"),
            ("verify", {"units": {"hbar": 1e200}}, "units.hbar = 1e+200"),
            # (q/c)^2 is finite here, but the 8th power of the draws' energy defect is not.
            ("verify", {"units": {"light_speed": 1e-150}}, "units.light_speed = 1e-150"),
            # The draws' |q|/c reaches 1.5 units.charge / units.light_speed.
            ("verify", {"units": {"charge": 1e10, "light_speed": 1e-10}}, "units.charge = 10000000000.0"),
            # No formula reads a mass unit, so none is accepted.
            ("verify", {"units": {"electron_mass": 1.0}}, "unknown units key(s): 'electron_mass'"),
            # A trial count above MAX_TRIALS is rejected before any draw.
            ("verify", {"trials": 1_000_001}, "trials must be <= 1,000,000, got 1,000,001"),
            # A kinetic scale below 2 / (guard * max float) would certify levels it cannot resolve.
            ("solve1d", {"n": 20, "count": 3, "units": {"hbar": 1e-200}}, "underflows"),
            (
                "solve1d",
                {"n": 20, "count": 3, "units": {"hbar": 1e-160}},
                "underflows below 1.1125369292536009e-300 for mass = 1.0, hbar = 1e-160 and the grid span [0.0, 1.0]",
            ),
            # Powers that Python floats raise OverflowError for, rather than return inf.
            ("zeeman", {"preset": "hydrogen", "units": {"charge": 1e100}}, "overflows at mu"),
            ("zeeman", {"preset": "hydrogen", "units": {"hbar": 1e200}}, "n = 1 in Units(hbar=1e+200"),
            ("zeeman", {"b": 1e300, "n_max": 1, "units": {"charge": 1e80}}, "charge=1e+80"),
            ("zeeman", {"preset": "hydrogen", "z": 1e200}, "z = 1e+200"),
        ],
    )
    def test_rejected_values_exit_2_without_report(self, tmp_path, capsys, command, config, fragment):
        path = write_config(tmp_path, config)
        out = tmp_path / "report.txt"
        trials = ("--trials", 2) if command == "verify" and "trials" not in config else ()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(command, "--config", path, *trials, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

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
