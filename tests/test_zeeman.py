"""Tests for the two-particle weak-field Zeeman analysis.

Reference values below are frozen from independent evaluations of the
closed-form expressions (reduced mass, modified Larmor frequency, Bohr
levels) at the standard proton/electron mass ratio.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfactor import (
    Grid1D,
    Polynomial,
    Units,
    ZeemanSystem,
    bohr_energy,
    decompose_masses,
    lamb_g_factor,
    larmor_frequency,
    momentum_transform_residual,
    potential_split_residual,
    radial_eigenvalues,
    random_polynomial,
    splitting_table,
    zeeman,
)

PROTON_ELECTRON_RATIO = 1836.15267

# Frozen oracles, computed independently from the defining formulas.
HYDROGEN_REDUCED_MASS = 0.9994556794237466  # m2 / (1 + m2)
HYDROGEN_LARMOR_MASS = 1.0005449137918319  # m2 / (m2 - 1)
HYDROGEN_OMEGA = 0.003646689155663013  # (1/2c)(1 - 1/m2) at B = 1
HYDROGEN_GROUND_ENERGY = -0.4997278397118733  # -reduced/2

mass_strategy = st.floats(min_value=0.4, max_value=5000.0, allow_nan=False)


def hydrogen(b=1.0):
    return ZeemanSystem(m1=1.0, m2=PROTON_ELECTRON_RATIO, b=b)


def positronium(b=1.0):
    return ZeemanSystem(m1=1.0, m2=1.0, b=b)


class TestZeemanSystem:
    def test_defaults(self):
        system = hydrogen()
        assert system.z == 1.0
        assert system.units.hbar == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"m1": 0.0, "m2": 1.0, "b": 1.0},
        {"m1": 1.0, "m2": -2.0, "b": 1.0},
        {"m1": 1.0, "m2": math.nan, "b": 1.0},
        {"m1": 1.0, "m2": 1.0, "b": math.inf},
        {"m1": 1.0, "m2": 1.0, "b": 1.0, "z": 0.0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ZeemanSystem(**kwargs)


class TestMassDecomposition:
    def test_hydrogen_values(self):
        masses = decompose_masses(hydrogen())
        assert masses.total == pytest.approx(1.0 + PROTON_ELECTRON_RATIO, rel=1e-15)
        assert masses.reduced == pytest.approx(HYDROGEN_REDUCED_MASS, rel=1e-14)
        assert masses.larmor_mass == pytest.approx(HYDROGEN_LARMOR_MASS, rel=1e-14)
        assert masses.mu1 + masses.mu2 == pytest.approx(1.0, rel=1e-15)
        assert not masses.equal_masses

    def test_equal_masses_have_infinite_larmor_mass(self):
        masses = decompose_masses(positronium())
        assert math.isinf(masses.larmor_mass)
        assert masses.equal_masses
        assert masses.reduced == pytest.approx(0.5, rel=1e-15)
        assert masses.mu1 == masses.mu2 == pytest.approx(0.5)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mass_strategy, mass_strategy)
    def test_inverse_mass_identities(self, m1, m2):
        masses = decompose_masses(ZeemanSystem(m1=m1, m2=m2, b=1.0))
        assert 1.0 / masses.reduced == pytest.approx(1.0 / m1 + 1.0 / m2, rel=1e-12)
        assert masses.reduced <= min(m1, m2)
        assert masses.mu1 * masses.total == pytest.approx(m1, rel=1e-14)
        if m1 != m2:
            assert 1.0 / masses.larmor_mass == pytest.approx(
                1.0 / m1 - 1.0 / m2, rel=1e-12, abs=1e-15
            )


class TestLarmorFrequency:
    def test_hydrogen_frozen_value(self):
        assert larmor_frequency(hydrogen()) == pytest.approx(HYDROGEN_OMEGA, rel=1e-14)

    def test_matches_inverse_mass_form(self):
        system = ZeemanSystem(m1=0.7, m2=12.5, b=2.3)
        u = system.units
        expected = u.charge * system.b / (2.0 * u.light_speed) * (1.0 / 0.7 - 1.0 / 12.5)
        assert larmor_frequency(system) == pytest.approx(expected, rel=1e-15)

    def test_equal_masses_give_exact_zero(self):
        assert larmor_frequency(positronium()) == 0.0
        assert larmor_frequency(ZeemanSystem(m1=3.7, m2=3.7, b=5.0)) == 0.0

    def test_heavy_partner_limit(self):
        # As m2 grows the frequency approaches the one-particle value
        # e B / (2 m1 c).
        system = ZeemanSystem(m1=1.0, m2=1e12, b=1.0)
        u = system.units
        single = u.charge * system.b / (2.0 * u.light_speed * system.m1)
        assert larmor_frequency(system) == pytest.approx(single, rel=1e-11)

    def test_linear_in_field(self):
        assert larmor_frequency(hydrogen(b=2.0)) == pytest.approx(
            2.0 * larmor_frequency(hydrogen(b=1.0)), rel=1e-15
        )

    def test_sign_flips_when_masses_swap(self):
        forward = larmor_frequency(ZeemanSystem(m1=1.0, m2=4.0, b=1.0))
        backward = larmor_frequency(ZeemanSystem(m1=4.0, m2=1.0, b=1.0))
        assert backward == pytest.approx(-forward, rel=1e-15)


class TestLambGFactor:
    def test_reciprocal_of_larmor_mass(self):
        system = hydrogen()
        masses = decompose_masses(system)
        assert lamb_g_factor(system) == pytest.approx(1.0 / masses.larmor_mass, rel=1e-14)

    def test_equal_masses_give_zero(self):
        assert lamb_g_factor(positronium()) == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mass_strategy, mass_strategy)
    def test_reciprocal_identity_over_mass_pairs(self, m1, m2):
        system = ZeemanSystem(m1=m1, m2=m2, b=1.0)
        masses = decompose_masses(system)
        if masses.equal_masses:
            assert lamb_g_factor(system) == 0.0
        else:
            assert lamb_g_factor(system) == pytest.approx(
                1.0 / masses.larmor_mass, rel=1e-12, abs=1e-15
            )


class TestBohrEnergy:
    def test_ground_state_unit_mass(self):
        assert bohr_energy(1, 1.0, 1.0) == -0.5

    def test_quadratic_level_spacing(self):
        assert bohr_energy(2, 1.0, 1.0) == -0.125
        assert bohr_energy(2, 1.0, 1.0) / bohr_energy(1, 1.0, 1.0) == 0.25

    def test_hydrogen_reduced_ground_state(self):
        mu = decompose_masses(hydrogen()).reduced
        assert bohr_energy(1, mu, 1.0) == pytest.approx(HYDROGEN_GROUND_ENERGY, rel=1e-12)

    def test_scales_with_nuclear_charge_squared(self):
        assert bohr_energy(1, 1.0, 2.0) == pytest.approx(4.0 * bohr_energy(1, 1.0, 1.0))

    def test_numpy_integers_accepted(self):
        assert bohr_energy(np.int64(2), 1.0, 1.0) == -0.125

    @pytest.mark.parametrize("bad_n", [0, -1, 1.5, "2"])
    def test_invalid_principal_number_rejected(self, bad_n):
        with pytest.raises(ValueError, match="principal"):
            bohr_energy(bad_n, 1.0, 1.0)

    def test_invalid_reduced_mass_rejected(self):
        with pytest.raises(ValueError, match="reduced"):
            bohr_energy(1, -1.0, 1.0)


class TestLevelLabel:
    """The (n, l, m, branch) labels of the table obey the quantum-number rules."""

    @staticmethod
    def labels(n_max=4):
        return {(r.n, r.l, r.m, r.branch) for r in splitting_table(hydrogen(), n_max)}

    def test_valid_labels(self):
        labels = self.labels()
        assert (1, 0, 0, 1) in labels
        assert (3, 2, -2, 2) in labels
        for n, l, m, branch in labels:
            assert n >= 1 and 0 <= l < n and abs(m) <= l and branch in (1, 2)

    @pytest.mark.parametrize("args", [
        (0, 0, 0, 1),
        (1, 1, 0, 1),
        (2, 1, 2, 1),
        (2, 1, -2, 2),
        (1, 0, 0, 3),
        (1, 0, 0, 0),
    ])
    def test_invalid_labels_rejected(self, args):
        assert args not in self.labels()


def table_row(system, n, l, m, branch):
    """The row of ``splitting_table`` labelled (n, l, m, branch)."""
    for row in splitting_table(system, n):
        if (row.n, row.l, row.m, row.branch) == (n, l, m, branch):
            return row
    raise LookupError((n, l, m, branch))


class TestLevelShift:
    def test_branch_steps(self):
        system = hydrogen()
        omega = larmor_frequency(system)
        assert table_row(system, 2, 1, 1, 1).shift == pytest.approx(2.0 * omega)
        assert table_row(system, 2, 1, 1, 2).shift == 0.0
        assert table_row(system, 2, 1, -1, 1).shift == 0.0
        assert table_row(system, 2, 1, -1, 2).shift == pytest.approx(-2.0 * omega)
        assert table_row(system, 1, 0, 0, 1).shift == pytest.approx(omega)
        assert table_row(system, 1, 0, 0, 2).shift == pytest.approx(-omega)

    def test_equal_masses_shift_is_plain_zero(self):
        for row in splitting_table(positronium(), 2):
            assert row.shift == 0.0
            assert math.copysign(1.0, row.shift) == 1.0

    def test_zero_field_no_shift(self):
        system = ZeemanSystem(m1=1.0, m2=2.0, b=0.0)
        assert table_row(system, 2, 1, 1, 1).shift == 0.0

    def test_level_includes_shift(self):
        system = hydrogen()
        mu = decompose_masses(system).reduced
        for row in splitting_table(system, 3):
            assert row.energy == bohr_energy(row.n, mu, 1.0) + row.shift


class TestSplittingTable:
    def test_row_count(self):
        # Levels up to n carry sum_n n^2 (n, l, m) triples, two branches
        # each: n_max (n_max + 1) (2 n_max + 1) / 3 rows.
        assert len(splitting_table(hydrogen(), 1)) == 2
        assert len(splitting_table(hydrogen(), 2)) == 10
        assert len(splitting_table(hydrogen(), 3)) == 28

    def test_rows_ordered_by_quantum_numbers(self):
        rows = splitting_table(hydrogen(), 3)
        keys = [(r.n, r.l, r.m, r.branch) for r in rows]
        assert keys == sorted(keys)
        assert keys[0] == (1, 0, 0, 1)
        assert keys[1] == (1, 0, 0, 2)

    def test_rows_match_single_level_routines(self):
        # Each row against its own evaluation of E_n + hbar omega_L (m +- 1).
        systems = (
            hydrogen(),
            positronium(2.5),
            ZeemanSystem(m1=1.0, m2=7.5, b=1.0, z=2.0),
            ZeemanSystem(m1=5.0, m2=1.0, b=-0.7, units=Units(hbar=2.5, charge=0.3, light_speed=10.0)),
        )
        for system in systems:
            mu = decompose_masses(system).reduced
            for row in splitting_table(system, 4):
                step = row.m + 1 if row.branch == 1 else row.m - 1
                shift = system.units.hbar * larmor_frequency(system) * step + 0.0
                assert row.shift == shift
                assert row.energy == bohr_energy(row.n, mu, system.z, system.units) + shift

    def test_one_bohr_energy_per_level(self, monkeypatch):
        calls = []

        def counting(n, mu, z, units):
            calls.append(n)
            return bohr_energy(n, mu, z, units)

        monkeypatch.setattr(zeeman, "bohr_energy", counting)
        assert len(splitting_table(hydrogen(), 7)) == 7 * 8 * 15 // 3
        assert calls == list(range(1, 8))

    def test_equal_masses_leave_degenerate_branches(self):
        rows = splitting_table(positronium(), 2)
        for row in rows:
            assert row.shift == 0.0

    def test_invalid_n_max_rejected(self):
        with pytest.raises(ValueError, match="n_max"):
            splitting_table(hydrogen(), 0)


class TestRadialEigenvalues:
    def test_hydrogen_s_levels(self):
        grid = Grid1D(0.0, 40.0, 1200)
        mu = decompose_masses(hydrogen()).reduced
        values = radial_eigenvalues(0, mu, 1.0, grid)
        assert abs(values[0] - (-mu / 2.0)) / (mu / 2.0) < 2e-3
        assert abs(values[1] - (-mu / 8.0)) / (mu / 8.0) < 2e-3

    def test_p_wave_ground_state(self):
        grid = Grid1D(0.0, 40.0, 1200)
        values = radial_eigenvalues(1, 1.0, 1.0, grid)
        # Lowest l = 1 state is n = 2 at -1/8.
        assert abs(values[0] - (-0.125)) / 0.125 < 2e-3

    def test_values_ascend(self):
        grid = Grid1D(0.0, 30.0, 200)
        values = radial_eigenvalues(0, 1.0, 1.0, grid)
        assert np.all(np.diff(values) > 0)

    def test_grid_requirements(self):
        with pytest.raises(ValueError, match="coarse"):
            radial_eigenvalues(0, 1.0, 1.0, Grid1D(0.0, 10.0, 20))
        with pytest.raises(ValueError, match="r = 0"):
            radial_eigenvalues(0, 1.0, 1.0, Grid1D(1.0, 10.0, 100))
        with pytest.raises(ValueError, match="angular"):
            radial_eigenvalues(-1, 1.0, 1.0, Grid1D(0.0, 10.0, 100))
        with pytest.raises(ValueError, match="reduced"):
            radial_eigenvalues(0, 0.0, 1.0, Grid1D(0.0, 10.0, 100))


class TestCenterOfMassIdentities:
    def test_momentum_split_on_simple_monomial(self):
        # x1^2 y2 exercises both particles' coordinates at once.
        poly = Polynomial(6, {(2, 0, 0, 0, 1, 0): 1.0})
        assert momentum_transform_residual(1.0, PROTON_ELECTRON_RATIO, poly) <= 1e-12

    def test_momentum_split_on_random_polynomials(self, rng):
        for _ in range(5):
            poly = random_polynomial(rng, 6, 3, 6)
            assert momentum_transform_residual(0.8, 1836.0, poly) <= 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(mass_strategy, mass_strategy)
    def test_momentum_split_over_mass_pairs(self, m1, m2):
        poly = Polynomial(6, {(1, 1, 0, 0, 0, 1): 2.0, (0, 0, 2, 1, 0, 0): -0.5})
        assert momentum_transform_residual(m1, m2, poly) <= 1e-12

    def test_momentum_split_arity_validated(self):
        with pytest.raises(ValueError, match="6"):
            momentum_transform_residual(1.0, 2.0, Polynomial(3, {(1, 0, 0): 1.0}))

    def test_momentum_split_keeps_a_nan_gap(self):
        # Only the z2 derivative sees the NaN coefficient; the fold starts
        # at 0.0, where plain max dropped every NaN.
        poly = Polynomial(6, {(1, 0, 0, 0, 0, 0): 1.0, (0, 0, 0, 0, 0, 1): math.nan})
        assert math.isnan(momentum_transform_residual(1.0, 2.0, poly))

    def test_potential_split_keeps_a_nan_gap(self):
        # An infinite m1 makes mu1 NaN, which reaches only the second map.
        assert math.isnan(potential_split_residual(math.inf, 1.0, 1.0))

    def test_potential_split_exact(self):
        assert potential_split_residual(1.0, PROTON_ELECTRON_RATIO, 1.0) <= 1e-15

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(mass_strategy, mass_strategy, st.floats(min_value=-10, max_value=10))
    def test_potential_split_over_mass_pairs(self, m1, m2, b):
        assert potential_split_residual(m1, m2, b) <= 1e-14 * max(abs(b), 1.0)
