"""Factorization matrices: determinant identities and on-shell null spaces."""

import math

import numpy as np
import pytest

from hamfactor.extham import (
    OffShellError,
    ParticleSpec,
    Sample1D,
    SystemSample,
    determinant_report,
    determinant_report_1d,
    energy_defect,
    energy_defect_1d,
    factor_matrix,
    factor_matrix_1d,
    kinetic_block,
    null_basis,
    null_vector_1d,
    random_sample,
    random_sample_1d,
)
from hamfactor import extham, linalg
from hamfactor.linalg import det_lu
from hamfactor.spin import MAX_SITES


def on_shell_sample_1d(mass=1.7, momentum=0.9, potential=-0.4):
    energy = potential + momentum**2 / (2.0 * mass)
    return Sample1D(mass, momentum, potential, energy)


def numerical_nullity(matrix, tol=1e-10):
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(singular_values <= tol * singular_values.max()))


class TestSample1D:
    def test_defect_vanishes_on_shell(self):
        assert energy_defect_1d(on_shell_sample_1d()) == pytest.approx(0.0, abs=1e-15)

    def test_defect_sign_convention(self):
        # Energy above the shell gives a positive defect.
        s = Sample1D(1.0, 0.0, 0.0, 2.5)
        assert energy_defect_1d(s) == 2.5

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError, match="mass"):
            Sample1D(0.0, 1.0, 0.0, 0.0)

    def test_rejects_non_finite_fields(self):
        with pytest.raises(ValueError):
            Sample1D(1.0, math.nan, 0.0, 0.0)


class TestFactorMatrix1D:
    def test_symmetric_layout(self):
        s = Sample1D(2.0, 1.2, 0.3, 0.9)
        g = factor_matrix_1d(s)
        w = 1.2 / math.sqrt(4.0)
        assert g[0, 0] == pytest.approx(0.6)
        assert g[0, 1] == pytest.approx(w)
        assert g[1, 0] == pytest.approx(w)
        assert g[1, 1] == 1.0

    def test_determinant_equals_defect(self, rng):
        for _ in range(100):
            s = random_sample_1d(rng)
            report = determinant_report_1d(s)
            assert report.exponent == 1
            assert report.max_rel_err <= 1e-13

    def test_gap_scaled_by_the_cancelling_terms(self, monkeypatch):
        # E - V = 1 and p^2/2m = 0.5: a gap in the direct 2x2 route is
        # measured against their sum 1.5, not against the defect 0.5.
        s = Sample1D(1.0, 1.0, 0.0, 1.0)
        exact = linalg.det_lu
        monkeypatch.setattr(linalg, "det_lu", lambda m: exact(m) + (3e-14 if np.shape(m) == (2, 2) else 0.0))
        assert determinant_report_1d(s).max_rel_err == pytest.approx(2e-14, rel=1e-6)

    @pytest.mark.parametrize("coeffs", [False, True])
    def test_determinant_off_by_relative_1e_11_fails(self, rng, monkeypatch, coeffs):
        exact = linalg.det_lu
        monkeypatch.setattr(linalg, "det_lu", lambda m: exact(m) * (1.0 + 1e-11))
        worst = 0.0
        for _ in range(100):
            s = random_sample_1d(rng)
            pair = (0.7, 1.0 / (2.0 * s.mass * 0.7)) if coeffs else None
            worst = linalg.worse(worst, determinant_report_1d(s, pair).max_rel_err)
        assert worst > 50 * 1e-13

    def test_non_symmetric_coefficients(self, rng):
        for _ in range(50):
            s = random_sample_1d(rng)
            a = float(rng.uniform(0.2, 3.0))
            report = determinant_report_1d(s, coeffs=(a, 1.0 / (2.0 * s.mass * a)))
            assert report.max_rel_err <= 1e-12

    def test_coefficients_must_multiply_to_half_inverse_mass(self):
        s = Sample1D(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="a\\*b"):
            factor_matrix_1d(s, coeffs=(1.0, 1.0))

    def test_null_vector_on_shell(self, rng):
        for _ in range(50):
            s = random_sample_1d(rng, on_shell=True)
            g = factor_matrix_1d(s)
            v = null_vector_1d(s)
            scale = max(np.abs(g).max() * np.abs(v).max(), 1.0)
            assert np.abs(g @ v).max() <= 1e-12 * scale

    def test_off_shell_rejected(self):
        s = Sample1D(1.0, 1.0, 0.0, 5.0)
        with pytest.raises(OffShellError, match="off shell"):
            null_vector_1d(s)


class TestSystemSample:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="momenta"):
            SystemSample(
                (ParticleSpec(1.0, 0.0),),
                np.zeros((2, 3)),
                np.zeros((1, 3)),
                0.0,
                1.0,
            )

    def test_requires_particles(self):
        with pytest.raises(ValueError, match="at least one"):
            SystemSample((), np.zeros((0, 3)), np.zeros((0, 3)), 0.0, 1.0)

    def test_kinetic_momentum_couples_charge(self):
        sample = SystemSample(
            (ParticleSpec(1.0, 2.0),),
            np.array([[3.0, 0.0, 0.0]]),
            np.array([[1.0, 0.0, 0.0]]),
            0.0,
            1.0,
            light_speed=4.0,
        )
        assert sample.kinetic_momentum(1) == pytest.approx([2.5, 0.0, 0.0])

    def test_on_shell_sampling_pins_energy(self, rng):
        for n in (1, 2, 3):
            s = random_sample(rng, n, on_shell=True)
            assert abs(energy_defect(s)) <= 1e-12

    def test_equality_is_identity_and_hashable(self, rng):
        # Array fields would make field-wise == raise and hash fail.
        a, b = random_sample(rng, 2), random_sample(rng, 2)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, a, b}) == 2 and b in {b}


class TestFactorMatrix:
    def test_dimensions_and_hermiticity(self, rng):
        for n in (1, 2, 3):
            s = random_sample(rng, n)
            g = factor_matrix(s)
            d = 2**n
            assert g.shape == (d * (n + 1), d * (n + 1))
            assert np.abs(g - g.conj().T).max() == 0

    def test_zero_momentum_block_structure(self):
        sample = SystemSample(
            (ParticleSpec(0.5, 0.0),),
            np.zeros((1, 3)),
            np.zeros((1, 3)),
            0.0,
            0.75,
        )
        g = factor_matrix(sample)
        assert np.array_equal(g[:2, :2], 0.75 * np.eye(2))
        assert np.array_equal(g[2:, 2:], np.eye(2))
        assert np.abs(g[:2, 2:]).max() == 0

    def test_kinetic_block_square_is_scalar(self, rng):
        for n in (1, 2, 3):
            s = random_sample(rng, n)
            for j in range(1, n + 1):
                block = kinetic_block(j, s)
                v = s.kinetic_momentum(j)
                scalar = float(v @ v) / (2.0 * s.particles[j - 1].mass)
                residual = np.abs(block @ block - scalar * np.eye(2**n)).max()
                assert residual <= 1e-12 * max(np.abs(block).max() ** 2, 1e-6)

    def test_particle_count_guard(self, rng):
        s = random_sample(rng, MAX_SITES + 1)
        with pytest.raises(ValueError, match="exceeds"):
            factor_matrix(s)

    def test_particle_limit_is_the_spin_site_limit(self, rng):
        # One home for the limit: factor_matrix reads the spin module's.
        assert not hasattr(extham, "MAX_PARTICLES")
        assert extham.MAX_SITES is MAX_SITES == 4
        assert factor_matrix(random_sample(rng, MAX_SITES)).shape == (80, 80)


class TestDeterminantIdentity:
    def test_exponent_records_spinor_dimension(self, rng):
        for n in (1, 2, 3):
            report = determinant_report(random_sample(rng, n))
            assert report.exponent == 2**n

    def test_both_routes_match_defect_power(self, rng):
        for n in (1, 2, 3):
            for _ in range(25):
                s = random_sample(rng, n)
                report = determinant_report(s)
                assert report.max_rel_err <= 1e-9
                assert report.det_direct == pytest.approx(report.defect_power, rel=1e-9)
                assert report.det_schur == pytest.approx(report.defect_power, rel=1e-9)

    def test_cofactor_scale_check_small_system(self, rng):
        # Independent route for N=1: direct 4x4 determinant via LU on a
        # matrix rebuilt entry by entry from the sample.
        s = random_sample(rng, 1)
        g = factor_matrix(s)
        rebuilt = np.array([[g[i, j] for j in range(4)] for i in range(4)])
        assert det_lu(rebuilt) == pytest.approx(energy_defect(s) ** 2, rel=1e-10)

    def test_nan_block_route_reaches_max_rel_err(self, rng, monkeypatch):
        # The block route is the second of the two folded errors, the one
        # plain max dropped when it was NaN.
        monkeypatch.setattr(linalg, "block_det_schur", lambda m, k: complex(math.nan, 0.0))
        assert math.isnan(determinant_report(random_sample(rng, 1)).max_rel_err)
        assert math.isnan(determinant_report_1d(random_sample_1d(rng)).max_rel_err)


class TestNullSpace:
    def test_nullity_is_spinor_dimension(self, rng):
        for n in (1, 2, 3):
            s = random_sample(rng, n, on_shell=True)
            assert numerical_nullity(factor_matrix(s)) == 2**n

    def test_off_shell_matrix_is_nonsingular(self, rng):
        s = random_sample(rng, 2)
        assert abs(energy_defect(s)) > 1e-3  # generic sample
        assert numerical_nullity(factor_matrix(s)) == 0

    def test_constructed_spinors_annihilated(self, rng):
        for n in (1, 2, 3):
            s = random_sample(rng, n, on_shell=True)
            g = factor_matrix(s)
            basis = null_basis(s)
            assert len(basis) == 2**n
            for vector in basis:
                bound = 1e-10 * np.linalg.norm(g) * np.linalg.norm(vector)
                assert np.linalg.norm(g @ vector) <= bound

    def test_constructed_spinors_independent(self, rng):
        s = random_sample(rng, 2, on_shell=True)
        stacked = np.column_stack(null_basis(s))
        assert np.linalg.matrix_rank(stacked) == 4

    def test_null_basis_requires_shell(self, rng):
        s = random_sample(rng, 2)
        with pytest.raises(OffShellError):
            null_basis(s)


class TestRandomSamples:
    def test_deterministic_under_seed(self):
        a = random_sample(np.random.default_rng(7), 2)
        b = random_sample(np.random.default_rng(7), 2)
        assert a.energy == b.energy
        assert np.array_equal(a.momenta, b.momenta)

    def test_off_shell_by_default(self, rng):
        defects = [abs(energy_defect(random_sample(rng, 2))) for _ in range(20)]
        assert max(defects) > 0.1
