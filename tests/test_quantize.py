"""Tests for the discrete pencil machinery and exact operator identities."""

import math

import numpy as np
import pytest

from hamfactor import (
    ATOMIC,
    PENCIL_SINGULARITY_GUARD,
    FieldConfig,
    Grid1D,
    ParticleSpec,
    Pencil1D,
    Polynomial,
    PolySpinor,
    Units,
    apply_matrix,
    apply_momentum,
    apply_scalar,
    auxiliary_component,
    coupled_pencil,
    covariant_momentum,
    det_lu,
    eliminate_pencil,
    hamiltonian_equivalence_residual,
    hermitian_eigen,
    kinetic_square_residual,
    momentum_matrix,
    pauli,
    pencil_root_distance,
    random_spinor,
)
from hamfactor.linalg import logabsdet_lu, logabsdet_tridiagonal


def box_pencil(n, mass=1.0, hbar=1.0):
    grid = Grid1D(0.0, 1.0, n)
    return coupled_pencil(grid, np.zeros(n), mass, hbar)


def box_spectrum(n, mass=1.0, hbar=1.0, width=1.0):
    """Exact eigenvalues of the three-point Dirichlet Laplacian."""
    h = width / (n + 1)
    k = np.arange(1, n + 1)
    return (hbar**2 / (2.0 * mass)) * (2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) / h**2


def harmonic_pencil(n, span=10.0):
    grid = Grid1D(-span, span, n)
    return coupled_pencil(grid, 0.5 * grid.points**2, 1.0), grid


class TestGrid1D:
    def test_spacing_and_points(self):
        grid = Grid1D(0.0, 1.0, 3)
        assert grid.h == pytest.approx(0.25)
        assert np.allclose(grid.points, [0.25, 0.5, 0.75])

    def test_points_exclude_endpoints(self):
        grid = Grid1D(-2.0, 3.0, 9)
        assert grid.points[0] > -2.0
        assert grid.points[-1] < 3.0
        assert len(grid.points) == 9

    @pytest.mark.parametrize("bad", [2, 1, 0, -4])
    def test_too_few_points_rejected(self, bad):
        with pytest.raises(ValueError, match="at least 3"):
            Grid1D(0.0, 1.0, bad)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            Grid1D(1.0, 0.0, 5)

    def test_nonfinite_endpoint_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Grid1D(0.0, math.inf, 5)


class TestMomentumMatrix:
    def test_staggered_shape(self):
        grid = Grid1D(0.0, 1.0, 7)
        assert momentum_matrix(grid, 1.0).shape == (8, 7)

    def test_explicit_three_point_matrix(self):
        # n = 3 on the unit interval: h = 1/4, forward differences onto
        # the four cell edges with both boundary values pinned to zero.
        grid = Grid1D(0.0, 1.0, 3)
        d = momentum_matrix(grid, 1.0)
        scale = -4j / math.sqrt(2.0)
        expected = scale * np.array(
            [
                [1.0, 0.0, 0.0],
                [-1.0, 1.0, 0.0],
                [0.0, -1.0, 1.0],
                [0.0, 0.0, -1.0],
            ]
        )
        assert np.allclose(d, expected, rtol=0, atol=1e-15)

    def test_normal_square_is_dirichlet_laplacian(self):
        grid = Grid1D(0.0, 2.0, 12)
        mass, hbar = 1.7, 0.8
        d = momentum_matrix(grid, mass, hbar)
        product = d.conj().T @ d
        lap = 2.0 * np.eye(12) - np.eye(12, k=1) - np.eye(12, k=-1)
        expected = (hbar**2 / (2.0 * mass)) * lap / grid.h**2
        assert np.array_equal(product.imag, np.zeros((12, 12)))
        assert np.allclose(product.real, expected, rtol=1e-13, atol=0)

    def test_mass_scaling(self):
        grid = Grid1D(0.0, 1.0, 5)
        heavy = momentum_matrix(grid, 8.0)
        light = momentum_matrix(grid, 2.0)
        assert np.allclose(light, 2.0 * heavy, rtol=1e-15)

    def test_nonpositive_mass_rejected(self):
        grid = Grid1D(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="mass"):
            momentum_matrix(grid, 0.0)


class TestPencil1D:
    def test_block_layout(self):
        pencil = box_pencil(4)
        g = pencil.matrix(3.0)
        n = pencil.n
        assert g.shape == (pencil.size, pencil.size)
        assert np.allclose(g[:n, :n], 3.0 * np.eye(n))
        assert np.allclose(g[n:, n:], np.eye(pencil.size - n))
        assert np.allclose(g[n:, :n], pencil.momentum)
        assert np.allclose(g[:n, n:], pencil.momentum.conj().T)

    def test_matrix_is_hermitian(self, rng):
        grid = Grid1D(-1.0, 2.0, 9)
        pencil = coupled_pencil(grid, rng.normal(size=9), 1.3)
        g = pencil.matrix(0.7)
        assert np.allclose(g, g.conj().T, rtol=0, atol=0)

    def test_potential_enters_diagonal(self):
        grid = Grid1D(0.0, 1.0, 3)
        pencil = coupled_pencil(grid, [5.0, 6.0, 7.0], 1.0)
        g = pencil.matrix(10.0)
        assert np.allclose(np.diag(g)[:3].real, [5.0, 4.0, 3.0])

    def test_shape_mismatch_rejected(self):
        grid = Grid1D(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="samples"):
            coupled_pencil(grid, [1.0, 2.0], 1.0)
        with pytest.raises(ValueError, match="match"):
            Pencil1D(np.ones(4), np.ones(4), np.ones(3))
        with pytest.raises(ValueError, match="match"):
            Pencil1D(np.ones(4), np.ones(5), np.ones(4))
        with pytest.raises(ValueError, match="match"):
            Pencil1D(np.ones((4, 1)), np.ones(4), np.ones(4))

    def test_equality_is_identity_and_hashable(self):
        # Array fields would make field-wise == raise and hash fail.
        a, b = box_pencil(5), box_pencil(5)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, a, b}) == 2 and b in {b}

    def test_nonfinite_data_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Pencil1D(np.ones(4), np.ones(4), [1.0, math.nan, 0.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            Pencil1D(np.ones(4), [1.0, 1.0, complex(0.0, math.inf), 1.0], np.zeros(4))


def interleaved(g, n):
    """G with rows and columns ordered psi2_0, psi1_0, psi2_1, psi1_1, ..., psi2_n."""
    order = [n + k // 2 if k % 2 == 0 else k // 2 for k in range(2 * n + 1)]
    return g[np.ix_(order, order)]


def sample_pencil(kind, n, rng):
    if kind == "box":
        return box_pencil(n)
    if kind == "harmonic":
        return harmonic_pencil(n)[0]
    return coupled_pencil(Grid1D(-1.0, 2.0, n), rng.normal(scale=50.0, size=n), 0.8, hbar=1.3)


class TestBandedPencil:
    @pytest.mark.parametrize("kind", ["box", "harmonic", "table"])
    @pytest.mark.parametrize("n", [3, 4, 33, 200])
    def test_determinant_matches_dense_lu_on_permuted_pencil(self, rng, kind, n):
        pencil = sample_pencil(kind, n, rng)
        spectrum = np.linalg.eigvalsh(eliminate_pencil(pencil))
        # Mid-gaps only: the symmetric well's top levels come in exactly
        # degenerate pairs, whose midpoint is itself a root.
        gaps = np.flatnonzero(np.diff(spectrum) > 1e-6 * np.abs(spectrum).max())
        for k in gaps[[0, len(gaps) // 2, -1]]:
            energy = 0.5 * (spectrum[k] + spectrum[k + 1])
            g = pencil.matrix(energy)
            t = interleaved(g, n)
            # Exactly tridiagonal in this order, with diagonal 1, E - V_0, 1, ...
            assert np.array_equal(t, np.triu(np.tril(t, 1), -1))
            assert np.array_equal(np.diag(t)[0::2], np.ones(n + 1))
            assert np.array_equal(np.diag(t)[1::2], energy - pencil.potential)
            log_abs, sign = logabsdet_tridiagonal(np.diag(t).real, np.abs(np.diag(t, 1)))
            dense_log, phase = logabsdet_lu(g)
            assert abs(log_abs - dense_log) <= 1e-9 * max(1.0, abs(dense_log))
            assert sign == pytest.approx(phase, abs=1e-9)
            assert pencil.log_abs_det(energy) == log_abs

    @pytest.mark.parametrize("kind", ["box", "harmonic", "table"])
    @pytest.mark.parametrize("n", [3, 33, 112, 200])
    def test_elimination_is_bit_equal_to_dense_product(self, rng, kind, n):
        pencil = sample_pencil(kind, n, rng)
        m = pencil.momentum
        dense = m.conj().T @ m + np.diag(pencil.potential.astype(np.complex128))
        assert np.array_equal(eliminate_pencil(pencil), dense)

    def test_general_bidiagonal_momentum_uses_bands(self, rng):
        n = 7
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n)
        pencil = Pencil1D(a, b, v)
        # The dense oracle, assembled here independently of the pencil.
        m = np.zeros((n + 1, n), dtype=np.complex128)
        m[:n] += np.diag(a)
        m[1:] += np.diag(b)
        assert np.array_equal(pencil.momentum, m)
        assert np.allclose(eliminate_pencil(pencil), m.conj().T @ m + np.diag(v), rtol=1e-14, atol=1e-14)
        psi1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(auxiliary_component(pencil, psi1), -(m @ psi1), rtol=1e-14, atol=1e-14)
        for energy in (-3.0, 0.4, 9.0):
            dense_log, _ = logabsdet_lu(pencil.matrix(energy))
            assert pencil.log_abs_det(energy) == pytest.approx(dense_log, rel=1e-12, abs=1e-12)


class TestEliminate:
    def test_matches_momentum_normal_plus_potential(self, rng):
        grid = Grid1D(0.0, 1.5, 8)
        v = rng.normal(size=8)
        pencil = coupled_pencil(grid, v, 2.2, hbar=0.9)
        reduced = eliminate_pencil(pencil)
        m = pencil.momentum
        assert np.allclose(reduced, m.conj().T @ m + np.diag(v), rtol=1e-14)

    def test_reduced_operator_is_hermitian(self, rng):
        grid = Grid1D(-3.0, 3.0, 11)
        pencil = coupled_pencil(grid, rng.normal(size=11), 0.7)
        reduced = eliminate_pencil(pencil)
        assert np.allclose(reduced, reduced.conj().T, rtol=0, atol=0)


class TestPencilDeterminant:
    """det G(E) is the characteristic polynomial of the reduced operator."""

    def test_matches_characteristic_polynomial(self, rng):
        grid = Grid1D(0.0, 1.0, 6)
        pencil = coupled_pencil(grid, rng.normal(size=6), 1.4)
        reduced = eliminate_pencil(pencil)
        for energy in (-5.0, 0.0, 17.3, 120.0):
            lhs = det_lu(pencil.matrix(energy))
            rhs = det_lu(energy * np.eye(6) - reduced)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_vanishes_at_eigenvalues(self):
        pencil = box_pencil(5)
        values, _ = hermitian_eigen(eliminate_pencil(pencil))
        for value in values:
            det = det_lu(pencil.matrix(float(value)))
            # Compare against the determinant one gap away for scale.
            off = abs(det_lu(pencil.matrix(float(value) + 15.0)))
            assert abs(det) <= 1e-10 * off


class TestBoxSpectrum:
    def test_discrete_eigenvalues_match_closed_form(self):
        n = 40
        pencil = box_pencil(n, mass=1.6, hbar=1.2)
        values, vectors = hermitian_eigen(eliminate_pencil(pencil))
        expected = box_spectrum(n, mass=1.6, hbar=1.2)
        assert np.allclose(values, expected, rtol=1e-12)
        reduced = eliminate_pencil(pencil)
        residual = np.abs(reduced @ vectors - vectors * values).max()
        assert residual <= 1e-10 * abs(values[-1])

    def test_ground_state_converges_to_continuum(self):
        pencil = box_pencil(60)
        values, _ = hermitian_eigen(eliminate_pencil(pencil))
        exact = math.pi**2 / 2.0
        assert abs(values[0] - exact) / exact < 1e-3

    def test_second_order_convergence(self):
        # Doubling the resolution (n -> 2n + 1 keeps the nested grid)
        # divides the ground-state error by about four.
        exact = math.pi**2 / 2.0

        def ground_error(n):
            values, _ = hermitian_eigen(eliminate_pencil(box_pencil(n)))
            return abs(values[0] - exact)

        ratio = ground_error(40) / ground_error(81)
        assert 3.5 <= ratio <= 4.5


class TestAuxiliaryComponent:
    def test_stacked_eigenvector_nulls_pencil(self):
        pencil = box_pencil(20)
        values, vectors = hermitian_eigen(eliminate_pencil(pencil))
        for k in (0, 3, 19):
            psi1 = vectors[:, k]
            stacked = np.concatenate([psi1, auxiliary_component(pencil, psi1)])
            g = pencil.matrix(float(values[k]))
            bound = 1e-10 * np.linalg.norm(g) * np.linalg.norm(stacked)
            assert np.linalg.norm(g @ stacked) <= bound

    def test_definition(self):
        pencil = box_pencil(4)
        psi1 = np.array([1.0, 2.0, -1.0, 0.5])
        assert np.allclose(auxiliary_component(pencil, psi1), -(pencil.momentum @ psi1))

    def test_wrong_length_rejected(self):
        pencil = box_pencil(4)
        with pytest.raises(ValueError, match="length"):
            auxiliary_component(pencil, np.ones(5))


class TestRootDistance:
    def test_small_at_eigenvalues_large_between(self):
        pencil = box_pencil(30)
        values, _ = hermitian_eigen(eliminate_pencil(pencil))
        spectrum = np.asarray(values, dtype=float)
        for value in spectrum:
            assert pencil_root_distance(pencil, float(value), spectrum) < PENCIL_SINGULARITY_GUARD
        for left, right in zip(spectrum[:-1], spectrum[1:]):
            mid = 0.5 * (left + right)
            assert pencil_root_distance(pencil, mid, spectrum) > PENCIL_SINGULARITY_GUARD

    def test_harmonic_oscillator_spectrum(self):
        pencil, _ = harmonic_pencil(80)
        values, _ = hermitian_eigen(eliminate_pencil(pencil))
        spectrum = np.asarray(values, dtype=float)
        for value in spectrum[:10]:
            assert pencil_root_distance(pencil, float(value), spectrum) < PENCIL_SINGULARITY_GUARD
        mid = 0.5 * (spectrum[0] + spectrum[1])
        assert pencil_root_distance(pencil, mid, spectrum) > PENCIL_SINGULARITY_GUARD

    def test_degenerate_pairs_stay_below_guard(self):
        # Top eigenstates of a symmetric well localize at the two walls
        # and become numerically exact double eigenvalues; the cluster
        # handling must keep their root distance at rounding level.
        pencil, _ = harmonic_pencil(80)
        values, _ = hermitian_eigen(eliminate_pencil(pencil))
        spectrum = np.asarray(values, dtype=float)
        assert np.any(np.diff(spectrum) == 0.0)
        for value in spectrum:
            assert pencil_root_distance(pencil, float(value), spectrum) < PENCIL_SINGULARITY_GUARD

    def test_spectrum_shape_validated(self):
        pencil = box_pencil(5)
        with pytest.raises(ValueError, match="eigenvalues"):
            pencil_root_distance(pencil, 1.0, np.ones(4))


class TestFieldConfig:
    def test_default_symmetric_gauge(self):
        field = FieldConfig((0.0, 0.0, 2.0))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(field.coeffs, expected)

    def test_landau_gauge_accepted(self):
        coeffs = np.array([[0.0, -3.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        field = FieldConfig((0.0, 0.0, 3.0), coeffs)
        assert np.array_equal(field.coeffs, coeffs)

    def test_curl_mismatch_rejected(self):
        coeffs = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="curl"):
            FieldConfig((0.0, 0.0, 3.0), coeffs)

    def test_nonfinite_field_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FieldConfig((0.0, math.nan, 1.0))

    def test_potential_polynomial_symmetric_gauge(self):
        field = FieldConfig((0.0, 0.0, 2.0))
        # Two particles: six variables; particle 1 components are
        # A_x = -y1 and A_y = +x1, A_z = 0.
        a_x = field.potential_polynomial(0, 1, 2)
        assert a_x.coeffs == {(0, 1, 0, 0, 0, 0): -1.0}
        a_y = field.potential_polynomial(1, 1, 2)
        assert a_y.coeffs == {(1, 0, 0, 0, 0, 0): 1.0}
        assert field.potential_polynomial(2, 1, 2).is_zero

    def test_potential_polynomial_second_particle(self):
        field = FieldConfig((0.0, 0.0, 2.0))
        a_x = field.potential_polynomial(0, 2, 2)
        assert a_x.coeffs == {(0, 0, 0, 0, 1, 0): -1.0}

    def test_potential_polynomial_validation(self):
        field = FieldConfig((0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="axis"):
            field.potential_polynomial(3, 1, 1)
        with pytest.raises(ValueError, match="particle"):
            field.potential_polynomial(0, 2, 1)


class TestOperatorApplication:
    def test_momentum_on_monomial(self):
        # (hbar/i) d/dx applied to x^2 gives -2i hbar x.
        square = Polynomial(3, {(2, 0, 0): 1.0})
        spinor = PolySpinor(1, [square, Polynomial(3)])
        out = apply_momentum(spinor, 1, 0, hbar=2.0)
        expected = Polynomial(3, {(1, 0, 0): -4.0j})
        assert out.components[0].max_coeff_diff(expected) == 0.0
        assert out.components[1].is_zero

    def test_momentum_targets_requested_coordinate(self):
        # Particle 2, axis 1 addresses the fifth of six variables.
        poly = Polynomial(6, {(0, 0, 0, 0, 3, 0): 1.0})
        spinor = PolySpinor(2, [poly, Polynomial(6), Polynomial(6), Polynomial(6)])
        out = apply_momentum(spinor, 2, 1)
        expected = Polynomial(6, {(0, 0, 0, 0, 2, 0): -3.0j})
        assert out.components[0].max_coeff_diff(expected) == 0.0

    def test_momentum_validation(self):
        spinor = PolySpinor.constant(1, [1.0, 0.0])
        with pytest.raises(ValueError, match="particle"):
            apply_momentum(spinor, 2, 0)
        with pytest.raises(ValueError, match="axis"):
            apply_momentum(spinor, 1, 5)

    def test_apply_matrix_swaps_components(self):
        top = Polynomial(3, {(1, 0, 0): 2.0})
        bottom = Polynomial(3, {(0, 0, 1): -1.0})
        spinor = PolySpinor(1, [top, bottom])
        out = apply_matrix(spinor, pauli(1))
        assert out.components[0].max_coeff_diff(bottom) == 0.0
        assert out.components[1].max_coeff_diff(top) == 0.0

    def test_apply_matrix_shape_validated(self):
        spinor = PolySpinor.constant(1, [1.0, 0.0])
        with pytest.raises(ValueError, match="2x2"):
            apply_matrix(spinor, np.eye(4))

    def test_apply_scalar_multiplies_components(self):
        spinor = PolySpinor.constant(1, [1.0, -2.0])
        poly = Polynomial(3, {(0, 1, 0): 3.0})
        out = apply_scalar(spinor, poly)
        assert out.components[0].coeffs == {(0, 1, 0): 3.0}
        assert out.components[1].coeffs == {(0, 1, 0): -6.0}

    def test_covariant_momentum_without_field(self):
        field = FieldConfig((0.0, 0.0, 0.0))
        poly = Polynomial(3, {(1, 1, 0): 1.0})
        spinor = PolySpinor(1, [poly, Polynomial(3)])
        plain = apply_momentum(spinor, 1, 0, ATOMIC.hbar)
        gauged = covariant_momentum(spinor, 1, 0, field, charge=1.5)
        for a, b in zip(gauged.components, plain.components):
            assert a.max_coeff_diff(b) == 0.0

    def test_covariant_momentum_gauge_term(self):
        # On a constant spinor the derivative vanishes and only
        # -(q/c) A survives: component x of the symmetric gauge for
        # B = (0, 0, b) is -(b/2) y, so the result is (q b / 2 c) y.
        units = Units(light_speed=10.0)
        field = FieldConfig((0.0, 0.0, 4.0))
        spinor = PolySpinor.constant(1, [1.0, 0.0])
        out = covariant_momentum(spinor, 1, 0, field, charge=5.0, units=units)
        expected = Polynomial(3, {(0, 1, 0): 1.0})
        assert out.components[0].max_coeff_diff(expected) <= 1e-15


class TestKineticSquare:
    def test_residual_tiny_for_random_spinors(self, rng):
        spec = ParticleSpec(mass=1.3, charge=-0.8)
        for _ in range(8):
            field = FieldConfig(tuple(rng.normal(size=3)))
            spinor = random_spinor(rng, 1, degree=3)
            assert kinetic_square_residual(field, spec, spinor) <= 1e-12

    def test_residual_tiny_in_landau_gauge(self, rng):
        coeffs = np.zeros((3, 3))
        coeffs[0, 1] = -2.5
        field = FieldConfig((0.0, 0.0, 2.5), coeffs)
        spec = ParticleSpec(mass=0.9, charge=1.1)
        spinor = random_spinor(rng, 1, degree=3)
        assert kinetic_square_residual(field, spec, spinor) <= 1e-12

    def test_residual_tiny_for_second_particle_of_two(self, rng):
        spec = ParticleSpec(mass=2.0, charge=0.6)
        field = FieldConfig((0.3, -0.2, 0.9))
        spinor = random_spinor(rng, 2, degree=2, max_terms=5)
        assert kinetic_square_residual(field, spec, spinor, particle=2) <= 1e-12


class TestHamiltonianEquivalence:
    def test_single_particle_with_potential(self, rng):
        particles = [ParticleSpec(mass=1.0, charge=-1.0)]
        fields = [FieldConfig((0.0, 0.0, 1.0))]
        # Harmonic confinement keeps the potential polynomial exact.
        potential = Polynomial(3, {(2, 0, 0): 0.5, (0, 2, 0): 0.5, (0, 0, 2): 0.5})
        spinor = random_spinor(rng, 1, degree=3)
        residual = hamiltonian_equivalence_residual(particles, fields, potential, spinor)
        assert residual <= 1e-12

    def test_two_particles_distinct_fields(self, rng):
        particles = [ParticleSpec(1.0, -1.0), ParticleSpec(1836.0, 1.0)]
        fields = [FieldConfig((0.0, 0.0, 0.7)), FieldConfig((0.1, 0.0, 0.7))]
        spinor = random_spinor(rng, 2, degree=2, max_terms=4)
        residual = hamiltonian_equivalence_residual(particles, fields, None, spinor)
        assert residual <= 1e-12

    def test_particle_count_capped(self):
        particles = [ParticleSpec(1.0, 1.0)] * 4
        fields = [FieldConfig((0.0, 0.0, 1.0))] * 4
        spinor = PolySpinor.constant(4, [0.0] * 16)
        with pytest.raises(ValueError, match="3"):
            hamiltonian_equivalence_residual(particles, fields, None, spinor)

    def test_length_mismatch_rejected(self):
        particles = [ParticleSpec(1.0, 1.0)]
        fields = [FieldConfig((0.0, 0.0, 1.0))] * 2
        spinor = PolySpinor.constant(1, [1.0, 0.0])
        with pytest.raises(ValueError, match="one"):
            hamiltonian_equivalence_residual(particles, fields, None, spinor)


class TestRandomSpinor:
    def test_component_count_and_degree(self, rng):
        spinor = random_spinor(rng, 2, degree=3)
        assert spinor.nparticles == 2
        assert len(spinor.components) == 4
        assert all(c.degree() <= 3 for c in spinor.components)

    def test_seed_determinism(self):
        a = random_spinor(np.random.default_rng(7), 1)
        b = random_spinor(np.random.default_rng(7), 1)
        for x, y in zip(a.components, b.components):
            assert x.coeffs == y.coeffs
