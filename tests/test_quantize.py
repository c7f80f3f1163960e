"""Tests for the discrete pencil machinery and exact operator identities."""

import math
import re
import sys
import warnings

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
    Units,
    auxiliary_component,
    coupled_pencil,
    det_lu,
    eliminate_pencil,
    hamiltonian_equivalence_residual,
    kinetic_square_residual,
    pencil_root_distance,
    tridiagonal_eigen,
    weyl_product,
)
from hamfactor import linalg
from hamfactor.linalg import tridiagonal_norm
from hamfactor.quantize import _particle_terms
from hamfactor.spin import MAX_SITES
from reference import logabsdet_tridiagonal, momentum, pencil_log_abs_det, pencil_matrix, random_polynomial


def box_pencil(n, mass=1.0, hbar=1.0):
    grid = Grid1D(0.0, 1.0, n)
    return coupled_pencil(grid, np.zeros(n), mass, hbar)


def momentum_matrix(grid, mass, hbar=1.0):
    """The dense staggered momentum of ``coupled_pencil`` on the grid."""
    return momentum(coupled_pencil(grid, np.zeros(grid.n), mass, hbar))


def box_spectrum(n, mass=1.0, hbar=1.0, width=1.0):
    """Exact eigenvalues of the three-point Dirichlet Laplacian."""
    h = width / (n + 1)
    k = np.arange(1, n + 1)
    return (hbar**2 / (2.0 * mass)) * (2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) / h**2


def harmonic_pencil(n, span=10.0):
    grid = Grid1D(-span, span, n)
    return coupled_pencil(grid, 0.5 * grid.points**2, 1.0), grid


def dense(diagonal, offdiagonal):
    """The symmetric tridiagonal matrix with the given bands, assembled."""
    return np.diag(diagonal) + np.diag(offdiagonal, 1) + np.diag(offdiagonal, -1)


def random_bands(rng, n):
    """Nonuniform real momentum bands of mixed signs."""
    return rng.normal(size=n) * rng.uniform(0.5, 2.0, size=n), rng.normal(size=n) * rng.uniform(0.5, 2.0, size=n)


def smallest_admitted_hbar(grid, mass):
    """The least hbar whose kinetic scale 4 hbar^2 / (2 mass h^2) reaches 2 / (guard * max float)."""
    floor = 2.0 / (PENCIL_SINGULARITY_GUARD * sys.float_info.max)
    denominator = 2.0 * mass * grid.h * grid.h

    def admitted(hbar):
        return 4.0 * hbar * hbar / denominator >= floor

    hbar = math.sqrt(floor * denominator / 4.0)
    while not admitted(hbar):
        hbar = math.nextafter(hbar, math.inf)
    while admitted(math.nextafter(hbar, 0.0)):
        hbar = math.nextafter(hbar, 0.0)
    return hbar


def eigen(pencil, count):
    """The lowest ``count`` eigenvalues of the eliminated operator and their eigenvectors."""
    return tridiagonal_eigen(*eliminate_pencil(pencil), count)


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

    @pytest.mark.parametrize(
        "span, mass, hbar",
        [((0.0, 1.0), 1e-320, 1.0), ((0.0, 1e-310), 1.0, 1.0), ((0.0, 1.0), 1.0, 1e200)],
    )
    def test_overflowing_kinetic_scale_rejected_by_setting(self, span, mass, hbar):
        # hbar^2 / (2 m h^2) overflows: the error names every setting in it,
        # and nothing is computed that would warn first.
        grid = Grid1D(*span, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite") as info:
                coupled_pencil(grid, np.zeros(10), mass, hbar)
        message = str(info.value)
        for text in (f"mass = {mass!r}", f"hbar = {hbar!r}", f"[{span[0]!r}, {span[1]!r}]"):
            assert text in message

    @pytest.mark.parametrize(
        "span, mass, hbar",
        [((0.0, 1.0), 1.0, 1e-200), ((0.0, 1.0), 1.0, 1e-160), ((0.0, 1.0), 1e308, 1.0), ((0.0, 1e152), 1.0, 1.0)],
    )
    def test_underflowing_kinetic_scale_rejected_by_setting(self, span, mass, hbar):
        # 4 hbar^2 / (2 m h^2) below 2 / (guard * max float): the error names
        # every setting in it, and nothing is computed that would warn first.
        grid = Grid1D(*span, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="underflows") as info:
                coupled_pencil(grid, np.zeros(10), mass, hbar)
        message = str(info.value)
        for text in (f"mass = {mass!r}", f"hbar = {hbar!r}", f"[{span[0]!r}, {span[1]!r}]", "n = 10", f"h = {grid.h!r}"):
            assert text in message

    @pytest.mark.parametrize("span, mass", [((0.0, 1.0), 1.0), ((-3.0, 5.0), 0.7)])
    def test_floor_sits_between_two_adjacent_hbar(self, span, mass):
        grid = Grid1D(*span, 20)
        hbar = smallest_admitted_hbar(grid, mass)
        coupled_pencil(grid, np.zeros(20), mass, hbar)
        with pytest.raises(ValueError, match="underflows"):
            coupled_pencil(grid, np.zeros(20), mass, math.nextafter(hbar, 0.0))

    def test_smallest_admitted_scale_still_separates_levels(self):
        # At the floor every band square is still a normal float, and the
        # root distance reads each level below the guard and each midpoint above it.
        grid = Grid1D(0.0, 1.0, 20)
        pencil = coupled_pencil(grid, np.zeros(20), 1.0, smallest_admitted_hbar(grid, 1.0))
        assert np.all(pencil.diagonal**2 >= sys.float_info.min)
        spectrum, _ = eigen(pencil, 20)
        for value in spectrum:
            assert pencil_root_distance(pencil, float(value)) < PENCIL_SINGULARITY_GUARD
        for left, right in zip(spectrum[:-1], spectrum[1:]):
            assert pencil_root_distance(pencil, float(0.5 * (left + right))) > PENCIL_SINGULARITY_GUARD


class TestPencil1D:
    def test_block_layout(self):
        pencil = box_pencil(4)
        g = pencil_matrix(pencil, 3.0)
        n = pencil.n
        assert g.shape == (pencil.size, pencil.size)
        assert np.allclose(g[:n, :n], 3.0 * np.eye(n))
        assert np.allclose(g[n:, n:], np.eye(pencil.size - n))
        assert np.allclose(g[n:, :n], momentum(pencil))
        assert np.allclose(g[:n, n:], momentum(pencil).conj().T)

    def test_matrix_is_hermitian(self, rng):
        grid = Grid1D(-1.0, 2.0, 9)
        pencil = coupled_pencil(grid, rng.normal(size=9), 1.3)
        g = pencil_matrix(pencil, 0.7)
        assert np.allclose(g, g.conj().T, rtol=0, atol=0)

    def test_potential_enters_diagonal(self):
        grid = Grid1D(0.0, 1.0, 3)
        pencil = coupled_pencil(grid, [5.0, 6.0, 7.0], 1.0)
        g = pencil_matrix(pencil, 10.0)
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
            Pencil1D(np.ones(4), [1.0, 1.0, -math.inf, 1.0], np.zeros(4))

    @pytest.mark.parametrize("part", [0, 1, 2])
    def test_complex_data_rejected(self, part):
        # M = -i D is stored by the real bands of D; a complex entry, even with
        # a zero imaginary part, is a gauge the pencil does not keep.
        data = [np.ones(4), -np.ones(4), np.zeros(4)]
        data[part] = data[part] + 0j
        with pytest.raises(ValueError, match="real"):
            Pencil1D(*data)

    def test_bands_are_real(self, rng):
        pencil = coupled_pencil(Grid1D(-1.0, 2.0, 9), rng.normal(size=9), 1.3, hbar=0.6)
        assert pencil.diagonal.dtype == pencil.subdiagonal.dtype == np.float64
        assert np.all(pencil.diagonal > 0.0) and np.array_equal(pencil.subdiagonal, -pencil.diagonal)
        assert all(part.dtype == np.float64 for part in eliminate_pencil(pencil))


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
        spectrum = np.linalg.eigvalsh(dense(*eliminate_pencil(pencil)))
        # Mid-gaps only: the symmetric well's top levels come in exactly
        # degenerate pairs, whose midpoint is itself a root.
        gaps = np.flatnonzero(np.diff(spectrum) > 1e-6 * np.abs(spectrum).max())
        for k in gaps[[0, len(gaps) // 2, -1]]:
            energy = 0.5 * (spectrum[k] + spectrum[k + 1])
            g = pencil_matrix(pencil, energy)
            t = interleaved(g, n)
            # Exactly tridiagonal in this order, with diagonal 1, E - V_0, 1, ...
            assert np.array_equal(t, np.triu(np.tril(t, 1), -1))
            assert np.array_equal(np.diag(t)[0::2], np.ones(n + 1))
            assert np.array_equal(np.diag(t)[1::2], energy - pencil.potential)
            rate = np.zeros(2 * n + 1)
            rate[1::2] = 1.0
            log_abs, sign, slope = logabsdet_tridiagonal(np.diag(t).real, np.abs(np.diag(t, 1)), rate)
            phase, dense_log = np.linalg.slogdet(g)
            assert abs(log_abs - dense_log) <= 1e-9 * max(1.0, abs(dense_log))
            assert sign == pytest.approx(phase, abs=1e-9)
            # det G(E) = det(E - H), so its log-derivative is sum 1 / (E - lambda).
            # Each eigenvalue is known to a rounding share of |T|, which moves
            # its term by that share times |T| / (E - lambda)^2.
            sensitivity = np.abs(spectrum).max() * np.sum((energy - spectrum) ** -2.0)
            assert abs(slope - np.sum(1.0 / (energy - spectrum))) <= 1e-12 * sensitivity
            assert pencil.log_abs_det(energy) == (log_abs, slope)

    @pytest.mark.parametrize("kind", ["box", "harmonic", "table"])
    def test_slope_matches_finite_difference(self, rng, kind):
        pencil = sample_pencil(kind, 33, rng)
        spectrum = np.linalg.eigvalsh(dense(*eliminate_pencil(pencil)))
        step = 1e-6 * np.abs(spectrum).max()
        for k in (0, 5, 20):
            energy = 0.5 * (spectrum[k] + spectrum[k + 1])
            upper, lower = pencil.log_abs_det(energy + step)[0], pencil.log_abs_det(energy - step)[0]
            assert pencil.log_abs_det(energy)[1] == pytest.approx((upper - lower) / (2.0 * step), rel=1e-6)

    @pytest.mark.parametrize("kind", ["box", "harmonic", "table"])
    @pytest.mark.parametrize("n", [3, 33, 112, 200])
    def test_elimination_is_bit_equal_to_dense_product(self, rng, kind, n):
        pencil = sample_pencil(kind, n, rng)
        m = momentum(pencil)
        product = m.conj().T @ m + np.diag(pencil.potential.astype(np.complex128))
        diagonal, offdiagonal = eliminate_pencil(pencil)
        assert diagonal.dtype == offdiagonal.dtype == np.float64
        assert np.array_equal(dense(diagonal, offdiagonal), product)

    def test_general_bidiagonal_momentum_uses_bands(self, rng):
        n = 7
        a, b = random_bands(rng, n)
        v = rng.normal(size=n)
        pencil = Pencil1D(a, b, v)
        # The dense oracle M = -i D, assembled here independently of the pencil.
        m = np.zeros((n + 1, n), dtype=np.complex128)
        m[:n] += np.diag(-1j * a)
        m[1:] += np.diag(-1j * b)
        assert np.array_equal(momentum(pencil), m)
        assert np.allclose(dense(*eliminate_pencil(pencil)), m.conj().T @ m + np.diag(v), rtol=1e-14, atol=1e-14)
        psi1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(auxiliary_component(pencil, psi1), -(m @ psi1), rtol=1e-14, atol=1e-14)
        for energy in (-3.0, 0.4, 9.0):
            dense_log = np.linalg.slogdet(pencil_matrix(pencil, energy))[1]
            assert pencil.log_abs_det(energy)[0] == pytest.approx(dense_log, rel=1e-12, abs=1e-12)
            assert pencil.log_abs_det(energy) == pencil_log_abs_det(pencil, energy)

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_momentum_phases_are_a_gauge(self, rng, n):
        # A complex-phase bidiagonal M and the real D = (|a|, -|b|) differ by
        # a diagonal unitary change of basis: their eliminated spectra and
        # log|det G(E)| agree, which is why the pencil keeps only real bands.
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n)
        m = np.zeros((n + 1, n), dtype=np.complex128)
        m[:n] += np.diag(a)
        m[1:] += np.diag(b)
        pencil = Pencil1D(np.abs(a), -np.abs(b), v)
        complex_t = m.conj().T @ m + np.diag(v)
        real_t = dense(*eliminate_pencil(pencil))
        norm = np.abs(real_t).sum(axis=0).max()
        assert np.abs(np.linalg.eigvalsh(complex_t) - np.linalg.eigvalsh(real_t)).max() <= 1e-13 * norm
        for energy in rng.uniform(-2.0 * norm, 2.0 * norm, size=5):
            g = np.block([[np.diag(energy - v), m.conj().T], [m, np.eye(n + 1)]])
            want = np.linalg.slogdet(g)[1]
            assert abs(np.linalg.slogdet(pencil_matrix(pencil, energy))[1] - want) <= 1e-12 * max(1.0, abs(want))


def assert_matches_reference(pencil, energies):
    """``log_abs_det`` equals the reference elimination exactly, NaN wherever the reference reads NaN."""
    for energy in map(float, energies):
        got, want = pencil.log_abs_det(energy), pencil_log_abs_det(pencil, energy)
        for value, expected in zip(got, want):
            assert value == expected or (math.isnan(expected) and math.isnan(value)), (energy, got, want)


class TestPencilElimination:
    """``Pencil1D.log_abs_det`` repeats the reference elimination bit for bit, and its behaviour."""

    @pytest.mark.parametrize("kind", ["box", "harmonic", "table"])
    @pytest.mark.parametrize("n", [3, 33, 112, 200])
    def test_bit_equal_to_reference(self, rng, kind, n):
        pencil = sample_pencil(kind, n, rng)
        spectrum = np.linalg.eigvalsh(dense(*eliminate_pencil(pencil)))
        scale = np.abs(spectrum).max()
        random = rng.uniform(-0.5 * scale, 1.5 * scale, size=10)
        assert_matches_reference(pencil, [*spectrum, *0.5 * (spectrum[:-1] + spectrum[1:]), *random])

    def test_exactly_singular_pencil(self):
        # M_00 = M_10 = 0 leaves psi1_0 coupled to nothing, so G(V_0) has a zero column.
        pencil = Pencil1D([0.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.5, 0.0, 0.0])
        assert pencil.log_abs_det(0.5) == (-math.inf, math.inf) == pencil_log_abs_det(pencil, 0.5)

    def test_tiny_hbar_box_keeps_nan_slope(self):
        # Momentum moduli near 1e-199 square to 0: log|det G| stays finite, but
        # the slope's quotients overflow and cancel to NaN, as in the reference.
        # coupled_pencil rejects hbar = 1e-200, so the box's bands are built here.
        modulus = 1e-200 / math.sqrt(2.0) * (1.0 / Grid1D(0.0, 1.0, 20).h)
        pencil = Pencil1D(np.full(20, modulus), np.full(20, -modulus), np.zeros(20))
        log_abs, slope = pencil.log_abs_det(0.0)
        assert log_abs == -18312.762790054632 and math.isnan(slope)
        assert_matches_reference(pencil, [0.0])

    def test_empty_pencil(self):
        pencil = Pencil1D(np.zeros(0), np.zeros(0), np.zeros(0))
        assert pencil.size == 1
        assert pencil.log_abs_det(0.7) == (0.0, 0.0) == pencil_log_abs_det(pencil, 0.7)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 33, 200])
    def test_matches_dense_lu(self, rng, n):
        pencil = Pencil1D(*random_bands(rng, n), rng.normal(size=n))
        energy = float(rng.normal())
        log_abs, slope = pencil.log_abs_det(energy)
        g = pencil_matrix(pencil, energy)
        dense_log = np.linalg.slogdet(g)[1]
        assert log_abs == pytest.approx(dense_log, rel=1e-12, abs=1e-12)
        # d/dE log|det G(E)| = trace(G^-1 dG/dE), and dG/dE is the identity on the psi1 block.
        assert slope == pytest.approx(np.trace(np.linalg.inv(g)[:n, :n]).real, rel=1e-9, abs=1e-12)

    def test_zero_pivot_mid_elimination_forces_row_swap(self):
        # Rows psi2_0, psi1_0, psi2_1 read [[1, 1/2, 0], [1/2, E - V, 2], [0, 2, 1]].
        # At E - V = 1/4 the second pivot is exactly 0; only the row swap keeps
        # the elimination going.  det G = E - V - 17/4, so the slope is -1/4.
        pencil = Pencil1D([0.5], [2.0], [1.0])
        log_abs, slope = pencil.log_abs_det(1.25)
        assert det_lu(pencil_matrix(pencil, 1.25)) == pytest.approx(-4.0, rel=1e-15)
        assert log_abs == pytest.approx(math.log(4.0), rel=1e-15)
        assert slope == pytest.approx(-0.25, rel=1e-15)

    def test_handles_magnitudes_beyond_float_range(self):
        # 501 rows; det G(-1e4) = det(-1e4 - H) with all 250 levels of H below 4e-6: about 1e1000.
        pencil = Pencil1D(np.full(250, 1e-3), np.full(250, -1e-3), np.zeros(250))
        log_abs, slope = pencil.log_abs_det(-1e4)
        dense_log = np.linalg.slogdet(pencil_matrix(pencil, -1e4))[1]
        assert log_abs == pytest.approx(dense_log, rel=1e-12)
        assert log_abs > 1000.0
        assert slope == pytest.approx(-0.025, rel=1e-6)  # about 250 / -1e4

    def test_rejects_nonfinite_shift(self):
        pencil = box_pencil(5)
        for energy in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                pencil.log_abs_det(energy)
        # A finite energy whose E - V overflows.
        wide = Pencil1D(np.ones(3), np.ones(3), [0.0, -1e308, 0.0])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            wide.log_abs_det(1e308)


class TestEliminate:
    def test_matches_momentum_normal_plus_potential(self, rng):
        grid = Grid1D(0.0, 1.5, 8)
        v = rng.normal(size=8)
        pencil = coupled_pencil(grid, v, 2.2, hbar=0.9)
        reduced = dense(*eliminate_pencil(pencil))
        m = momentum(pencil)
        assert np.allclose(reduced, m.conj().T @ m + np.diag(v), rtol=1e-14)

    def test_reduced_operator_is_hermitian(self, rng):
        # The real bands describe M^H M + V exactly: the dense product of
        # M = -i D is real, with the off-diagonal band on both sides.
        grid = Grid1D(-3.0, 3.0, 11)
        pencil = coupled_pencil(grid, rng.normal(size=11), 0.7)
        diagonal, offdiagonal = eliminate_pencil(pencil)
        m = momentum(pencil)
        product = m.conj().T @ m + np.diag(pencil.potential)
        assert np.array_equal(product.imag, np.zeros((11, 11)))
        assert np.array_equal(np.diag(product), diagonal)
        assert np.array_equal(np.diag(product, 1), offdiagonal)
        assert np.array_equal(np.diag(product, -1), offdiagonal)


class TestPencilDeterminant:
    """det G(E) is the characteristic polynomial of the reduced operator."""

    def test_matches_characteristic_polynomial(self, rng):
        grid = Grid1D(0.0, 1.0, 6)
        pencil = coupled_pencil(grid, rng.normal(size=6), 1.4)
        reduced = dense(*eliminate_pencil(pencil))
        for energy in (-5.0, 0.0, 17.3, 120.0):
            lhs = det_lu(pencil_matrix(pencil, energy))
            rhs = det_lu(energy * np.eye(6) - reduced)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_vanishes_at_eigenvalues(self):
        pencil = box_pencil(5)
        values, _ = eigen(pencil, 5)
        for value in values:
            det = det_lu(pencil_matrix(pencil, float(value)))
            # Compare against the determinant one gap away for scale.
            off = abs(det_lu(pencil_matrix(pencil, float(value) + 15.0)))
            assert abs(det) <= 1e-10 * off


class TestBoxSpectrum:
    def test_discrete_eigenvalues_match_closed_form(self):
        n = 40
        pencil = box_pencil(n, mass=1.6, hbar=1.2)
        values, vectors = eigen(pencil, n)
        expected = box_spectrum(n, mass=1.6, hbar=1.2)
        assert np.allclose(values, expected, rtol=1e-12)
        reduced = dense(*eliminate_pencil(pencil))
        residual = np.abs(reduced @ vectors - vectors * values).max()
        assert residual <= 1e-10 * abs(values[-1])

    def test_ground_state_converges_to_continuum(self):
        pencil = box_pencil(60)
        values, _ = eigen(pencil, 1)
        exact = math.pi**2 / 2.0
        assert abs(values[0] - exact) / exact < 1e-3

    def test_second_order_convergence(self):
        # Doubling the resolution (n -> 2n + 1 keeps the nested grid)
        # divides the ground-state error by about four.
        exact = math.pi**2 / 2.0

        def ground_error(n):
            values, _ = eigen(box_pencil(n), 1)
            return abs(values[0] - exact)

        ratio = ground_error(40) / ground_error(81)
        assert 3.5 <= ratio <= 4.5


class TestEliminatedSpectrum:
    """Eigenpairs of the banded M^H M + V from tridiagonal_eigen, against the assembled matrix."""

    @staticmethod
    def measure(pencil, count):
        diagonal, offdiagonal = eliminate_pencil(pencil)
        t = dense(diagonal, offdiagonal)
        norm = np.abs(t).sum(axis=0).max()
        values, vectors = eigen(pencil, count)
        residual = np.abs(t @ vectors - vectors * values).max() / norm
        orthonormality = np.abs(vectors.conj().T @ vectors - np.eye(count)).max()
        # Both value kernels, run directly on the unsplit moduli, against eigvalsh of T.
        reference = np.linalg.eigvalsh(t)[:count]
        moduli = np.abs(offdiagonal)
        sturm = linalg._sturm_values(diagonal, moduli, count)
        lapack = np.linalg.eigvalsh(linalg._symmetric_tridiagonal(diagonal, moduli))[:count]
        for kernel in (sturm, lapack):
            assert np.abs(kernel - reference).max() <= 1e-13 * norm
        return values, norm, residual, orthonormality

    def test_identical_blocks_split_by_zero_coupling(self, rng):
        # b_(k-1) = 0 zeroes b_(k-1) a_k, and a, b, V repeat with period k, so
        # the bands are two copies of one block: every eigenvalue is double.
        k = 6
        a, b = random_bands(rng, k)
        a, b = np.tile(a, 2), np.tile(np.append(b[:-1], 0.0), 2)
        v = np.tile(np.linspace(-1.0, 2.0, k), 2)
        pencil = Pencil1D(a, b, v)
        diagonal, offdiagonal = eliminate_pencil(pencil)
        assert offdiagonal[k - 1] == 0 and offdiagonal.dtype == np.float64
        values, norm, residual, orthonormality = self.measure(pencil, 2 * k)
        assert np.array_equal(values[0::2], values[1::2])
        assert orthonormality <= 1e-12
        assert residual <= 1e-13

    def test_double_well_near_degenerate_pairs(self):
        grid = Grid1D(-8.0, 8.0, 400)
        pencil = coupled_pencil(grid, 0.05 * (grid.points**2 - 25.0) ** 2, 1.0)
        values, norm, residual, orthonormality = self.measure(pencil, 8)
        # The four lowest pairs tunnel through a barrier of 31.25: each pair
        # is split by far less than rounding of |T|.
        assert np.all(values[1:8:2] - values[0:8:2] <= 1e-13 * norm)
        assert np.all(values[2:8:2] - values[1:7:2] > 1.0)
        assert residual <= 1e-13
        assert orthonormality <= 1e-12


class TestAuxiliaryComponent:
    def test_stacked_eigenvector_nulls_pencil(self):
        pencil = box_pencil(20)
        values, vectors = eigen(pencil, 20)
        for k in (0, 3, 19):
            psi1 = vectors[:, k]
            stacked = np.concatenate([psi1, auxiliary_component(pencil, psi1)])
            g = pencil_matrix(pencil, float(values[k]))
            bound = 1e-10 * np.linalg.norm(g) * np.linalg.norm(stacked)
            assert np.linalg.norm(g @ stacked) <= bound

    def test_definition(self):
        pencil = box_pencil(4)
        psi1 = np.array([1.0, 2.0, -1.0, 0.5])
        assert np.allclose(auxiliary_component(pencil, psi1), -(momentum(pencil) @ psi1))

    def test_wrong_length_rejected(self):
        pencil = box_pencil(4)
        with pytest.raises(ValueError, match="length"):
            auxiliary_component(pencil, np.ones(5))


class TestRootDistance:
    def test_small_at_eigenvalues_large_between(self):
        # Rounding level at the levels, far above it between them; the
        # guard sits in the gap.
        assert 1e-14 < PENCIL_SINGULARITY_GUARD < 1e-6
        pencil = box_pencil(30)
        spectrum, _ = eigen(pencil, 30)
        for value in spectrum:
            assert pencil_root_distance(pencil, float(value)) <= 1e-14
        for left, right in zip(spectrum[:-1], spectrum[1:]):
            mid = 0.5 * (left + right)
            assert pencil_root_distance(pencil, mid) >= 1e-6

    def test_harmonic_oscillator_spectrum(self):
        pencil, _ = harmonic_pencil(80)
        spectrum, _ = eigen(pencil, 11)
        for value in spectrum[:10]:
            assert pencil_root_distance(pencil, float(value)) < PENCIL_SINGULARITY_GUARD
        mid = 0.5 * (spectrum[0] + spectrum[1])
        assert pencil_root_distance(pencil, mid) > PENCIL_SINGULARITY_GUARD

    def test_degenerate_pairs_stay_below_guard(self):
        # Top eigenstates of a symmetric well localize at the two walls
        # and become numerically exact double eigenvalues; the Newton step
        # reads half the distance there, still at rounding level.
        pencil, _ = harmonic_pencil(80)
        spectrum, _ = eigen(pencil, 80)
        assert np.any(np.diff(spectrum) == 0.0)
        for value in spectrum:
            assert pencil_root_distance(pencil, float(value)) <= 1e-14

    @pytest.mark.parametrize("kind", ["box", "harmonic", "table"])
    def test_shifted_level_reads_above_guard(self, rng, kind):
        # An energy off its level by 1e-6 |T|_1 is no root: the guard must see it.
        pencil = sample_pencil(kind, 60, rng)
        norm = tridiagonal_norm(*eliminate_pencil(pencil))
        spectrum, _ = eigen(pencil, 4)
        for value in spectrum:
            assert pencil_root_distance(pencil, float(value)) < PENCIL_SINGULARITY_GUARD
            for shifted in (value - 1e-6 * norm, value + 1e-6 * norm):
                assert pencil_root_distance(pencil, float(shifted)) > PENCIL_SINGULARITY_GUARD


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


def momenta(field, charge=1.0, particle=1, nparticles=1, units=ATOMIC):
    """The covariant momenta pi_0..pi_2 of one particle, as operators over 6N variables."""
    return _particle_terms(field, ParticleSpec(1.0, charge), particle, nparticles, units, 1.0)[1]


class TestOperatorApplication:
    # Operators over 6N variables: the 3N coordinates, then their derivatives.
    def test_momentum_on_monomial(self):
        # p_x x^2 = x^2 p_x + (hbar/i) 2x with hbar = 2: p_x moves past x^2.
        p_x = momenta(FieldConfig((0.0, 0.0, 0.0)), units=Units(hbar=2.0))[0]
        square = Polynomial(6, {(2, 0, 0, 0, 0, 0): 1.0})
        expected = Polynomial(6, {(2, 0, 0, 1, 0, 0): -2.0j, (1, 0, 0, 0, 0, 0): -4.0j})
        assert weyl_product(p_x, square) == expected

    def test_momentum_targets_requested_coordinate(self):
        # Particle 2, axis 1 of two particles differentiates variable 6 + 3 + 1.
        p_y = momenta(FieldConfig((0.0, 0.0, 0.0)), particle=2, nparticles=2)[1]
        assert p_y == Polynomial.variable(12, 10) * -1.0j

    def test_momentum_validation(self):
        field = FieldConfig((0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="site"):
            kinetic_square_residual(field, ParticleSpec(1.0, 1.0), particle=2, nparticles=1)
        with pytest.raises(ValueError, match="site"):
            kinetic_square_residual(field, ParticleSpec(1.0, 1.0), particle=0, nparticles=1)

    def test_covariant_momentum_without_field(self):
        for axis, pi in enumerate(momenta(FieldConfig((0.0, 0.0, 0.0)), charge=1.5)):
            assert pi == Polynomial.variable(6, 3 + axis) * -1.0j

    def test_covariant_momentum_gauge_term(self):
        # Component x of the symmetric gauge for B = (0, 0, b) is -(b/2) y,
        # so -(q/c) A_x = (q b / 2 c) y = 1.0 y for q = 5, b = 4, c = 10.
        units = Units(light_speed=10.0)
        p_x = momenta(FieldConfig((0.0, 0.0, 4.0)), charge=5.0, units=units)[0]
        expected = Polynomial(6, {(0, 0, 0, 1, 0, 0): -1.0j, (0, 1, 0, 0, 0, 0): 1.0})
        assert p_x.max_coeff_diff(expected) <= 1e-15


def landau_field(b):
    coeffs = np.zeros((3, 3))
    coeffs[0, 1] = -b
    return FieldConfig((0.0, 0.0, b), coeffs)


def random_particles(rng, n):
    return [ParticleSpec(float(rng.uniform(0.4, 2.5)), float(rng.uniform(-1.5, 1.5))) for _ in range(n)]


def set_fields(fields, factor):
    """Scale each frozen field's b after construction, leaving its gauge coefficients."""
    for field in fields:
        object.__setattr__(field, "b", tuple(factor * x for x in field.b))


class TestKineticSquare:
    def test_residual_tiny_for_random_spinors(self, rng):
        # The operator identity covers every spinor at once.
        spec = ParticleSpec(mass=1.3, charge=-0.8)
        for _ in range(8):
            field = FieldConfig(tuple(rng.normal(size=3)))
            assert kinetic_square_residual(field, spec) <= 1e-12

    def test_residual_tiny_in_landau_gauge(self, rng):
        spec = ParticleSpec(mass=0.9, charge=1.1)
        assert kinetic_square_residual(landau_field(2.5), spec) <= 1e-12

    def test_residual_tiny_for_second_particle_of_two(self, rng):
        spec = ParticleSpec(mass=2.0, charge=0.6)
        field = FieldConfig((0.3, -0.2, 0.9))
        assert kinetic_square_residual(field, spec, particle=2, nparticles=2) <= 1e-12

    @pytest.mark.parametrize("nparticles", [1, 2, 3, 4])
    def test_every_site_in_both_gauges(self, rng, nparticles):
        spec = random_particles(rng, 1)[0]
        for field in (FieldConfig(tuple(rng.normal(size=3))), landau_field(float(rng.normal()))):
            for site in range(1, nparticles + 1):
                assert kinetic_square_residual(field, spec, site, nparticles) <= 1e-12

    @pytest.mark.parametrize("factor", [-1.0, 1.0 + 1e-10])
    @pytest.mark.parametrize("gauge", ["symmetric", "landau"])
    def test_perturbed_field_fails(self, rng, factor, gauge):
        # sigma . B from a field the gauge does not produce: the check must see it.
        spec = ParticleSpec(mass=1.3, charge=-0.8)
        field = FieldConfig(tuple(rng.normal(size=3))) if gauge == "symmetric" else landau_field(1.7)
        set_fields([field], factor)
        residual = kinetic_square_residual(field, spec)
        assert residual > (100 * 1e-12 if factor == -1.0 else 1e-12)


class TestHamiltonianEquivalence:
    def test_single_particle_with_potential(self, rng):
        particles = [ParticleSpec(mass=1.0, charge=-1.0)]
        fields = [FieldConfig((0.0, 0.0, 1.0))]
        # Harmonic confinement keeps the potential polynomial exact.
        potential = Polynomial(3, {(2, 0, 0): 0.5, (0, 2, 0): 0.5, (0, 0, 2): 0.5})
        residual = hamiltonian_equivalence_residual(particles, fields, potential)
        assert residual <= 1e-12

    def test_two_particles_distinct_fields(self, rng):
        particles = [ParticleSpec(1.0, -1.0), ParticleSpec(1836.0, 1.0)]
        fields = [FieldConfig((0.0, 0.0, 0.7)), FieldConfig((0.1, 0.0, 0.7))]
        residual = hamiltonian_equivalence_residual(particles, fields, None)
        assert residual <= 1e-12

    def test_four_particles(self, rng):
        particles = [
            ParticleSpec(1.0, -1.0),
            ParticleSpec(3.0, 1.0),
            ParticleSpec(0.7, -0.5),
            ParticleSpec(2.2, 0.8),
        ]
        fields = [FieldConfig(tuple(rng.normal(size=3))) for _ in range(4)]
        residual = hamiltonian_equivalence_residual(particles, fields, None)
        assert residual <= 1e-12

    @pytest.mark.parametrize("nparticles", [1, 2, 3, 4])
    def test_landau_gauge_with_potential(self, rng, nparticles):
        particles = random_particles(rng, nparticles)
        fields = [landau_field(float(rng.normal())) for _ in range(nparticles)]
        potential = random_polynomial(rng, 3 * nparticles, 2, 4)
        assert hamiltonian_equivalence_residual(particles, fields, potential) <= 1e-12

    @pytest.mark.parametrize("factor", [-1.0, 1.0 + 1e-10])
    @pytest.mark.parametrize("nparticles", [1, 2, 3, 4])
    def test_perturbed_fields_fail(self, rng, factor, nparticles):
        particles = random_particles(rng, nparticles)
        fields = [FieldConfig(tuple(rng.normal(size=3))) for _ in range(nparticles)]
        potential = random_polynomial(rng, 3 * nparticles, 2, 4)
        set_fields(fields, factor)
        residual = hamiltonian_equivalence_residual(particles, fields, potential)
        assert residual > (100 * 1e-12 if factor == -1.0 else 1e-12)

    def test_particle_count_capped_by_spin_sites(self):
        # The one particle limit is the spin embedding's MAX_SITES.
        particles = [ParticleSpec(1.0, 1.0)] * (MAX_SITES + 1)
        fields = [FieldConfig((0.0, 0.0, 1.0))] * (MAX_SITES + 1)
        with pytest.raises(ValueError, match=re.escape(f"1..{MAX_SITES}, got {MAX_SITES + 1}")):
            hamiltonian_equivalence_residual(particles, fields, None)

    def test_length_mismatch_rejected(self):
        particles = [ParticleSpec(1.0, 1.0)]
        fields = [FieldConfig((0.0, 0.0, 1.0))] * 2
        with pytest.raises(ValueError, match="one"):
            hamiltonian_equivalence_residual(particles, fields, None)
