"""Dense linear-algebra primitives against independent small-scale oracles."""

import math

import numpy as np
import pytest

from hamfactor.linalg import (
    SingularBlockError,
    as_complex_matrix,
    block_det_schur,
    det_lu,
    hermitian_eigen,
    kron,
    logabsdet_lu,
    logabsdet_tridiagonal,
    null_space,
    schur_factor_check,
)


def det_cofactor(a: np.ndarray) -> complex:
    """Laplace expansion along the first row; exponential but independent."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * det_cofactor(minor)
    return total


def random_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


class TestDetLU:
    def test_known_2x2(self):
        assert det_lu([[2.0, 1.0], [1.0, 1.0]]) == pytest.approx(1.0)

    def test_identity(self):
        assert det_lu(np.eye(5)) == pytest.approx(1.0)

    def test_row_swap_sign(self):
        # Permutation matrices have determinant equal to the permutation sign.
        p = np.eye(4)[[1, 0, 3, 2]]
        assert det_lu(p) == pytest.approx(1.0)
        p = np.eye(3)[[1, 0, 2]]
        assert det_lu(p) == pytest.approx(-1.0)

    def test_matches_cofactor_expansion(self, rng):
        for size in range(1, 7):
            for _ in range(8):
                a = random_complex(rng, size)
                expected = det_cofactor(a)
                assert det_lu(a) == pytest.approx(expected, rel=1e-11)

    def test_singular_matrix_is_zero(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert det_lu(a) == 0

    def test_multiplicativity(self, rng):
        a = random_complex(rng, 5)
        b = random_complex(rng, 5)
        assert det_lu(a @ b) == pytest.approx(det_lu(a) * det_lu(b), rel=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_lu(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            det_lu([[np.inf, 0.0], [0.0, 1.0]])


class TestLogAbsDet:
    def test_matches_det_in_range(self, rng):
        a = random_complex(rng, 6)
        log_abs, phase = logabsdet_lu(a)
        direct = det_lu(a)
        assert abs(phase) == pytest.approx(1.0, rel=1e-12)
        assert math.exp(log_abs) * phase == pytest.approx(direct, rel=1e-10)

    def test_handles_magnitudes_beyond_float_range(self):
        a = np.diag(np.full(500, 10.0))
        log_abs, phase = logabsdet_lu(a)
        assert log_abs == pytest.approx(500 * math.log(10.0), rel=1e-12)
        assert phase == pytest.approx(1.0)

    def test_singular_returns_minus_inf(self):
        log_abs, phase = logabsdet_lu(np.zeros((3, 3)))
        assert math.isinf(log_abs) and log_abs < 0
        assert phase == 0


def tridiagonal(diagonal, offdiagonal) -> np.ndarray:
    return np.diag(diagonal) + np.diag(offdiagonal, 1) + np.diag(offdiagonal, -1)


class TestLogAbsDetTridiagonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 33, 200])
    def test_matches_dense_lu(self, rng, n):
        diagonal = rng.normal(size=n)
        offdiagonal = rng.normal(size=n - 1)
        log_abs, sign = logabsdet_tridiagonal(diagonal, offdiagonal)
        dense_log, phase = logabsdet_lu(tridiagonal(diagonal, offdiagonal))
        assert log_abs == pytest.approx(dense_log, rel=1e-12, abs=1e-12)
        assert sign == pytest.approx(phase, abs=1e-12)

    def test_zero_leading_pivot_forces_row_swap(self):
        # Without the swap the zero pivot would read as a singular matrix.
        log_abs, sign = logabsdet_tridiagonal([0.0, 3.0], [2.0])
        assert log_abs == pytest.approx(math.log(4.0), rel=1e-15)
        assert sign == -1.0

    def test_zero_pivot_mid_elimination_forces_row_swap(self):
        diagonal, offdiagonal = [1.0, 1.0, 2.0], [1.0, 5.0]
        log_abs, sign = logabsdet_tridiagonal(diagonal, offdiagonal)
        assert det_cofactor(tridiagonal(diagonal, offdiagonal)) == pytest.approx(-25.0)
        assert log_abs == pytest.approx(math.log(25.0), rel=1e-15)
        assert sign == -1.0

    @pytest.mark.parametrize(
        "diagonal, offdiagonal",
        [([1.0, 1.0], [1.0]), ([0.0, 0.0, 0.0], [0.0, 0.0]), ([2.0, 0.0, 7.0], [0.0, 0.0])],
    )
    def test_singular_returns_minus_inf(self, diagonal, offdiagonal):
        assert logabsdet_tridiagonal(diagonal, offdiagonal) == (-math.inf, 0.0)

    def test_handles_magnitudes_beyond_float_range(self):
        log_abs, sign = logabsdet_tridiagonal(np.full(500, -10.0), np.full(499, 1e-3))
        dense_log, _ = logabsdet_lu(tridiagonal(np.full(500, -10.0), np.full(499, 1e-3)))
        assert log_abs == pytest.approx(dense_log, rel=1e-12)
        assert log_abs > 1000.0 and sign == 1.0

    def test_empty_matrix(self):
        assert logabsdet_tridiagonal([], []) == (0.0, 1.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="off-diagonal"):
            logabsdet_tridiagonal([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            logabsdet_tridiagonal([1.0, math.nan], [1.0])


class TestKron:
    def test_definition_entrywise(self, rng):
        a = random_complex(rng, 2, 3)
        b = random_complex(rng, 3, 2)
        out = kron(a, b)
        rb, cb = b.shape
        for i in range(2):
            for j in range(3):
                for p in range(rb):
                    for q in range(cb):
                        expected = a[i, j] * b[p, q]
                        assert out[i * rb + p, j * cb + q] == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_mixed_product_rule(self, rng):
        a, b, c, d = (random_complex(rng, 2) for _ in range(4))
        left = kron(a, b) @ kron(c, d)
        right = kron(a @ c, b @ d)
        assert np.abs(left - right).max() <= 1e-13 * np.abs(right).max()

    def test_identity_factor_blocks(self):
        sigma = np.array([[0, 1], [1, 0]], dtype=complex)
        out = kron(np.eye(2), sigma)
        assert np.array_equal(out[:2, :2], sigma)
        assert np.array_equal(out[2:, 2:], sigma)
        assert np.abs(out[:2, 2:]).max() == 0

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="above the configured limit"):
            kron(np.eye(100), np.eye(100), max_dim=512)


class TestBlockDetSchur:
    def test_trivial_2x2(self):
        assert block_det_schur([[2.0, 1.0], [1.0, 1.0]], 1) == pytest.approx(1.0)

    def test_block_diagonal(self, rng):
        a = random_complex(rng, 3)
        d = random_complex(rng, 4)
        m = np.zeros((7, 7), dtype=complex)
        m[:3, :3] = a
        m[3:, 3:] = d
        expected = det_lu(a) * det_lu(d)
        assert block_det_schur(m, 3) == pytest.approx(expected, rel=1e-11)

    def test_matches_lu_on_random_matrices(self, rng):
        for _ in range(60):
            size = int(rng.integers(4, 13))
            split = int(rng.integers(1, size))
            m = random_complex(rng, size)
            direct = det_lu(m)
            assert block_det_schur(m, split) == pytest.approx(direct, rel=1e-10)

    def test_singular_trailing_block_raises(self):
        m = np.eye(4, dtype=complex)
        m[3, 3] = 0.0
        with pytest.raises(SingularBlockError):
            block_det_schur(m, 2)

    def test_ill_conditioned_trailing_block_raises(self):
        m = np.eye(4, dtype=complex)
        m[2, 2] = 1e-15
        with pytest.raises(SingularBlockError, match="condition"):
            block_det_schur(m, 2, cond_limit=1e12)

    def test_invalid_split_rejected(self, rng):
        m = random_complex(rng, 4)
        for split in (0, 4, 5):
            with pytest.raises(ValueError):
                block_det_schur(m, split)


class TestSchurFactorCheck:
    def test_reconstruction_residual_small(self, rng):
        for _ in range(40):
            size = int(rng.integers(4, 13))
            split = int(rng.integers(1, size))
            m = random_complex(rng, size)
            residual = schur_factor_check(m, split)
            assert residual <= 1e-11 * np.abs(m).max()

    def test_exact_on_block_triangular_input(self):
        m = np.array([[2.0, 0.0], [3.0, 4.0]], dtype=complex)
        assert schur_factor_check(m, 1) <= 1e-15


class TestNullSpace:
    def test_nonsingular_matrix_has_empty_basis(self, rng):
        m = random_complex(rng, 5) + 5 * np.eye(5)
        assert null_space(m) == []

    def test_zero_matrix_returns_full_basis(self):
        basis = null_space(np.zeros((3, 4)))
        assert len(basis) == 4
        gram = np.array([[u.conj() @ v for v in basis] for u in basis])
        assert np.abs(gram - np.eye(4)).max() <= 1e-12

    def test_rank_one_matrix(self, rng):
        u = rng.normal(size=6) + 1j * rng.normal(size=6)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        m = np.outer(u, v)
        basis = null_space(m)
        assert len(basis) == 5
        for vec in basis:
            assert np.abs(m @ vec).max() <= 1e-10 * np.abs(m).max()

    def test_constructed_rank_deficiency(self, rng):
        # Stack r independent rows and 4 - r dependent copies: nullity 6 - r.
        for rank in (1, 2, 3):
            rows = random_complex(rng, rank, 6)
            extra = rng.normal(size=(4 - rank, rank)) @ rows
            m = np.vstack([rows, extra])
            basis = null_space(m)
            assert len(basis) == 6 - rank
            stacked = np.column_stack(basis)
            gram = stacked.conj().T @ stacked
            assert np.abs(gram - np.eye(6 - rank)).max() <= 1e-12
            assert np.abs(m @ stacked).max() <= 1e-9 * np.abs(m).max()

    def test_rectangular_wide_matrix(self, rng):
        m = random_complex(rng, 2, 5)
        basis = null_space(m)
        assert len(basis) == 3
        for vec in basis:
            assert np.abs(m @ vec).max() <= 1e-11 * np.abs(m).max()


class TestHermitianEigen:
    def test_analytic_two_by_two(self):
        values, vectors = hermitian_eigen([[1.0, 2.0], [2.0, 1.0]])
        assert values == pytest.approx([-1.0, 3.0])
        residual = np.abs([[1.0, 2.0], [2.0, 1.0]] @ vectors - vectors * values).max()
        assert residual <= 1e-14

    def test_ascending_and_residuals(self, rng):
        a = random_complex(rng, 8)
        h = a + a.conj().T
        values, vectors = hermitian_eigen(h)
        assert np.all(np.diff(values) >= -1e-12)
        residual = np.abs(h @ vectors - vectors * values).max()
        assert residual <= 1e-12 * np.abs(values).max()

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigen([[0.0, 1.0], [0.0, 0.0]])

    def test_real_input_gives_real_path_results(self):
        values, vectors = hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
        assert values == pytest.approx([1.0, 2.0, 3.0])
        assert vectors.dtype == np.complex128


class TestAsComplexMatrix:
    def test_accepts_nested_lists(self):
        out = as_complex_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.complex128
        assert out.shape == (2, 2)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            as_complex_matrix([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])
