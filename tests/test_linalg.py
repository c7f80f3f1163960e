"""Dense linear-algebra primitives against independent small-scale oracles."""

import math

import numpy as np
import pytest

from hamfactor import linalg
from hamfactor.linalg import (
    SingularBlockError,
    as_complex_matrix,
    block_det_schur,
    det_lu,
    relative_residual,
    schur_factor_check,
    tridiagonal_eigen,
    worse,
)
from reference import logabsdet_tridiagonal


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

    def test_zero_pivot_after_row_swap(self):
        # The first column forces a swap; the second column then has no pivot.
        a = np.array([[0.0, 1.0, 2.0], [3.0, 1.0, 2.0], [0.0, 2.0, 4.0]])
        assert det_lu(a) == 0


class TestLogAbsDet:
    """Dense log-determinants in these tests come from ``np.linalg.slogdet``.

    The package keeps only ``det_lu``, which must still refuse the input a
    log-determinant oracle would be fed wrongly: a non-square or NaN matrix.
    """

    def test_rejects_bad_input_like_det_lu(self):
        for bad in (np.ones((2, 3)), [[1.0, math.nan], [0.0, 1.0]]):
            with pytest.raises(ValueError):
                det_lu(bad)


def tridiagonal(diagonal, offdiagonal) -> np.ndarray:
    return np.diag(diagonal) + np.diag(offdiagonal, 1) + np.diag(offdiagonal, -1)


class TestLogAbsDetTridiagonal:
    """The reference elimination that pins ``Pencil1D.log_abs_det`` bit for bit, against dense LU."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 33, 200])
    def test_matches_dense_lu(self, rng, n):
        diagonal = rng.normal(size=n)
        offdiagonal = rng.normal(size=n - 1)
        rate = rng.normal(size=n)
        log_abs, sign, slope = logabsdet_tridiagonal(diagonal, offdiagonal, rate)
        t = tridiagonal(diagonal, offdiagonal)
        phase, dense_log = np.linalg.slogdet(t)
        assert log_abs == pytest.approx(dense_log, rel=1e-12, abs=1e-12)
        assert sign == pytest.approx(phase, abs=1e-12)
        # d/dt log|det(T + t R)| = trace(T^-1 R).
        assert slope == pytest.approx(np.trace(np.linalg.solve(t, np.diag(rate))), rel=1e-9, abs=1e-12)

    def test_zero_leading_pivot_forces_row_swap(self):
        # Without the swap the zero pivot would read as a singular matrix.
        log_abs, sign, slope = logabsdet_tridiagonal([0.0, 3.0], [2.0], [1.0, 1.0])
        assert log_abs == pytest.approx(math.log(4.0), rel=1e-15)
        assert sign == -1.0
        # det(T + t) = t (3 + t) - 4, so the slope at t = 0 is 3 / -4.
        assert slope == pytest.approx(-0.75, rel=1e-15)

    def test_zero_pivot_mid_elimination_forces_row_swap(self):
        diagonal, offdiagonal = [1.0, 1.0, 2.0], [1.0, 5.0]
        log_abs, sign, _ = logabsdet_tridiagonal(diagonal, offdiagonal, [0.0, 0.0, 1.0])
        assert det_cofactor(tridiagonal(diagonal, offdiagonal)) == pytest.approx(-25.0)
        assert log_abs == pytest.approx(math.log(25.0), rel=1e-15)
        assert sign == -1.0

    @pytest.mark.parametrize(
        "diagonal, offdiagonal",
        [([1.0, 1.0], [1.0]), ([0.0, 0.0, 0.0], [0.0, 0.0]), ([2.0, 0.0, 7.0], [0.0, 0.0])],
    )
    def test_singular_returns_minus_inf(self, diagonal, offdiagonal):
        assert logabsdet_tridiagonal(diagonal, offdiagonal, np.ones(len(diagonal))) == (-math.inf, 0.0, math.inf)

    def test_handles_magnitudes_beyond_float_range(self):
        log_abs, sign, slope = logabsdet_tridiagonal(np.full(500, -10.0), np.full(499, 1e-3), np.ones(500))
        dense_log = np.linalg.slogdet(tridiagonal(np.full(500, -10.0), np.full(499, 1e-3)))[1]
        assert log_abs == pytest.approx(dense_log, rel=1e-12)
        assert log_abs > 1000.0 and sign == 1.0
        assert slope == pytest.approx(-50.0, rel=1e-6)  # about 500 / -10

    def test_empty_matrix(self):
        assert logabsdet_tridiagonal([], [], []) == (0.0, 1.0, 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="off-diagonal"):
            logabsdet_tridiagonal([1.0, 2.0], [1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="rate"):
            logabsdet_tridiagonal([1.0, 2.0], [1.0], [1.0])
        with pytest.raises(ValueError, match="finite"):
            logabsdet_tridiagonal([1.0, math.nan], [1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            logabsdet_tridiagonal([1.0, 2.0], [1.0], [1.0, math.inf])


class TestWorse:
    def test_larger_wins(self):
        assert worse(0.0, 2.0) == 2.0
        assert worse(3.0, 2.0) == 3.0

    def test_nan_wins_on_either_side_and_stays(self):
        assert math.isnan(worse(1.0, math.nan))
        assert math.isnan(worse(math.nan, 1.0))
        assert math.isnan(worse(worse(0.0, math.nan), 5.0))


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
            block_det_schur(m, 2)

    def test_invalid_split_rejected(self, rng):
        m = random_complex(rng, 4)
        for split in (0, 4, 5):
            with pytest.raises(ValueError):
                block_det_schur(m, split)


class TestSchurFactorCheck:
    # The residual is max|M - U S L| divided entry by entry by |U||S||L|.
    TOLERANCE = 1e-11

    def test_reconstruction_residual_small(self, rng):
        for _ in range(40):
            size = int(rng.integers(4, 13))
            split = int(rng.integers(1, size))
            m = random_complex(rng, size)
            residual = schur_factor_check(m, split)
            assert residual <= self.TOLERANCE

    def test_exact_on_block_triangular_input(self):
        m = np.array([[2.0, 0.0], [3.0, 4.0]], dtype=complex)
        assert schur_factor_check(m, 1) <= 1e-15

    def test_large_corners_stay_at_rounding_level(self):
        # D = rank one + 1e-4 I (condition 4.5e4) makes B D^-1 and D^-1 C
        # large, so U S L sums terms far above max|M|.  The gap read against
        # max|M| is 1e-8; against the moduli of those terms it is rounding.
        rng = np.random.default_rng(5)
        m = random_complex(rng, 5)
        m[2:, 2:] = np.outer(rng.normal(size=3), rng.normal(size=3)) + 1e-4 * np.eye(3)
        assert schur_factor_check(m, 2) <= 1e-15

    def test_perturbed_factor_fails(self, rng, monkeypatch):
        # D^-1 off by 100x the tolerance, relative: every factorization fails.
        real = linalg._inverse_checked
        monkeypatch.setattr(linalg, "_inverse_checked", lambda d: real(d) * (1.0 + 100 * self.TOLERANCE))
        for size in (4, 6, 9, 12):
            m = random_complex(rng, size)
            for split in range(1, size):
                assert schur_factor_check(m, split) > 10 * self.TOLERANCE


class TestRelativeResidual:
    def test_entrywise_ratio(self):
        assert relative_residual([3.0, -1.0j], [4.0, 0.5]) == 2.0

    def test_zero_scale_reports_the_gap(self):
        assert relative_residual([0.0, 1e-300], [0.0, 0.0]) == 1e-300

    def test_nan_stays(self):
        assert math.isnan(relative_residual([1.0, math.nan], [1.0, 1.0]))
        assert math.isnan(relative_residual([1.0, 1.0], [1.0, math.nan]))
        with pytest.warns(RuntimeWarning, match="invalid"):
            assert math.isnan(relative_residual([math.inf, 1.0], [math.inf, 1.0]))


def check_eigenpairs(diagonal, offdiagonal, count):
    """Worst value gap to dense eigh, worst residual and orthonormality, each against |T|_1."""
    t = tridiagonal(np.asarray(diagonal, dtype=float), np.asarray(offdiagonal, dtype=float))
    norm = np.abs(t).sum(axis=0).max()
    values, vectors = tridiagonal_eigen(diagonal, offdiagonal, count)
    assert values.shape == (count,) and vectors.shape == (t.shape[0], count)
    value_gap = np.abs(values - np.linalg.eigh(t)[0][:count]).max() / norm
    residual = np.abs(t @ vectors - vectors * values).max() / norm
    assert vectors.dtype == np.float64
    orthonormality = np.abs(vectors.T @ vectors - np.eye(count)).max()
    return value_gap, residual, orthonormality


def kernel_value_gaps(diagonal, offdiagonal, count):
    """Gap of each value kernel, Sturm and dense, to eigvalsh of T, against |T|_1.

    Both run on the whole matrix, unsplit, with the off-diagonal moduli:
    the sign of an entry does not change the counts.
    """
    diagonal, offdiagonal = np.asarray(diagonal, dtype=float), np.asarray(offdiagonal, dtype=float)
    t = tridiagonal(diagonal, offdiagonal)
    norm = np.abs(t).sum(axis=0).max()
    reference = np.linalg.eigvalsh(t)[:count]
    moduli = np.abs(offdiagonal)
    sturm = linalg._sturm_values(diagonal, moduli, count)
    dense = np.linalg.eigvalsh(linalg._symmetric_tridiagonal(diagonal, moduli))[:count]
    return np.abs(sturm - reference).max() / norm, np.abs(dense - reference).max() / norm


class TestTridiagonalEigen:
    @pytest.mark.parametrize("band", ["real", "split"])
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 200])
    def test_matches_dense_eigh(self, rng, n, band):
        # "split" zeroes about a tenth of the couplings, as a real momentum
        # band with zero entries does, so T falls apart into blocks.
        for count in sorted({1, (n + 1) // 2, n}):
            for draw in range(3):
                diagonal = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3])
                offdiagonal = rng.normal(size=n - 1)
                if band == "split":
                    offdiagonal[rng.random(n - 1) < 0.1] = 0.0
                value_gap, residual, orthonormality = check_eigenpairs(diagonal, offdiagonal, count)
                assert value_gap <= 1e-13
                assert residual <= 1e-13
                assert orthonormality <= 1e-12
                if draw == 0 and count == (n + 1) // 2:
                    assert max(kernel_value_gaps(diagonal, offdiagonal, count)) <= 1e-13

    @pytest.mark.parametrize("n, sturm", [(109, False), (110, True)])
    def test_value_kernel_follows_the_crossover(self, rng, monkeypatch, n, sturm):
        # n^2 = 11881 is at or below STURM_CROSSOVER * 1, and 12100 above it.
        calls = []

        def counting(diagonal, offdiagonal, count):
            calls.append((diagonal.size, count))
            return sturm_values(diagonal, offdiagonal, count)

        sturm_values = linalg._sturm_values
        monkeypatch.setattr(linalg, "_sturm_values", counting)
        diagonal, offdiagonal = rng.normal(size=n), rng.normal(size=n - 1)
        value_gap, residual, orthonormality = check_eigenpairs(diagonal, offdiagonal, 1)
        assert calls == ([(n, 1)] if sturm else [])
        assert value_gap <= 1e-13 and residual <= 1e-13 and orthonormality <= 1e-12

    def test_vectors_are_real_and_complex_input_is_rejected(self):
        assert tridiagonal_eigen([1.0, 2.0], [0.5], 2)[1].dtype == np.float64
        assert tridiagonal_eigen(np.array([1, 2]), np.array([-1]), 2)[1].dtype == np.float64
        for diagonal, offdiagonal in (([1.0, 2.0], [0.5j]), ([1.0, 2.0], [0.5 + 0.0j]), ([1.0 + 0.0j, 2.0], [0.5])):
            with pytest.raises(ValueError, match="real symmetric"):
                tridiagonal_eigen(diagonal, offdiagonal, 2)

    def test_analytic_two_by_two(self):
        values, vectors = tridiagonal_eigen([1.0, 1.0], [2.0], 2)
        assert values == pytest.approx([-1.0, 3.0])
        assert np.abs(np.abs(vectors) - math.sqrt(0.5)).max() <= 1e-15

    def test_zero_matrix_splits_into_unit_vectors(self):
        values, vectors = tridiagonal_eigen(np.zeros(6), np.zeros(5), 3)
        assert np.array_equal(values, np.zeros(3))
        assert np.array_equal(np.abs(vectors), np.eye(6)[:, :3])

    def test_split_blocks_keep_disjoint_support(self, rng):
        # A zero coupling splits T; each vector lives on the block that owns its value.
        diagonal = np.array([5.0, 6.0, 0.0, 1.0, 2.0])
        offdiagonal = np.array([0.5, 0.0, 0.25, 0.25])
        values, vectors = tridiagonal_eigen(diagonal, offdiagonal, 5)
        assert np.all(np.diff(values) > 0)
        for column in range(5):
            on_first = np.abs(vectors[:2, column]).max() > 0.0
            on_second = np.abs(vectors[2:, column]).max() > 0.0
            assert on_first != on_second
        assert check_eigenpairs(diagonal, offdiagonal, 5)[1] <= 1e-15
        # The counts need no split: both kernels take the unsplit matrix.
        assert max(kernel_value_gaps(diagonal, offdiagonal, 5)) <= 1e-13

    def test_tight_cluster_stays_orthonormal(self):
        # Nearly decoupled copies give pairs far closer than rounding of |T|.
        block = np.array([1.0, 2.0, 3.0, 4.0])
        diagonal = np.concatenate([block, block])
        offdiagonal = np.array([0.5, 0.5, 0.5, 1e-20, 0.5, 0.5, 0.5])
        value_gap, residual, orthonormality = check_eigenpairs(diagonal, offdiagonal, 8)
        assert value_gap <= 1e-13 and residual <= 1e-13 and orthonormality <= 1e-12

    def test_glued_wilkinson_and_graded_matrices(self, rng):
        # Hard cases for inverse iteration: fourteen copies of W21+, whose
        # pairs agree to many digits, glued by couplings of 1e-10; and
        # entries graded over sixteen orders of magnitude.
        wilkinson = np.abs(np.arange(21) - 10.0)
        glue = np.ones(14 * 21 - 1)
        glue[20::21] = 1e-10
        graded = [rng.normal(size=size) * 10.0 ** rng.uniform(-8.0, 8.0, size) for size in (90, 89)]
        for diagonal, offdiagonal in ((np.tile(wilkinson, 14), glue), graded):
            value_gap, residual, orthonormality = check_eigenpairs(diagonal, offdiagonal, diagonal.size)
            assert value_gap <= 1e-13 and residual <= 1e-13 and orthonormality <= 1e-12
            assert max(kernel_value_gaps(diagonal, offdiagonal, diagonal.size)) <= 1e-13

    def test_sturm_count_agrees_with_ldl_pivots(self, rng):
        # The two kernels run the same L D L^T recurrence, kept apart for
        # speed: at any shift their negative pivots must agree, with the
        # same +-eps guard.  Shifts at diagonal entries make pivots of
        # exactly 0 that the guard raises.
        wilkinson = np.abs(np.arange(21) - 10.0)
        glue = np.ones(3 * 21 - 1)
        glue[20::21] = 1e-10
        integer = rng.integers(-3, 4, size=40).astype(float)
        graded = [rng.normal(size=size) * 10.0 ** rng.uniform(-8.0, 8.0, size) for size in (89, 88)]
        matrices = [(rng.normal(size=60), rng.normal(size=59)), graded, (np.tile(wilkinson, 3), glue), (integer, np.ones(39))]
        for diagonal, offdiagonal in matrices:
            d, e2 = diagonal.tolist(), [0.0, *(offdiagonal * offdiagonal).tolist()]
            spectrum = np.linalg.eigvalsh(linalg._symmetric_tridiagonal(diagonal, offdiagonal))
            span = spectrum[-1] - spectrum[0]
            inside = rng.uniform(spectrum[0] - 0.1 * span, spectrum[-1] + 0.1 * span, 40)
            for shift in [*inside, *spectrum[::7], *diagonal[:10]]:
                negatives, _ = linalg._sturm_count(d, e2, float(shift))
                pivots = linalg._ldl_pivots(d, e2, float(shift))
                assert negatives == sum(pivot < 0.0 for pivot in pivots)
                assert all(abs(pivot) >= linalg._EPS for pivot in pivots)

    def test_extreme_scales(self):
        for scale in (1e-300, 1e300):
            diagonal = scale * np.array([2.0, 2.0, 2.0, 2.0])
            offdiagonal = scale * np.array([-1.0, -1.0, -1.0])
            values, vectors = tridiagonal_eigen(diagonal, offdiagonal, 4)
            assert np.isfinite(values).all() and np.isfinite(vectors).all()
            assert np.abs(vectors.T @ vectors - np.eye(4)).max() <= 1e-12
            assert max(kernel_value_gaps(diagonal, offdiagonal, 4)) <= 1e-13

    @pytest.mark.parametrize(
        "diagonal, offdiagonal, count, match",
        [
            ([], [], 0, "n >= 1"),
            ([1.0, 2.0], [1.0, 2.0], 1, "n - 1"),
            ([[1.0]], [], 1, "n >= 1"),
            ([1.0, math.nan], [0.0], 1, "finite"),
            ([1.0, 2.0], [math.inf], 1, "finite"),
            ([1.0, 2.0], [0.5], 3, "count"),
            ([1.0, 2.0], [0.5], -1, "count"),
            ([1.0, 2.0], [0.5], True, "count"),
            ([1.0, 2.0], [0.5], 0, "count"),
        ],
    )
    def test_rejects_bad_input(self, diagonal, offdiagonal, count, match):
        with pytest.raises(ValueError, match=match):
            tridiagonal_eigen(diagonal, offdiagonal, count)


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
