"""Dense and banded linear algebra for verification-grade problems.

The dense routines take plain numpy matrices, compute in ``complex128``
and are sized for desk-scale problems.  Determinants use explicit
pivoted elimination, so the pivots stay visible; the block routines
eliminate a trailing block through its inverse.
Real symmetric tridiagonal matrices have their own eigensolver, which takes
the bands and never forms the matrix: it takes the values of the lowest
levels from Sturm counts on large blocks and from LAPACK's values-only
path on small ones, and computes each eigenvector in O(n) by inverse
iteration.
``worse`` is the NaN-keeping maximum that every residual in the package
folds with; ``relative_residual`` scales a gap by the terms behind it.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

CONDITION_LIMIT = 1e12


class SingularBlockError(ArithmeticError):
    """Trailing block too ill-conditioned for the block routines.

    Its 1-norm condition estimate is above ``CONDITION_LIMIT``, or it is
    singular.  The ``verify`` Schur suites skip such a draw.
    """


def as_complex_matrix(m) -> np.ndarray:
    """Validate ``m`` as a 2-D matrix of finite entries; return complex128."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _require_square(a: np.ndarray) -> int:
    n, nc = a.shape
    if n != nc:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    return n


def worse(worst: float, residual: float) -> float:
    """The larger of the two; a NaN on either side wins and stays.

    Every residual in the package folds with this, starting from 0.0, so
    one NaN residual makes the maximum NaN and its check fails (plain
    ``max`` keeps its first argument when the second is NaN).
    """
    return residual if residual > worst or math.isnan(residual) else worst


def relative_residual(gap, scale) -> float:
    """Largest |gap| / scale entry by entry, with ``scale`` the moduli of the terms behind each entry.

    This backward error is a relative rounding error at any magnitude.
    Where the scale is 0 the gap is taken as it is; a NaN keeps the result NaN.
    """
    gap = np.abs(np.asarray(gap))
    scale = np.asarray(scale, dtype=float)
    return float(np.max(np.divide(gap, scale, out=gap.copy(), where=scale != 0.0)))


def det_lu(m) -> complex:
    """Determinant via LU elimination with partial pivoting.

    Row swaps are tracked explicitly so the permutation sign is exact;
    the result is that sign times the product of the pivots.  A zero pivot
    means the matrix is exactly singular, and elimination stops there.
    """
    a = as_complex_matrix(m).copy()
    n = _require_square(a)
    det = 1.0 + 0.0j
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if p != k:
            a[[k, p], k:] = a[[p, k], k:]
            det = -det
        pivot = a[k, k]
        if pivot == 0:
            return 0.0j
        det *= pivot
        if k + 1 < n:
            mult = a[k + 1 :, k] / pivot
            a[k + 1 :, k + 1 :] -= np.outer(mult, a[k, k + 1 :])
    return complex(det)


def tridiagonal_norm(diagonal, offdiagonal) -> float:
    """1-norm of the symmetric tridiagonal matrix with these bands (the largest absolute row sum)."""
    rows = np.abs(np.asarray(diagonal, dtype=float))
    off = np.abs(np.asarray(offdiagonal))
    rows[1:] += off
    rows[:-1] += off
    return float(rows.max())


#: Eigenvalues of one block closer together than this share of its scale
#: (the power of two just above its 1-norm) form a cluster: inverse
#: iteration orthogonalizes each of their vectors against the ones already
#: found (the ORTOL of LAPACK ?stein).
_CLUSTER_GAP = 1e-3

_EPS = float(np.finfo(float).eps)

#: A block of size s takes its lowest k values from Sturm counts when
#: s^2 > STURM_CROSSOVER * k, and from LAPACK's dense values-only solve
#: otherwise.  The dense solve costs O(s^3) in compiled code; a Sturm pass
#: costs O(s) in Python floats, and a level about five passes.  Measured
#: with single-thread BLAS on a 2-vCPU x86-64 host, the two cost the same
#: near s^2 / k = 4000-6400 for the box and harmonic wells and near 13000
#: for a rippled well, which needs more passes; the value sits near the
#: upper end, so the dense solve stays wherever it is clearly faster.
STURM_CROSSOVER = 12_000


def tridiagonal_eigen(diagonal, offdiagonal, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest ``count`` eigenvalues of a real symmetric tridiagonal T, and their eigenvectors.

    ``diagonal`` holds the n diagonal entries and ``offdiagonal`` the n - 1
    entries beside them, both real; complex input is rejected.  Returns
    the ``count`` lowest eigenvalues ascending and an n x count real array
    whose columns are the matching unit eigenvectors.

    T splits into unreduced blocks at zero off-diagonal entries.  A block
    of size s gives its lowest min(count, s) values from Sturm counts when
    s^2 exceeds ``STURM_CROSSOVER`` times that number, in O(s) per pass
    with no matrix formed, and otherwise from LAPACK's values-only
    symmetric solver on the assembled block (NumPy has no tridiagonal
    eigensolver).  Each requested vector costs O(s) by inverse iteration
    on its block.  Its random start vectors come from a fixed seed, so
    results repeat bit for bit.
    """
    if np.iscomplexobj(diagonal) or np.iscomplexobj(offdiagonal):
        raise ValueError("tridiagonal_eigen takes a real symmetric tridiagonal matrix; got complex entries")
    d = np.asarray(diagonal, dtype=float)
    e = np.asarray(offdiagonal, dtype=float)
    n = d.size
    if d.ndim != 1 or n == 0 or e.shape != (n - 1,):
        raise ValueError(
            f"need n >= 1 diagonal and n - 1 off-diagonal entries, got shapes {d.shape} and {e.shape}"
        )
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("matrix entries must be finite")
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or not 1 <= count <= n:
        raise ValueError(f"count must be an integer in 1..{n}, got {count!r}")

    bounds = [0, *(np.flatnonzero(e == 0.0) + 1).tolist(), n]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    spectra = [_lowest_values(d[lo:hi], e[lo : hi - 1], min(count, hi - lo)) for lo, hi in blocks]
    # Block b puts its values at positions starts[b] .. starts[b + 1] - 1 of the concatenation.
    starts = np.cumsum([0, *(len(values) for values in spectra)])
    spectrum = np.concatenate(spectra)
    picked = np.argsort(spectrum, kind="stable")[:count]
    values = spectrum[picked]

    vectors = np.zeros((n, count))
    rng = np.random.default_rng(0)
    for (lo, hi), first, last in zip(blocks, starts[:-1], starts[1:]):
        columns = np.flatnonzero((first <= picked) & (picked < last))
        if columns.size:
            vectors[lo:hi, columns] = _inverse_iteration(d[lo:hi], e[lo : hi - 1], values[columns], rng).T
    return values, vectors


def _lowest_values(diagonal: np.ndarray, offdiagonal: np.ndarray, count: int) -> np.ndarray:
    """The lowest ``count`` eigenvalues of an unreduced real symmetric tridiagonal block, ascending."""
    if diagonal.size**2 > STURM_CROSSOVER * count:
        return _sturm_values(diagonal, offdiagonal, count)
    return np.linalg.eigvalsh(_symmetric_tridiagonal(diagonal, offdiagonal))[:count]


def _symmetric_tridiagonal(diagonal: np.ndarray, offdiagonal: np.ndarray) -> np.ndarray:
    n = diagonal.size
    t = np.diag(diagonal)
    flat = t.reshape(-1)
    flat[1 :: n + 1] = offdiagonal
    flat[n :: n + 1] = offdiagonal
    return t


def _scale_exponent(diagonal, offdiagonal) -> int:
    """The exponent of the power of two just above the block's 1-norm; T / 2**exponent has 1-norm < 1."""
    return math.frexp(tridiagonal_norm(diagonal, offdiagonal))[1]


def _sturm_values(diagonal: np.ndarray, offdiagonal: np.ndarray, count: int) -> np.ndarray:
    """The lowest ``count`` eigenvalues of a real symmetric tridiagonal block, ascending, from Sturm counts.

    The block is scaled by a power of two to a 1-norm below 1, so its
    spectrum lies in (-1, 1).  One O(n) pass per shift (``_sturm_count``)
    gives the number of eigenvalues below the shift and d/dshift of
    log|det(B - shift)|.  Each level keeps a bracket of two shifts whose
    counts straddle it, taken from the sorted (shift, count) history of
    the levels before it, and starts from an extrapolation of those
    levels.  It steps by Newton on det(B - shift) with the levels already
    found divided out.  A step that leaves the bracket, does not head for
    this level, or is not below half the step before last, is replaced by
    bisection; a step at rounding size is lengthened by the tolerance, so
    that the next count closes the bracket from the far side.  A level is
    the midpoint of a bracket at most 8 eps wide.  An unreduced block has
    simple eigenvalues; a multiple one, which only a zero off-diagonal
    allows, falls back to bisection.
    """
    exponent = _scale_exponent(diagonal, offdiagonal)
    d = np.ldexp(diagonal, -exponent).tolist()
    e = np.ldexp(offdiagonal, -exponent)
    e2 = [0.0, *(e * e).tolist()]
    tol = 2.0 * _EPS
    shifts, counts = [-1.0, 1.0], [0, len(d)]
    values: list[float] = []
    for level in range(count):
        above = bisect.bisect_right(counts, level)
        lo, hi = shifts[above - 1], shifts[above]
        guess = _extrapolate(values)
        shift = guess if lo < guess < hi else 0.5 * (lo + hi)
        step = before = hi - lo
        while hi - lo > 4.0 * tol:
            negatives, slope = _sturm_count(d, e2, shift)
            at = bisect.bisect_left(shifts, shift)
            shifts.insert(at, shift)
            counts.insert(at, negatives)
            if negatives <= level:
                lo = shift
            else:
                hi = shift
            slope -= sum(1.0 / (shift - value) for value in values if value != shift)
            newton = -1.0 / slope if slope else math.inf
            target = shift + newton + math.copysign(tol, newton)
            # Newton heads for this level only up from a count of exactly
            # the level, or down from one more; any other count leaves
            # another root, or a multiple one, in the way.  A rounding-size
            # step may only follow a longer one, so steps that move by the
            # tolerance alone cannot run on.
            toward = negatives == level if newton > 0.0 else negatives == level + 1
            if abs(newton) <= 4.0 * tol:
                converging = abs(step) > 4.0 * tol
            else:
                converging = abs(newton) < 0.5 * abs(before)
            if toward and converging and lo < target < hi:
                before, step = step, newton
                shift = target
            else:
                before, step = step, 0.5 * (hi - lo)
                shift = lo + step
        values.append(0.5 * (lo + hi))
    return np.ldexp(values, exponent)


def _extrapolate(values: list) -> float:
    """A first shift for the next level: 0, then twice the first level, then a linear and a quadratic extrapolation."""
    if len(values) >= 3:
        return 3.0 * (values[-1] - values[-2]) + values[-3]
    if len(values) == 2:
        return 2.0 * values[-1] - values[-2]
    return 2.0 * values[0] if values else 0.0


def _sturm_count(d: list, e2: list, shift: float) -> tuple[int, float]:
    """Negative pivots of T - shift = L D L^T, and the sum of D_i' / D_i = d/dshift log|det(T - shift)|.

    The pivots are those of ``_ldl_pivots``, with a pivot below eps in
    modulus raised to +-eps; their number below zero is the number of
    eigenvalues below the shift (Kahan 1966), monotone in the shift in
    floating point (Demmel, Dhillon & Ren 1995).  ``e2`` holds the squared
    off-diagonal, led by a 0 for the first row.
    """
    eps = _EPS
    negatives = 0
    slope = 0.0
    pivot, share = 1.0, 0.0  # share = D_i' / D_i
    for off2, diag in zip(e2, d):
        ratio = off2 / pivot
        pivot = diag - shift - ratio
        if -eps < pivot < eps:
            pivot = eps if pivot >= 0.0 else -eps
        if pivot < 0.0:
            negatives += 1
        # D_i' = -1 + e_(i-1)^2 D_(i-1)' / D_(i-1)^2 = ratio * share_(i-1) - 1.
        share = (ratio * share - 1.0) / pivot
        slope += share
    return negatives, slope


def _inverse_iteration(diagonal, offdiagonal, values, rng: np.random.Generator) -> np.ndarray:
    """Unit eigenvectors of an unreduced real symmetric tridiagonal block B, one per eigenvalue.

    ``values`` are eigenvalues of B, ascending; returns one vector per
    row.  B is first scaled by a power of two to a 1-norm below 1.  For
    each value, B - value = L D L^T is factored without pivoting, and a
    pivot below eps in modulus is raised to eps, as ?stein perturbs small
    pivots.  Inverse iteration solves with both factors from a random
    start, and one refinement step solves again.  Inside a cluster the
    iterate is orthogonalized against the vectors already found before
    each solve and twice after the last.  Every pass runs over Python
    floats, so a vector costs O(n) with no per-entry NumPy call.
    """
    exponent = _scale_exponent(diagonal, offdiagonal)
    d = np.ldexp(diagonal, -exponent).tolist()
    e = np.ldexp(offdiagonal, -exponent)
    e, e2 = e.tolist(), [0.0, *(e * e).tolist()]
    shifts = np.ldexp(values, -exponent).tolist()
    vectors = np.empty((len(shifts), len(d)))
    first = 0  # first row of the current cluster
    for row, shift in enumerate(shifts):
        if row and shift - shifts[row - 1] > _CLUSTER_GAP:
            first = row
        found = vectors[first:row]
        pivots = _ldl_pivots(d, e2, shift)
        vector = rng.uniform(-1.0, 1.0, len(d))
        for _ in range(2):  # inverse iteration, then one refinement step
            if row > first:
                vector -= (found @ vector) @ found
            vector = np.array(_back_substitute(pivots, e, _forward_substitute(pivots, e, vector.tolist())))
        for _ in range(2 if row > first else 0):
            vector -= (found @ vector) @ found
        vectors[row] = vector / np.linalg.norm(vector)
    return vectors


def _ldl_pivots(d: list, e2: list, shift: float) -> list:
    """Pivots D of T - shift = L D L^T, where L has e_i / D_i below its unit diagonal.

    ``e2`` holds the squared off-diagonal, led by a 0 for the first row.  A
    pivot below eps in modulus is raised to +-eps.
    """
    pivots = []
    pivot = 1.0
    for off2, diag in zip(e2, d):
        pivot = diag - shift - off2 / pivot
        if -_EPS < pivot < _EPS:
            pivot = _EPS if pivot >= 0.0 else -_EPS
        pivots.append(pivot)
    return pivots


def _forward_substitute(pivots: list, e: list, x: list) -> list:
    """w with L w = x."""
    w = x[0]
    return [w, *[(w := entry - off * w / pivot) for off, pivot, entry in zip(e, pivots, x[1:])]]


def _back_substitute(pivots: list, e: list, w: list) -> list:
    """y with D L^T y = w."""
    y = 0.0
    backward = [
        (y := (entry - off * y) / pivot) for entry, off, pivot in zip(w[::-1], [0.0, *e[::-1]], pivots[::-1])
    ]
    backward.reverse()
    return backward


def _split_blocks(a: np.ndarray, k: int):
    n = _require_square(a)
    if not 0 < k < n:
        raise ValueError(f"block split must satisfy 0 < k < {n}, got {k}")
    return a[:k, :k], a[:k, k:], a[k:, :k], a[k:, k:]


def _inverse_checked(d: np.ndarray) -> np.ndarray:
    try:
        d_inv = np.linalg.inv(d)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError("trailing block is singular") from exc
    cond = np.linalg.norm(d, 1) * np.linalg.norm(d_inv, 1)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularBlockError(
            f"trailing block condition estimate {cond:.3e} exceeds limit {CONDITION_LIMIT:.1e}"
        )
    return d_inv


def block_det_schur(m, k: int) -> complex:
    """Determinant through the identity |M| = |D| * |A - B D^-1 C|.

    ``k`` is the leading block size; D is the trailing (n-k) x (n-k)
    block and must be comfortably nonsingular (1-norm condition estimate
    below ``CONDITION_LIMIT``), otherwise ``SingularBlockError`` is raised.
    """
    a, b, c, d = _split_blocks(as_complex_matrix(m), k)
    d_inv = _inverse_checked(d)
    return det_lu(d) * det_lu(a - b @ d_inv @ c)


def schur_factor_check(m, k: int) -> float:
    """Relative residual of the three-factor block identity.

    Reconstructs ``U diag(A - B D^-1 C, D) L`` with U unit upper block
    triangular (corner B D^-1) and L unit lower block triangular (corner
    D^-1 C), and returns ``max|M - U S L|`` divided entry by entry by
    ``|U| |S| |L|``, the moduli of the terms the product sums.  The
    corners grow with the conditioning of D, so a bound relative to
    ``max|M|`` would read their rounding as a failure.
    """
    m = as_complex_matrix(m)
    a, b, c, d = _split_blocks(m, k)
    d_inv = _inverse_checked(d)
    eye, zero = np.eye(k), np.zeros((k, len(d)))
    upper = np.block([[eye, b @ d_inv], [zero.T, np.eye(len(d))]])
    middle = np.block([[a - b @ d_inv @ c, zero], [zero.T, d]])
    lower = np.block([[eye, zero], [d_inv @ c, np.eye(len(d))]])
    return relative_residual(m - upper @ middle @ lower, np.abs(upper) @ np.abs(middle) @ np.abs(lower))
