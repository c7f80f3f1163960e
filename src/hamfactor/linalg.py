"""Dense complex linear algebra for verification-grade problems.

All routines operate on plain numpy arrays with ``complex128`` entries
and are sized for desk-scale matrices.  Determinants and null spaces use
explicit elimination so pivoting and rank decisions stay visible.
Tridiagonal matrices have their own kernels: an O(n) banded
elimination for real symmetric log-determinants, and a Hermitian
eigensolver that takes every eigenvalue from LAPACK's values-only path
and computes each requested eigenvector in O(n) by inverse iteration.
``worse`` is the NaN-keeping maximum that every residual in the package
folds with; ``relative_residual`` scales a gap by the terms behind it.
"""

from __future__ import annotations

import math

import numpy as np

CONDITION_LIMIT = 1e12
NULL_SPACE_TOL = 1e-10


class SingularBlockError(ArithmeticError):
    """Trailing block too ill-conditioned for the block determinant path.

    Callers catching this should fall back to ``det_lu`` on the full
    matrix.
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


def _lu_pivots(m):
    """Pivots of LU elimination with partial pivoting, in elimination order.

    Yields ``(pivot, swapped)`` per column, where ``swapped`` says that a
    row exchange brought the pivot up.  A zero pivot means the matrix is
    exactly singular, and elimination stops there.
    """
    a = as_complex_matrix(m).copy()
    n = _require_square(a)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if p != k:
            a[[k, p], k:] = a[[p, k], k:]
        pivot = a[k, k]
        yield pivot, p != k
        if pivot == 0:
            return
        if k + 1 < n:
            mult = a[k + 1 :, k] / pivot
            a[k + 1 :, k + 1 :] -= np.outer(mult, a[k, k + 1 :])


def det_lu(m) -> complex:
    """Determinant via LU elimination with partial pivoting.

    Row swaps are tracked explicitly so the permutation sign is exact;
    the result is that sign times the product of the pivots.
    """
    det = 1.0 + 0.0j
    for pivot, swapped in _lu_pivots(m):
        if pivot == 0:
            return 0.0j
        if swapped:
            det = -det
        det *= pivot
    return complex(det)


def logabsdet_lu(m) -> tuple[float, complex]:
    """``(log|det m|, phase)`` from the same pivoted elimination as det_lu.

    The phase has unit modulus (det = exp(log) * phase), so determinants
    far outside floating-point range stay representable.  An exactly
    singular matrix returns ``(-inf, 0)``.
    """
    log_abs = 0.0
    phase = 1.0 + 0.0j
    for pivot, swapped in _lu_pivots(m):
        if pivot == 0:
            return -math.inf, 0.0j
        if swapped:
            phase = -phase
        log_abs += math.log(abs(pivot))
        phase *= pivot / abs(pivot)
    return log_abs, phase


def logabsdet_tridiagonal(diagonal, offdiagonal) -> tuple[float, float]:
    """``(log|det T|, sign)`` of a real symmetric tridiagonal matrix T.

    ``diagonal`` holds the n diagonal entries and ``offdiagonal`` the
    n - 1 entries beside them.  Elimination pivots like LAPACK ?gttrf:
    at each step the row with the larger entry in the pivot column
    leads, so a row swap gives U a second superdiagonal.  Only the two
    live entries of the row being reduced are kept, so the cost is O(n)
    and no matrix is formed.  An exactly singular matrix returns
    ``(-inf, 0)``.
    """
    d = np.asarray(diagonal, dtype=float)
    off = np.asarray(offdiagonal, dtype=float)
    if d.ndim != 1 or off.shape != (max(d.size - 1, 0),):
        raise ValueError(
            f"need n diagonal and n - 1 off-diagonal entries, got shapes {d.shape} and {off.shape}"
        )
    if not (np.isfinite(d).all() and np.isfinite(off).all()):
        raise ValueError("matrix entries must be finite")
    if d.size == 0:
        return 0.0, 1.0
    off = off.tolist() + [0.0]
    pivots = []
    swaps = 0
    # Row i is (lead, upper) in columns i, i + 1; row i + 1 is
    # (below, diag, beyond) in columns i .. i + 2.
    lead, upper = float(d[0]), off[0]
    for below, diag, beyond in zip(off, d[1:].tolist(), off[1:]):
        if abs(lead) >= abs(below):
            if lead == 0.0:
                return -math.inf, 0.0
            pivots.append(lead)
            lead, upper = diag - below / lead * upper, beyond
        else:
            pivots.append(below)
            factor = lead / below
            lead, upper = upper - factor * diag, -factor * beyond
            swaps += 1
    if lead == 0.0:
        return -math.inf, 0.0
    pivots.append(lead)
    p = np.array(pivots)
    negatives = swaps + int(np.count_nonzero(p < 0.0))
    return float(np.log(np.abs(p)).sum()), -1.0 if negatives % 2 else 1.0


#: Eigenvalues of one block closer together than this share of its scale
#: (the power of two just above its 1-norm) form a cluster: inverse
#: iteration orthogonalizes each of their vectors against the ones already
#: found (the ORTOL of LAPACK ?stein).
_CLUSTER_GAP = 1e-3

_EPS = float(np.finfo(float).eps)


def tridiagonal_eigen(diagonal, offdiagonal, count: int) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of a Hermitian tridiagonal T, and eigenvectors of the lowest ``count``.

    ``diagonal`` holds the n real diagonal entries and ``offdiagonal`` the
    n - 1 entries above them, real or complex; the entries below are their
    conjugates.  Returns the n eigenvalues ascending and an n x count
    array whose columns are the matching unit eigenvectors, real when the
    off-diagonal is real.

    A complex off-diagonal is made real by the diagonal unitary similarity
    that ``Pencil1D.log_abs_det`` uses, which replaces each entry by its
    modulus; the vectors are mapped back by its phases.  T splits into
    unreduced blocks at zero off-diagonal entries.  Each block's values
    come from LAPACK's values-only symmetric solver on the assembled real
    block, the one n x n array (NumPy has no tridiagonal eigensolver), and
    each requested vector costs O(n) by inverse iteration on its block.
    Its random start vectors come from a fixed seed, so results repeat
    bit for bit.
    """
    d = np.asarray(diagonal, dtype=float)
    off = np.asarray(offdiagonal)
    n = d.size
    if d.ndim != 1 or n == 0 or off.shape != (n - 1,):
        raise ValueError(
            f"need n >= 1 diagonal and n - 1 off-diagonal entries, got shapes {d.shape} and {off.shape}"
        )
    if not (np.isfinite(d).all() and np.isfinite(off).all()):
        raise ValueError("matrix entries must be finite")
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or not 0 <= count <= n:
        raise ValueError(f"count must be an integer in 0..{n}, got {count!r}")
    phases = None
    if np.iscomplexobj(off) and off.imag.any():
        e = np.abs(off)
        # conj(phase_j) t_j phase_(j+1) = |t_j| with phase_(j+1) = phase_j conj(t_j) / |t_j|.
        unit = np.ones(n - 1, dtype=np.complex128)
        coupled = e > 0.0
        unit[coupled] = off[coupled].conj() / e[coupled]
        phases = np.concatenate(([1.0 + 0.0j], np.cumprod(unit)))
        phases /= np.abs(phases)  # the running product drifts off the unit circle by rounding
    else:
        e = np.real(off).astype(float)

    bounds = [0, *(np.flatnonzero(e == 0.0) + 1).tolist(), n]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    # Block [lo, hi) puts its spectrum at positions lo..hi-1 of the concatenation.
    spectra = np.concatenate(
        [np.linalg.eigvalsh(_symmetric_tridiagonal(d[lo:hi], e[lo : hi - 1])) for lo, hi in blocks]
    )
    picked = np.argsort(spectra, kind="stable")
    values = spectra[picked]
    picked = picked[:count]

    vectors = np.zeros((n, count), dtype=float if phases is None else np.complex128)
    rng = np.random.default_rng(0)
    for lo, hi in blocks:
        columns = np.flatnonzero((lo <= picked) & (picked < hi))
        if columns.size:
            vectors[lo:hi, columns] = _inverse_iteration(d[lo:hi], e[lo : hi - 1], values[columns], rng).T
    if phases is not None:
        vectors *= phases[:, None]
    return values, vectors


def _symmetric_tridiagonal(diagonal: np.ndarray, offdiagonal: np.ndarray) -> np.ndarray:
    n = diagonal.size
    t = np.diag(diagonal)
    flat = t.reshape(-1)
    flat[1 :: n + 1] = offdiagonal
    flat[n :: n + 1] = offdiagonal
    return t


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
    norm = np.abs(diagonal)
    norm[1:] += np.abs(offdiagonal)
    norm[:-1] += np.abs(offdiagonal)
    exponent = math.frexp(float(norm.max()))[1]
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


def _inverse_checked(d: np.ndarray, cond_limit: float) -> np.ndarray:
    try:
        d_inv = np.linalg.inv(d)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError("trailing block is singular") from exc
    cond = np.linalg.norm(d, 1) * np.linalg.norm(d_inv, 1)
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularBlockError(
            f"trailing block condition estimate {cond:.3e} exceeds limit {cond_limit:.1e}"
        )
    return d_inv


def block_det_schur(m, k: int, cond_limit: float = CONDITION_LIMIT) -> complex:
    """Determinant through the identity |M| = |D| * |A - B D^-1 C|.

    ``k`` is the leading block size; D is the trailing (n-k) x (n-k)
    block and must be comfortably nonsingular (1-norm condition estimate
    below ``cond_limit``), otherwise ``SingularBlockError`` is raised.
    """
    a, b, c, d = _split_blocks(as_complex_matrix(m), k)
    d_inv = _inverse_checked(d, cond_limit)
    return det_lu(d) * det_lu(a - b @ d_inv @ c)


def schur_factor_check(m, k: int, cond_limit: float = CONDITION_LIMIT) -> float:
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
    d_inv = _inverse_checked(d, cond_limit)
    eye, zero = np.eye(k), np.zeros((k, len(d)))
    upper = np.block([[eye, b @ d_inv], [zero.T, np.eye(len(d))]])
    middle = np.block([[a - b @ d_inv @ c, zero], [zero.T, d]])
    lower = np.block([[eye, zero], [d_inv @ c, np.eye(len(d))]])
    return relative_residual(m - upper @ middle @ lower, np.abs(upper) @ np.abs(middle) @ np.abs(lower))


def null_space(m, tol: float = NULL_SPACE_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of ``m``.

    Row reduction with full pivoting; elimination stops once the largest
    remaining entry drops below ``tol`` times the largest entry of the
    original matrix.  Free columns yield the basis, which is then
    orthonormalized.  A numerically nonsingular matrix returns ``[]``.
    """
    a = as_complex_matrix(m).copy()
    rows, cols = a.shape
    scale = float(np.abs(a).max()) if a.size else 0.0
    identity = np.eye(cols, dtype=np.complex128)
    if scale == 0.0:
        return [identity[:, j] for j in range(cols)]

    perm = np.arange(cols)
    rank = 0
    limit = min(rows, cols)
    while rank < limit:
        sub = np.abs(a[rank:, rank:])
        i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if sub[i, j] <= tol * scale:
            break
        if i != 0:
            a[[rank, rank + i]] = a[[rank + i, rank]]
        if j != 0:
            a[:, [rank, rank + j]] = a[:, [rank + j, rank]]
            perm[[rank, rank + j]] = perm[[rank + j, rank]]
        a[rank] /= a[rank, rank]
        others = [r for r in range(rows) if r != rank]
        a[others] -= np.outer(a[others, rank], a[rank])
        rank += 1

    nfree = cols - rank
    if nfree == 0:
        return []

    stacked = np.vstack(
        [-a[:rank, rank:], np.eye(nfree, dtype=np.complex128)]
    )
    vectors = np.zeros_like(stacked)
    vectors[perm] = stacked  # undo the column permutation
    q, _ = np.linalg.qr(vectors)
    return [q[:, j] for j in range(nfree)]
