"""Dense complex linear algebra for verification-grade problems.

All routines operate on plain numpy arrays with ``complex128`` entries
and are sized for desk-scale matrices.  Determinants and null spaces use
explicit elimination so pivoting and rank decisions stay visible; the
Hermitian eigensolver defers to LAPACK, which meets the residual
contract with orders of magnitude to spare at these sizes.  Real
symmetric tridiagonal determinants have their own O(n) banded
elimination.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_MAX_DIM = 4096
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


def kron(a, b, max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """Kronecker product with a size guard.

    The guard catches a misconfigured particle count before it allocates
    an enormous matrix; it is not a numerical limit.
    """
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > max_dim:
        raise ValueError(
            f"kron result would be {rows}x{cols}, above the configured limit {max_dim}"
        )
    return np.kron(a, b)


def det_lu(m) -> complex:
    """Determinant via LU elimination with partial pivoting.

    Row swaps are tracked explicitly so the permutation sign is exact;
    the result is that sign times the product of the pivots.
    """
    a = as_complex_matrix(m).copy()
    n = _require_square(a)
    if n == 0:
        return 1.0 + 0.0j
    det = 1.0 + 0.0j
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0:
            return 0.0j
        if p != k:
            a[[k, p], k:] = a[[p, k], k:]
            det = -det
        det *= a[k, k]
        if k + 1 < n:
            mult = a[k + 1 :, k] / a[k, k]
            a[k + 1 :, k + 1 :] -= np.outer(mult, a[k, k + 1 :])
    return complex(det)


def logabsdet_lu(m) -> tuple[float, complex]:
    """``(log|det m|, phase)`` from the same pivoted elimination as det_lu.

    The phase has unit modulus (det = exp(log) * phase), so determinants
    far outside floating-point range stay representable.  An exactly
    singular matrix returns ``(-inf, 0)``.
    """
    a = as_complex_matrix(m).copy()
    n = _require_square(a)
    log_abs = 0.0
    phase = 1.0 + 0.0j
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0:
            return -math.inf, 0.0j
        if p != k:
            a[[k, p], k:] = a[[p, k], k:]
            phase = -phase
        pivot = a[k, k]
        log_abs += math.log(abs(pivot))
        phase *= pivot / abs(pivot)
        if k + 1 < n:
            mult = a[k + 1 :, k] / pivot
            a[k + 1 :, k + 1 :] -= np.outer(mult, a[k, k + 1 :])
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
    """Max-abs residual of the three-factor block identity.

    Reconstructs ``U diag(A - B D^-1 C, D) L`` with U unit upper block
    triangular (corner B D^-1) and L unit lower block triangular (corner
    D^-1 C), and returns ``max|M - U S L|``.
    """
    m = as_complex_matrix(m)
    a, b, c, d = _split_blocks(m, k)
    d_inv = _inverse_checked(d, cond_limit)
    n = m.shape[0]
    comp = a - b @ d_inv @ c

    upper = np.eye(n, dtype=np.complex128)
    upper[:k, k:] = b @ d_inv
    lower = np.eye(n, dtype=np.complex128)
    lower[k:, :k] = d_inv @ c
    middle = np.zeros((n, n), dtype=np.complex128)
    middle[:k, :k] = comp
    middle[k:, k:] = d

    return float(np.abs(m - upper @ middle @ lower).max())


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


def hermitian_eigen(m, herm_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a Hermitian matrix, ascending eigenvalues.

    Rejects inputs whose anti-Hermitian part exceeds ``herm_tol`` times
    the matrix scale, symmetrizes the rest and hands the problem to
    LAPACK.  Returns ``(values, vectors)`` with eigenvectors as columns.
    """
    a = as_complex_matrix(m)
    _require_square(a)
    scale = max(float(np.abs(a).max()), 1.0)
    deviation = float(np.abs(a - a.conj().T).max())
    if deviation > herm_tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: max|M - M^H| = {deviation:.3e} "
            f"exceeds {herm_tol:.1e} * scale"
        )
    h = 0.5 * (a + a.conj().T)
    if np.abs(h.imag).max() == 0.0:
        values, vectors = np.linalg.eigh(h.real)
        return values, vectors.astype(np.complex128)
    values, vectors = np.linalg.eigh(h)
    return values, vectors
