"""Reference implementations and generators shared by the tests.

``logabsdet_tridiagonal`` is the generic banded elimination that
``Pencil1D.log_abs_det`` specializes to the pencil's interleaved rows;
``pencil_log_abs_det`` feeds it the pencil's bands, so the two must agree
bit for bit.  ``momentum`` and ``pencil_matrix`` assemble a pencil's dense
momentum M = -i D and the dense (2n + 1)-square G(E).
``random_polynomial`` draws the sparse polynomials of the operator-identity
tests.  ``embed_spin_kron`` is the dense Kronecker form of an embedded
Pauli operator and ``commutator_entries`` the entry-by-entry commutator
loop over it, the oracles of ``hamfactor.spin``.
"""

import math

import numpy as np

from hamfactor import CommutatorEntry, Polynomial
from hamfactor.linalg import worse


def logabsdet_tridiagonal(diagonal, offdiagonal, rate) -> tuple[float, float, float]:
    """``(log|det T|, sign, slope)`` of a real symmetric tridiagonal matrix T.

    ``diagonal`` holds the n diagonal entries and ``offdiagonal`` the
    n - 1 entries beside them.  ``slope`` is d log|det T(t)| / dt at t = 0
    for T(t) = T + t diag(rate), the sum of pivot' / pivot.  Elimination
    pivots like LAPACK ?gttrf: at each step the row with the larger entry
    in the pivot column leads, so a row swap gives U a second
    superdiagonal.  Only the two live entries of the row being reduced are
    kept, with their derivatives along ``rate`` by the product and
    quotient rules.  An exactly singular matrix returns ``(-inf, 0, inf)``.
    """
    d = np.asarray(diagonal, dtype=float)
    off = np.asarray(offdiagonal, dtype=float)
    r = np.asarray(rate, dtype=float)
    if d.ndim != 1 or off.shape != (max(d.size - 1, 0),) or r.shape != d.shape:
        raise ValueError(
            f"need n diagonal, n - 1 off-diagonal and n rate entries, got shapes {d.shape}, {off.shape} and {r.shape}"
        )
    if not (np.isfinite(d).all() and np.isfinite(off).all() and np.isfinite(r).all()):
        raise ValueError("matrix entries must be finite")
    if d.size == 0:
        return 0.0, 1.0, 0.0
    off = off.tolist() + [0.0]
    pivots = []
    slope = 0.0
    swaps = 0
    # Row i is (lead, upper) in columns i, i + 1; row i + 1 is
    # (below, diag, beyond) in columns i .. i + 2.  Off-diagonal entries
    # do not move with t, so a swapped-in pivot has derivative 0.
    lead, upper = float(d[0]), off[0]
    lead_rate, upper_rate = float(r[0]), 0.0
    for below, diag, diag_rate, beyond in zip(off, d[1:].tolist(), r[1:].tolist(), off[1:]):
        if abs(lead) >= abs(below):
            if lead == 0.0:
                return -math.inf, 0.0, math.inf
            pivots.append(lead)
            share = lead_rate / lead
            slope += share
            factor = below / lead
            lead, lead_rate = diag - factor * upper, diag_rate - factor * (upper_rate - upper * share)
            upper, upper_rate = beyond, 0.0
        else:
            pivots.append(below)
            factor, factor_rate = lead / below, lead_rate / below
            lead, lead_rate = upper - factor * diag, upper_rate - factor_rate * diag - factor * diag_rate
            upper, upper_rate = -factor * beyond, -factor_rate * beyond
            swaps += 1
    if lead == 0.0:
        return -math.inf, 0.0, math.inf
    pivots.append(lead)
    slope += lead_rate / lead
    p = np.array(pivots)
    negatives = swaps + int(np.count_nonzero(p < 0.0))
    return float(np.log(np.abs(p)).sum()), -1.0 if negatives % 2 else 1.0, slope


def pencil_log_abs_det(pencil, energy: float) -> tuple[float, float]:
    """``(log|det G(E)|, slope)`` of the pencil's interleaved tridiagonal form, by the reference elimination.

    Rows psi2_0, psi1_0, psi2_1, ..., psi2_n: diagonal 1, E - V_0, 1, ...,
    off-diagonal |M_00|, |M_10|, |M_11|, ..., and rate 1 on the E - V rows.
    """
    diagonal = np.ones(pencil.size)
    diagonal[1::2] = energy - pencil.potential
    rate = np.zeros(pencil.size)
    rate[1::2] = 1.0
    offdiagonal = np.empty(2 * pencil.n)
    offdiagonal[0::2] = np.abs(pencil.diagonal)
    offdiagonal[1::2] = np.abs(pencil.subdiagonal)
    log_abs, _, slope = logabsdet_tridiagonal(diagonal, offdiagonal, rate)
    return log_abs, slope


def momentum(pencil) -> np.ndarray:
    """The dense (n + 1) x n momentum M = -i D, assembled from the bands of D."""
    n = pencil.n
    columns = np.arange(n)
    m = np.zeros((n + 1, n), dtype=np.complex128)
    m[columns, columns] = -1j * pencil.diagonal
    m[columns + 1, columns] = -1j * pencil.subdiagonal
    return m


def pencil_matrix(pencil, energy: float) -> np.ndarray:
    """The assembled Hermitian pencil G(E) = [[E - V, M^H], [M, I]]."""
    n = pencil.n
    m = momentum(pencil)
    g = np.zeros((pencil.size, pencil.size), dtype=np.complex128)
    g[:n, :n] = np.diag(energy - pencil.potential)
    g[:n, n:] = m.conj().T
    g[n:, :n] = m
    g[n:, n:] = np.eye(n + 1)
    return g


def random_polynomial(
    rng: np.random.Generator,
    nvars: int,
    max_degree: int,
    max_terms: int = 12,
) -> Polynomial:
    """Sparse random polynomial: up to ``max_terms`` monomials of total degree <= ``max_degree``."""
    data: dict[tuple[int, ...], complex] = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        degree = int(rng.integers(0, max_degree + 1))
        exps = [0] * nvars
        for _ in range(degree):
            exps[int(rng.integers(0, nvars))] += 1
        key = tuple(exps)
        data[key] = data.get(key, 0.0j) + complex(rng.normal(), rng.normal())
    return Polynomial(nvars, data)


PAULI = {
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}

# (a, b) -> third axis c of the cyclic or anticyclic triple, for a != b
THIRD_AXIS = {(1, 2): 3, (2, 3): 1, (3, 1): 2, (2, 1): 3, (3, 2): 1, (1, 3): 2}


def embed_spin_kron(axis: int, site: int, nsites: int) -> np.ndarray:
    """I (x) sigma_axis (x) I on the 2^nsites space, ``site`` counted from 1 at the left."""
    left = np.eye(2 ** (site - 1), dtype=np.complex128)
    right = np.eye(2 ** (nsites - site), dtype=np.complex128)
    return np.kron(np.kron(left, PAULI[axis]), right)


def commutator_entries(nsites: int) -> tuple[list[CommutatorEntry], float]:
    """Every [sigma_aj, sigma_bk] of the Kronecker embeddings, one 2-D product at a time, and the largest residual.

    Same-site pairs a != b measure c = tr(sigma_c^H comm) / 2^N and keep
    the max-abs of comm - c sigma_c; every other pair keeps the max-abs
    of comm.
    """
    dim = 2**nsites
    sigma = {(a, j): embed_spin_kron(a, j, nsites) for j in range(1, nsites + 1) for a in (1, 2, 3)}
    entries = []
    max_residual = 0.0
    for j in range(1, nsites + 1):
        for k in range(1, nsites + 1):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    comm = sigma[a, j] @ sigma[b, k] - sigma[b, k] @ sigma[a, j]
                    target = None
                    coeff = 0.0 + 0.0j
                    if j == k and a != b:
                        target = THIRD_AXIS[a, b]
                        basis = sigma[target, j]
                        coeff = complex(np.trace(basis.conj().T @ comm) / dim)
                        residual = float(np.abs(comm - coeff * basis).max())
                    else:
                        residual = float(np.abs(comm).max())
                    max_residual = worse(max_residual, residual)
                    entries.append(CommutatorEntry(a, b, j, k, coeff, target, residual))
    return entries, max_residual
