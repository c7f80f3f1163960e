"""Pauli matrices and tensor-product spin operators for several particles.

Sites are labeled 1..N and each occupies one bit of a 2^N product space;
site 1 is the most significant bit of a basis index.  A Pauli operator on
one site is a signed permutation of that basis (the bit-flip-plus-phase
form of Pauli strings): sigma_1 and sigma_2 flip the site's bit, sigma_3
keeps it, and each column carries a phase +-1 or +-i chosen by the bit.
Every entry is therefore an exact 0, +-1 or +-i, so algebraic identities
(idempotence, tracelessness, cross-site commutation) hold exactly in
floating point, not merely to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .linalg import worse

MAX_SITES = 4

# axis -> (flips the site's bit, phase of a column whose bit is 0, phase where it is 1).
# complex(0, -1) keeps the +0 real part that the Kronecker product gives; -1j has -0.
_ACTION = {1: (True, 1.0, 1.0), 2: (True, 1j, complex(0.0, -1.0)), 3: (False, 1.0, -1.0)}


def pauli(axis: int) -> np.ndarray:
    """The 2x2 Pauli matrix for axis 1, 2 or 3."""
    return embed_spin(axis, 1, 1)


def embed_spin(axis: int, site: int, nsites: int) -> np.ndarray:
    """Single-site Pauli operator on the 2^nsites product space.

    Column i holds one entry: in row i ^ bit for axes 1 and 2 (bit is the
    1-based ``site``'s bit, 2^(nsites - site)) and in row i for axis 3,
    with phase 1, (i, -i) or (1, -1) as that bit of i is (0, 1).  This
    equals the Kronecker product I (x) sigma_axis (x) I entry for entry,
    without forming it.
    """
    if axis not in _ACTION:
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    if not 1 <= nsites <= MAX_SITES:
        raise ValueError(f"particle count must be in 1..{MAX_SITES}, got {nsites}")
    if not 1 <= site <= nsites:
        raise ValueError(f"site must be in 1..{nsites}, got {site}")
    flips, up, down = _ACTION[axis]
    bit = 1 << (nsites - site)
    columns = np.arange(2**nsites)
    out = np.zeros((columns.size, columns.size), dtype=np.complex128)
    out[columns ^ bit if flips else columns, columns] = np.where(columns & bit, down, up)
    return out


def spin_dot(v, site: int, nsites: int) -> np.ndarray:
    """sum_a v[a] sigma_a at one site; Hermitian whenever v is real."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    out = np.zeros((2**nsites, 2**nsites), dtype=np.complex128)
    for axis in (1, 2, 3):
        out += v[axis - 1] * embed_spin(axis, site, nsites)
    return out


def product_identity_residual(alpha, beta, site: int, nsites: int) -> float:
    """Deviation of (sigma.a)(sigma.b) from (a.b) I + i sigma.(a x b)."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    lhs = spin_dot(alpha, site, nsites) @ spin_dot(beta, site, nsites)
    rhs = float(np.dot(alpha, beta)) * np.eye(2**nsites) + 1j * spin_dot(
        np.cross(alpha, beta), site, nsites
    )
    return float(np.abs(lhs - rhs).max())


@dataclass(frozen=True)
class CommutatorEntry:
    axis_a: int
    axis_b: int
    site_j: int
    site_k: int
    coefficient: complex  # c in [sigma_aj, sigma_bk] = c * sigma_(target, j)
    target_axis: int | None
    residual: float  # max-abs leftover after removing c * sigma_target

    def to_dict(self) -> dict:
        return {**vars(self), "coefficient": [self.coefficient.real, self.coefficient.imag]}


@dataclass(frozen=True)
class CommutatorReport:
    nsites: int
    entries: tuple[CommutatorEntry, ...]
    same_site_factor: float  # measured f in [s_a, s_b] = f * i * eps_abc * s_c
    max_residual: float
    note: str

    def to_dict(self) -> dict:
        return {**vars(self), "entries": [e.to_dict() for e in self.entries]}


def commutator_table(nsites: int) -> CommutatorReport:
    """Measure [sigma_aj, sigma_bk] for every axis and site pair.

    Coefficients are extracted from the concrete matrices rather than
    assumed.  With the standard Pauli matrices the same-site relation is
    [sigma_1, sigma_2] = 2i sigma_3 (and cyclic); the familiar factor i
    belongs to the spin-1/2 operators S = sigma/2, which absorb the 2.

    The 3N embedded matrices are stacked by (site, axis), and each row j
    forms its 9N commutators with one batched product each way, indexed
    (k, a, b).  Every residual is read from the concrete commutator in one
    max-abs reduction; the six same-site pairs a != b first remove
    c sigma_c, with c = tr(sigma_c^H [sigma_aj, sigma_bj]) / 2^N.  Only one
    row's (N, 3, 3, 2^N, 2^N) commutators are held at a time.
    """
    dim = 2**nsites
    sites, axes = range(1, nsites + 1), (1, 2, 3)
    sigma = np.array([[embed_spin(a, j, nsites) for a in axes] for j in sites])
    # The six pairs a != b close on the third axis 6 - a - b; eps_abc = +1 when b follows a cyclically.
    pairs = [(a, b) for a in axes for b in axes if a != b]
    rows, cols, targets = [a - 1 for a, _ in pairs], [b - 1 for _, b in pairs], [5 - a - b for a, b in pairs]
    signs = [1.0 if (b - a) % 3 == 1 else -1.0 for a, b in pairs]
    unmeasured = (0j, None)  # coefficient and target axis of every other pair
    entries = []
    factors = set()
    max_residual = 0.0
    for j in sites:
        own, others = sigma[j - 1, :, None], sigma[:, None]
        comm = own @ others
        comm -= others @ own  # comm[k, a, b] = [sigma_aj, sigma_bk]
        residuals = np.abs(comm).max(axis=(-2, -1))
        same, basis = comm[j - 1, rows, cols], sigma[j - 1, targets]
        coeffs = np.trace(basis.conj().swapaxes(-2, -1) @ same, axis1=-2, axis2=-1) / dim
        residuals[j - 1, rows, cols] = np.abs(same - coeffs[:, None, None] * basis).max(axis=(-2, -1))
        measured = {pair: (coeff, target + 1) for pair, coeff, target in zip(pairs, coeffs.tolist(), targets)}
        factors.update(complex(coeff / (1j * sign)) for (coeff, _), sign in zip(measured.values(), signs))
        for (k, a, b), residual in zip(product(sites, axes, axes), residuals.ravel().tolist()):
            coeff, target = measured.get((a, b), unmeasured) if j == k else unmeasured
            max_residual = worse(max_residual, residual)
            entries.append(CommutatorEntry(a, b, j, k, coeff, target, residual))
    if len(factors) != 1:
        raise AssertionError(f"inconsistent same-site factors measured: {factors}")
    factor = factors.pop()
    if abs(factor.imag) > 0:
        raise AssertionError(f"same-site factor is not real: {factor}")
    return CommutatorReport(
        nsites=nsites,
        entries=tuple(entries),
        same_site_factor=factor.real,
        max_residual=max_residual,
        note=(
            "same-site commutators measure [s_a, s_b] = 2i eps_abc s_c for the "
            "concrete matrices; the spin-1/2 convention S = s/2 absorbs the "
            "factor 2 and satisfies [S_a, S_b] = i eps_abc S_c"
        ),
    )
