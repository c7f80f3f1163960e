"""Pauli matrices and tensor-product spin operators for several particles.

Sites are labeled 1..N and each occupies one factor of a 2^N product
space.  Everything is built from exact 0/1/i entries, so algebraic
identities (idempotence, tracelessness, cross-site commutation) hold
exactly in floating point, not merely to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import worse

MAX_SITES = 4

_SIGMA = {
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}

# (a, b) -> (third axis, sign of the cyclic permutation)
_EPSILON = {
    (1, 2): (3, 1.0),
    (2, 3): (1, 1.0),
    (3, 1): (2, 1.0),
    (2, 1): (3, -1.0),
    (3, 2): (1, -1.0),
    (1, 3): (2, -1.0),
}


def pauli(axis: int) -> np.ndarray:
    """The 2x2 Pauli matrix for axis 1, 2 or 3."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    return _SIGMA[axis].copy()


def embed_spin(axis: int, site: int, nsites: int) -> np.ndarray:
    """Single-site Pauli operator on the 2^nsites product space.

    Identity factors pad the slots left and right of ``site`` (1-based).
    """
    if not 1 <= nsites <= MAX_SITES:
        raise ValueError(f"particle count must be in 1..{MAX_SITES}, got {nsites}")
    if not 1 <= site <= nsites:
        raise ValueError(f"site must be in 1..{nsites}, got {site}")
    left = np.eye(2 ** (site - 1), dtype=np.complex128)
    right = np.eye(2 ** (nsites - site), dtype=np.complex128)
    return np.kron(np.kron(left, pauli(axis)), right)


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
        return {
            "axis_a": self.axis_a,
            "axis_b": self.axis_b,
            "site_j": self.site_j,
            "site_k": self.site_k,
            "coefficient": [self.coefficient.real, self.coefficient.imag],
            "target_axis": self.target_axis,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class CommutatorReport:
    nsites: int
    entries: tuple[CommutatorEntry, ...]
    same_site_factor: float  # measured f in [s_a, s_b] = f * i * eps_abc * s_c
    max_residual: float
    note: str

    def to_dict(self) -> dict:
        return {
            "nsites": self.nsites,
            "entries": [e.to_dict() for e in self.entries],
            "same_site_factor": self.same_site_factor,
            "max_residual": self.max_residual,
            "note": self.note,
        }


def commutator_table(nsites: int) -> CommutatorReport:
    """Measure [sigma_aj, sigma_bk] for every axis and site pair.

    Coefficients are extracted from the concrete matrices rather than
    assumed.  With the standard Pauli matrices the same-site relation is
    [sigma_1, sigma_2] = 2i sigma_3 (and cyclic); the familiar factor i
    belongs to the spin-1/2 operators S = sigma/2, which absorb the 2.
    """
    dim = 2**nsites
    sigma = {(a, j): embed_spin(a, j, nsites) for j in range(1, nsites + 1) for a in (1, 2, 3)}
    entries = []
    factors = set()
    max_residual = 0.0
    for j in range(1, nsites + 1):
        for k in range(1, nsites + 1):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    left = sigma[a, j]
                    right = sigma[b, k]
                    comm = left @ right - right @ left
                    target = None
                    coeff = 0.0 + 0.0j
                    if j == k and a != b:
                        target, sign = _EPSILON[(a, b)]
                        basis = sigma[target, j]
                        coeff = complex(np.trace(basis.conj().T @ comm) / dim)
                        residual = float(np.abs(comm - coeff * basis).max())
                        factors.add(complex(coeff / (1j * sign)))
                    else:
                        residual = float(np.abs(comm).max())
                    max_residual = worse(max_residual, residual)
                    entries.append(
                        CommutatorEntry(a, b, j, k, coeff, target, residual)
                    )
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
