"""Two-particle weak-field Zeeman analysis in center-of-mass coordinates.

The system is a bound pair of opposite unit charges (the lighter particle
carries -e, the heavier +e) in a uniform field B along z with the
symmetric gauge.  The orbital coupling is governed by a modified Larmor
frequency proportional to 1/m1 - 1/m2, so it vanishes identically for
equal masses and reduces to the classic single-particle result when one
mass dominates.  Each unperturbed level splits into two branches shifted
by hbar * omega_L * (m + 1) and hbar * omega_L * (m - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import worse
from .polynomials import Polynomial
from .quantize import FieldConfig, Grid1D, coupled_pencil, eliminate_pencil
from .units import ATOMIC, Units


@dataclass(frozen=True)
class ZeemanSystem:
    """Masses, field strength and nuclear charge for the bound pair.

    By convention particle 1 is the lighter, negative charge; passing
    swapped masses simply evaluates the same formulas with the charge
    assignment held fixed, which flips the sign of the Larmor frequency.
    """

    m1: float
    m2: float
    b: float
    z: float = 1.0
    units: Units = ATOMIC

    def __post_init__(self):
        for name in ("m1", "m2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.b):
            raise ValueError(f"field strength must be finite, got {self.b}")
        if not (math.isfinite(self.z) and self.z > 0):
            raise ValueError(f"nuclear charge must be positive and finite, got {self.z}")


@dataclass(frozen=True)
class MassDecomposition:
    """Derived two-body mass parameters.

    ``larmor_mass`` is m1 m2 / (m2 - m1), the mass whose inverse sets the
    modified Larmor frequency; it is infinite exactly when the masses are
    equal and the orbital Zeeman coupling cancels.
    """

    total: float
    reduced: float
    mu1: float
    mu2: float
    larmor_mass: float

    @property
    def equal_masses(self) -> bool:
        return math.isinf(self.larmor_mass)


def decompose_masses(system: ZeemanSystem) -> MassDecomposition:
    """Total, reduced, mass fractions and the Larmor mass of the pair."""
    m1, m2 = system.m1, system.m2
    total = m1 + m2
    larmor = math.inf if m1 == m2 else m1 * m2 / (m2 - m1)
    return MassDecomposition(
        total=total,
        reduced=m1 * m2 / total,
        mu1=m1 / total,
        mu2=m2 / total,
        larmor_mass=larmor,
    )


def larmor_frequency(system: ZeemanSystem) -> float:
    """Modified Larmor frequency (e B / 2 c) (1/m1 - 1/m2).

    Exactly zero for equal masses; approaches the single-particle value
    e B / (2 m1 c) as m2 grows.
    """
    u = system.units
    return u.charge * system.b / (2.0 * u.light_speed) * (1.0 / system.m1 - 1.0 / system.m2)


def lamb_g_factor(system: ZeemanSystem) -> float:
    """Orbital g-factor correction 1/m1 - 1/m2 (inverse Larmor mass)."""
    return 1.0 / system.m1 - 1.0 / system.m2


def bohr_energy(n: int, mu: float, z: float, units: Units = ATOMIC) -> float:
    """Bound-state energy -mu z^2 e^4 / (2 hbar^2 n^2) of the reduced problem."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"principal quantum number must be a positive integer, got {n}")
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"reduced mass must be positive and finite, got {mu}")
    return -mu * z**2 * units.charge**4 / (2.0 * units.hbar**2 * n**2)


@dataclass(frozen=True)
class LevelRow:
    n: int
    l: int
    m: int
    branch: int
    energy: float
    shift: float


def splitting_table(system: ZeemanSystem, n_max: int) -> list[LevelRow]:
    """All split levels up to principal quantum number ``n_max``.

    Each level is separable: the Bohr energy E_n plus the branch shift
    hbar omega_L (m + 1) for branch 1 or hbar omega_L (m - 1) for branch
    2, so the reduced mass and hbar omega_L are computed once per table
    and E_n once per n.  Rows are ordered by (n, l, m, branch); each
    unperturbed level contributes two rows, so there are
    n_max (n_max + 1) (2 n_max + 1) / 3 in total.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    mu = decompose_masses(system).reduced
    quantum = system.units.hbar * larmor_frequency(system)
    rows = []
    for n in range(1, n_max + 1):
        bohr = bohr_energy(n, mu, system.z, system.units)
        for l in range(n):
            for m in range(-l, l + 1):
                for branch, step in ((1, m + 1), (2, m - 1)):
                    # + 0.0 turns IEEE negative zero into plain zero when the frequency vanishes.
                    shift = quantum * step + 0.0
                    rows.append(LevelRow(n, l, m, branch, energy=bohr + shift, shift=shift))
    return rows


def radial_eigenvalues(
    l: int,
    mu: float,
    z: float,
    grid: Grid1D,
    units: Units = ATOMIC,
) -> np.ndarray:
    """Eigenvalues of the reduced radial problem on a uniform grid.

    Three-point discretization of
    -(hbar^2 / 2 mu) u'' + [l (l+1) hbar^2 / (2 mu r^2) - z e^2 / r] u = E u
    on (0, r_max] with Dirichlet conditions at both ends, ascending: the
    eliminated 1-D pencil M^H M + diag(V).  The lowest eigenvalues
    approximate the bound-state energies for the given angular momentum
    at O(h^2) accuracy.
    """
    if l < 0:
        raise ValueError(f"angular momentum must be >= 0, got {l}")
    if grid.n < 50:
        raise ValueError(f"grid too coarse for the radial solver: n = {grid.n} < 50")
    if grid.x_min != 0.0:
        raise ValueError(f"radial grid must start at r = 0, got x_min = {grid.x_min}")
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"reduced mass must be positive and finite, got {mu}")
    r = grid.points
    v = l * (l + 1) * units.hbar**2 / (2.0 * mu * r**2) - z * units.charge**2 / r
    return np.linalg.eigvalsh(eliminate_pencil(coupled_pencil(grid, v, mu, units.hbar)).real)


# Coordinate layout for the polynomial checks: lab variables are
# (x1, y1, z1, x2, y2, z2); relative variables are (rx, ry, rz, RX, RY, RZ)
# with r = r1 - r2 and R = mu1 r1 + mu2 r2.


def _lab_to_rel(mu1: float, mu2: float) -> np.ndarray:
    """Rows express each lab variable over the relative variables."""
    forms = np.zeros((6, 6))
    for a in range(3):
        forms[a, a] = mu2  # r1 = R + mu2 r
        forms[a, 3 + a] = 1.0
        forms[3 + a, a] = -mu1  # r2 = R - mu1 r
        forms[3 + a, 3 + a] = 1.0
    return forms


def _rel_to_lab(mu1: float, mu2: float) -> np.ndarray:
    """Rows express each relative variable over the lab variables."""
    forms = np.zeros((6, 6))
    for a in range(3):
        forms[a, a] = 1.0  # r = r1 - r2
        forms[a, 3 + a] = -1.0
        forms[3 + a, a] = mu1  # R = mu1 r1 + mu2 r2
        forms[3 + a, 3 + a] = mu2
    return forms


def momentum_transform_residual(m1: float, m2: float, test: Polynomial, hbar: float = 1.0) -> float:
    """Chain-rule check of the two-body momentum split.

    ``test`` is a polynomial in the six lab coordinates.  Each particle
    momentum must match its relative/center-of-mass combination
    (p1 = p_r + mu1 P_R, p2 = -p_r + mu2 P_R) after exact substitution of
    the coordinate change; the result is the largest coefficient gap over
    both particles and all three axes.
    """
    if test.nvars != 6:
        raise ValueError(f"test polynomial must use 6 lab variables, got {test.nvars}")
    total = m1 + m2
    mu1, mu2 = m1 / total, m2 / total
    rel = test.substitute_linear(_lab_to_rel(mu1, mu2))
    back = _rel_to_lab(mu1, mu2)
    factor = hbar / 1j
    worst = 0.0
    for axis in range(3):
        for particle, sign, weight in ((1, 1.0, mu1), (2, -1.0, mu2)):
            var = axis if particle == 1 else 3 + axis
            direct = test.diff(var) * factor
            combined = (rel.diff(axis) * sign + rel.diff(3 + axis) * weight) * factor
            worst = worse(worst, direct.max_coeff_diff(combined.substitute_linear(back)))
    return worst


def potential_split_residual(m1: float, m2: float, b: float) -> float:
    """Exactness of the center-of-mass split of the gauge potential.

    Substituting r1 = R + mu2 r and r2 = R - mu1 r into A(r_k) must give
    A(R) + mu2 A(r) and A(R) - mu1 A(r) respectively; all maps are linear
    so the comparison happens on 3x6 coefficient matrices.  A is the
    symmetric gauge (B x r)/2 of a field b along z.
    """
    total = m1 + m2
    mu1, mu2 = m1 / total, m2 / total
    gauge = FieldConfig((0.0, 0.0, b)).coeffs
    # Columns ordered (rx, ry, rz, RX, RY, RZ).
    sub1 = np.hstack([mu2 * np.eye(3), np.eye(3)])
    sub2 = np.hstack([-mu1 * np.eye(3), np.eye(3)])
    direct1 = gauge @ sub1
    direct2 = gauge @ sub2
    split1 = np.hstack([mu2 * gauge, gauge])
    split2 = np.hstack([-mu1 * gauge, gauge])
    return float(worse(np.abs(direct1 - split1).max(), np.abs(direct2 - split2).max()))
